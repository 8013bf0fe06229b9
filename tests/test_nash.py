"""Equilibrium solving and the unilateral-deviation gap."""

import re

import numpy as np
import pytest

from fogbandit import nash
from fogbandit.errors import ConfigurationError, EquilibriumError
from fogbandit.game import gradient_matrix, stack_game, utility_matrix
from fogbandit.nash import deviation_utilities, epsilon_gap, solve_nash
from fogbandit.strategies import br_profile


@pytest.fixture(params=["game1", "game2"])
def game(request):
    return request.getfixturevalue(request.param)


class TestDeviationUtilities:
    def test_equals_utility_with_own_row_best_responding(self, game, rng):
        for _ in range(5):
            x = rng.random((game.K, game.M))
            dev = deviation_utilities(x, stack_game(game))
            br = br_profile(x, stack_game(game))
            for k in range(game.K):
                deviated = x.copy()
                deviated[k] = br[k]
                expected = utility_matrix(deviated, game)[k].sum()
                assert dev[k] == pytest.approx(expected, rel=1e-12)


class TestEpsilonGap:
    def test_non_negative_on_random_profiles(self, game, rng):
        for _ in range(20):
            assert epsilon_gap(rng.random((game.K, game.M)), game) >= 0.0

    def test_vanishes_at_equilibrium(self, game):
        sol = solve_nash(game)
        assert epsilon_gap(sol.x_star, game) < 1e-6
        assert sol.eps_gap < 1e-6

    def test_certificate_never_uses_the_closed_form(self, game, rng, monkeypatch):
        # the gap is found by golden-section search on the utility alone,
        # so it certifies the profile the closed-form sweeps reached
        sol = solve_nash(game)
        x = rng.random((3, game.K, game.M))
        before = epsilon_gap(x, game)

        def closed_form(*args):
            raise AssertionError("the certificate called the closed form")
        for target in ("fogbandit.nash.br_profile",
                       "fogbandit.strategies.baselines.br_profile",
                       "fogbandit.strategies.baselines.task_best_response",
                       "fogbandit.game.task_best_response"):
            monkeypatch.setattr(target, closed_form)
        assert epsilon_gap(sol.x_star, game) == sol.eps_gap < 1e-6
        assert np.array_equal(epsilon_gap(x, game), before)
        with pytest.raises(AssertionError, match="closed form"):
            solve_nash(game)


class TestSolveNash:
    def test_one_sweep_cannot_certify_uniqueness(self, game1, monkeypatch):
        monkeypatch.setattr(nash, "MAX_SWEEPS", 1)
        with pytest.raises(EquilibriumError):
            solve_nash(game1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": float("nan")}, "tol must be positive and finite, got nan"),
        ({"tol": float("inf")}, "tol must be positive and finite, got inf"),
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ({"n_starts": 0}, "n_starts must be an integer >= 1, got 0"),
        ({"n_starts": -2}, "n_starts must be an integer >= 1, got -2"),
        ({"n_starts": 2.0}, "n_starts must be an integer >= 1, got 2.0"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"seed": False}, "seed must be an integer >= 0, got False"),
        ({"n_starts": True}, "n_starts must be an integer >= 1, got True"),
    ])
    def test_rejects_bad_settings_naming_the_field(self, game1, kwargs, message):
        # a nan or inf tol stopped the sweeps at once and certified the
        # first sweep's profile as converged; a bool seed ran silently, and
        # a bool n_starts failed with a bare TypeError
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            solve_nash(game1, **kwargs)

    @pytest.mark.parametrize("tol", [True, False, "x", None, [1e-6]],
                             ids=["True", "False", "str", "None", "list"])
    def test_rejects_a_tol_that_is_not_a_number(self, game1, tol):
        # True ran as tol = 1.0 and stopped after one sweep; the others
        # failed with a bare TypeError
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"tol must be a number, got {tol!r}")):
            solve_nash(game1, tol=tol)

    def test_start_count_does_not_move_x_star(self, game):
        # x* is the first start's end point, and each start is swept as if
        # it were alone, so the other starts cannot move it
        one = solve_nash(game, n_starts=1, seed=3)
        many = solve_nash(game, n_starts=20, seed=3)
        assert np.array_equal(one.x_star, many.x_star)

    def test_matches_one_start_at_a_time(self, game):
        # reference: each start swept on its own until it converges
        tol, damping, n_starts = 1e-6, nash.DAMPING, 5
        starts = np.random.default_rng(7).random((n_starts, game.K, game.M))
        finals, sweeps = [], []
        for x in starts:
            for it in range(1, 10_001):
                x_next = (1 - damping) * x + damping * br_profile(x, stack_game(game))
                change, x = np.abs(x_next - x).max(), x_next
                if change < tol:
                    break
            finals.append(x)
            sweeps.append(it)
        sol = solve_nash(game, tol=tol, n_starts=n_starts, seed=7)
        assert np.array_equal(sol.x_star, finals[0])
        assert sol.iterations == max(sweeps)
        assert sol.converged
        assert isinstance(sol.eps_gap, float)


class TestStackedProfiles:
    """A (..., K, M) stack is answered profile by profile, bit for bit."""

    def test_br_profile_and_gap_match_per_profile_calls(self, game, rng):
        stack = rng.random((37, game.K, game.M))
        br = br_profile(stack, stack_game(game))
        gaps = epsilon_gap(stack, game)
        dev = deviation_utilities(stack, stack_game(game))
        grad = gradient_matrix(stack, game)
        assert br.shape == stack.shape and gaps.shape == (37,)
        for i, x in enumerate(stack):
            assert np.array_equal(br[i], br_profile(x, stack_game(game)))
            assert gaps[i] == epsilon_gap(x, game)
            assert np.array_equal(dev[i], deviation_utilities(x, stack_game(game)))
            assert np.array_equal(grad[i], gradient_matrix(x, game))

    def test_gap_keeps_leading_axes(self, game, rng):
        stack = rng.random((3, 4, game.K, game.M))
        gaps = epsilon_gap(stack, game)
        assert gaps.shape == (3, 4)
        assert gaps[2, 1] == epsilon_gap(stack[2, 1], game)

    @pytest.mark.parametrize("given_br", [False, True])
    def test_deviation_utilities_answers_a_block_of_replica_stacks(
            self, game, rng, given_br):
        # the engine's per_round_br accounting passes (B, S, K, M) blocks,
        # with br's own best responses stacked alongside when it has them
        stack, stacked = rng.random((5, 3, game.K, game.M)), stack_game(game)
        br = br_profile(stack, stacked) if given_br else None
        dev = deviation_utilities(stack, stacked, br)
        assert dev.shape == (5, 3, game.K)
        for b in range(5):
            for s in range(3):
                x = stack[b, s]
                one = deviation_utilities(x, stacked, None if br is None else br[b, s])
                assert np.array_equal(dev[b, s], one)
                assert np.array_equal(dev[b, s], deviation_utilities(x, stacked))
