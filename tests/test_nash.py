"""Equilibrium solving and the unilateral-deviation gap."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogbandit.engine import run_seed
from fogbandit.game import (GameSpec, aggregate_requests, best_response_terms,
                            gradient_matrix, stack_game, task_best_response,
                            utility_matrix)
from fogbandit.nash import deviation_utilities, epsilon_gap, excess, solve_nash
from fogbandit.strategies import GpBank, br_profile
from fogbandit.strategies.baselines import golden_br_profile


@pytest.fixture(params=["game1", "game2"])
def game(request):
    return request.getfixturevalue(request.param)


def golden_gap(x, spec):
    """epsilon_gap with golden_br_profile's deviations, which share nothing
    with the closed form."""
    game = stack_game(spec, *x.shape[:-2])
    u_cur = utility_matrix(x, game).sum(axis=-1)
    dev = deviation_utilities(x, game, golden_br_profile(x, game))
    return np.maximum(0.0, (dev - u_cur).max(axis=-1))


def checkpoint_stack(spec, T=200, S=3):
    """The (checkpoint, seed) stack of gp's running mean profiles that
    run_campaign hands epsilon_gap, from a T-round bank of S replicas."""
    rngs = [np.random.default_rng(s) for s in range(2 * S)]
    results = run_seed(spec, GpBank(spec, T, rngs[:S]), T, rngs[S:],
                       solve_nash(spec))
    return np.array([[r.avg_profile[t] for r in results]
                     for t in results[0].avg_profile])


class TestDeviationUtilities:
    @pytest.mark.parametrize("entry", [br_profile, deviation_utilities])
    def test_a_game_spec_is_named_as_needing_stack_game(self, game1, entry):
        with pytest.raises(TypeError, match=r"got GameSpec; pass stack_game\(spec\)"):
            entry(np.zeros((game1.K, game1.M)), game1)

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

    def test_certificate_never_uses_the_closed_form(self, game, monkeypatch):
        # solve_nash certifies x* by golden-section search on the utility
        # alone: with every closed-form best response broken its gap stays
        # the same, and only its fixed-point check, which reads br_profile,
        # fails
        sol = solve_nash(game)

        def closed_form(others, *args):
            return np.zeros(np.shape(others))
        for target in ("fogbandit.nash.br_profile",
                       "fogbandit.strategies.baselines.br_profile",
                       "fogbandit.strategies.baselines.task_best_response",
                       "fogbandit.game.task_best_response"):
            monkeypatch.setattr(target, closed_form)
        broken = solve_nash(game)
        assert broken.eps_gap == sol.eps_gap == golden_gap(sol.x_star, game)
        assert sol.eps_gap < 1e-6
        assert np.array_equal(broken.x_star, sol.x_star)
        assert sol.converged and not broken.converged

    def test_closed_form_gap_is_golden_sections_or_just_above(self, game, rng):
        # the closed form is the exact maximizer up to rounding and golden
        # section stops within 1e-8 of it, so the closed-form gap is never
        # below golden section's, beyond a few ulps of a node's utility
        # sum, and above it by at most 1e-8; x*'s gap is rounding alone
        for x in (rng.random((50, game.K, game.M)), checkpoint_stack(game)):
            closed, golden = epsilon_gap(x, game), golden_gap(x, game)
            assert closed.shape == golden.shape == x.shape[:-2]
            assert np.all(closed >= golden - 1e-15)
            assert np.all(closed <= golden + 1e-8)
        assert epsilon_gap(solve_nash(game).x_star, game) <= 1e-12


def log_uniform(low, high=1.0):
    """Floats spread evenly in log scale over [low, high]."""
    return st.floats(np.log10(low), np.log10(high)).map(
        lambda e: min(max(10.0 ** e, low), high))


@st.composite
def games(draw, K=st.integers(1, 4)):
    """A game of up to 4 x 3 over GameSpec's domain: rho down to 1e-100, a
    barrier down to 1e-50 and some entries with kappa <= eps."""
    K, M = draw(K), draw(st.integers(1, 3))
    index = st.one_of(st.floats(0.0, 1.0, exclude_min=True), log_uniform(1e-300))
    rho = draw(hnp.arrays(float, (K, M), elements=log_uniform(1e-100)))
    eps, kappa = (draw(hnp.arrays(float, (K, M), elements=index)) for _ in range(2))
    kappa = np.where(draw(hnp.arrays(bool, (K, M))), np.minimum(kappa, eps), kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                     # rho <= 0.5
        return GameSpec(rho, eps, kappa, barrier=draw(log_uniform(1e-50)))


def damped_sweeps(spec, start, tol=1e-6, damping=0.5):
    """The solver this package used before the aggregate root: damped
    synchronous best-response sweeps x <- (1 - damping)*x + damping*BR(x)
    from one start, until no coordinate moves by tol."""
    x, game = start, stack_game(spec)
    for _ in range(10_000):
        x_next = (1 - damping) * x + damping * br_profile(x, game)
        change, x = np.abs(x_next - x).max(), x_next
        if change < tol:
            return x
    raise AssertionError("the sweeps did not converge")


class TestSolveNash:
    def test_matches_one_start_at_a_time(self, game):
        # the damped sweeps, run from each start on its own, land on x*
        sol = solve_nash(game)
        for start in np.random.default_rng(7).random((5, game.K, game.M)):
            assert np.abs(damped_sweeps(game, start) - sol.x_star).max() < 1e-5
        assert sol.converged
        assert isinstance(sol.eps_gap, float)

    def test_damped_sweeps_land_on_x_star_of_random_games(self, rng):
        for _ in range(30):
            K, M = rng.integers(1, 6, size=2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = GameSpec(1.0 - rng.uniform(0.0, 0.5, (K, M)),
                                *(1.0 - rng.random((2, K, M))))
            x = solve_nash(spec).x_star
            assert np.abs(damped_sweeps(spec, rng.random((K, M))) - x).max() < 1e-5

    @settings(deadline=None, max_examples=200)
    @given(games())
    def test_the_root_is_bracketed_and_certified(self, spec):
        # F <= 0 at the bracket's right end K + barrier holds by the sum of
        # K requests of at most 1 each, rounding aside
        sol = solve_nash(spec)
        s = sol.aggregate
        assert sol.converged
        assert epsilon_gap(sol.x_star, spec) <= 1e-12
        assert np.all(excess(np.nextafter(s, 0.0), spec) >= 0.0)
        assert np.all((excess(s, spec) <= 0.0) | (s == spec.K + spec.barrier))
        assert np.array_equal(
            sol.x_star, aggregate_requests(s, spec.rho, spec.eps, spec.kappa)[0])

    @settings(deadline=None, max_examples=100)
    @given(games(K=st.just(1)))
    def test_one_node_best_responds_to_no_others(self, spec):
        alone = task_best_response(0.0, spec.rho, spec.eps, spec.kappa, spec.barrier,
                                   best_response_terms(spec.rho, spec.eps, spec.kappa))
        assert np.abs(solve_nash(spec).x_star - alone).max() <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(games())
    def test_no_share_rises_with_the_aggregate(self, spec):
        s = np.linspace(spec.barrier, spec.K + spec.barrier, 500)[:, None, None]
        share = aggregate_requests(s, spec.rho, spec.eps, spec.kappa)[0] / s
        assert np.diff(share, axis=0).max() <= 1e-15

    def test_brackets_close_in_14_steps_of_16_pieces(self, game1, game2):
        # four bits of s* per step, from a bracket K wide to adjacent floats
        assert (solve_nash(game1).iterations, solve_nash(game2).iterations) == (14, 14)


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
