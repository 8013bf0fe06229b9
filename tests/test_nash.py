"""Equilibrium solving and the unilateral-deviation gap."""

import pytest

from fogbandit.errors import EquilibriumError
from fogbandit.game import utility_matrix
from fogbandit.nash import deviation_utilities, epsilon_gap, solve_nash
from fogbandit.strategies import br_profile


@pytest.fixture(params=["game1", "game2"])
def game(request):
    return request.getfixturevalue(request.param)


class TestDeviationUtilities:
    def test_equals_utility_with_own_row_best_responding(self, game, rng):
        for _ in range(5):
            x = rng.random((game.K, game.M))
            dev = deviation_utilities(x, game)
            br = br_profile(x, game)
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


class TestSolveNash:
    def test_one_sweep_cannot_certify_uniqueness(self, game1):
        with pytest.raises(EquilibriumError):
            solve_nash(game1, max_sweeps=1)
