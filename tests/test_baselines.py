"""Full-information baselines: the one-dimensional maximizer, best-response
profiles, projected gradient play, and random selection."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogbandit.errors import ConfigurationError, ProtocolError
from fogbandit.game import (GameSpec, best_response_terms, stack_game,
                            task_best_response, task_gradient, task_utility)
from fogbandit.strategies import BrBank, GpBank, RsBank, br_profile, golden_max


def br_row(k, others, spec, own=0.5):
    """Node k's best-response row against the others' rows, read off
    br_profile on the full profile (own row set to `own`)."""
    return br_profile(np.insert(others, k, own, axis=0), stack_game(spec))[k]


class TestGoldenMax:
    def test_agrees_with_dense_grid_scan(self, game1, rng):
        for _ in range(50):
            xo = float(rng.uniform(0, 1))
            k, m = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            args = (game1.rho[k, m], game1.eps[k, m], game1.kappa[k, m],
                    game1.barrier)

            def f(z):
                return task_utility(float(z), xo, *args)

            best = golden_max(lambda z: np.vectorize(f)(z), ())
            grid = np.linspace(0, 1, 10_001)
            dense = grid[np.argmax([task_utility(g, xo, *args) for g in grid])]
            # the 1e-4 grid step brackets the 1e-8 golden-section answer
            assert abs(float(best) - dense) < 2e-4

    def test_vectorized_matches_scalar(self, rng):
        def f(z):
            return -(z - 0.37) ** 2

        single = float(golden_max(f, ()))
        batch = golden_max(f, (3, 2))
        assert single == pytest.approx(0.37, abs=1e-7)
        assert np.allclose(batch, single)

    def test_one_new_probe_per_iteration(self):
        # two initial probes, then one per iteration: 2 + 40 for tol 1e-8
        calls = []

        def f(z):
            calls.append(z.shape)
            return -(z - 0.37) ** 2

        golden_max(f, (4, 3))
        assert len(calls) == 42
        assert set(calls) == {(4, 3)}


@st.composite
def game_profile_and_row(draw):
    """A game of 2 x 1 up to 4 x 3, a profile on the 1/8 grid, a node and a
    new row for it on the same grid (sums of eighths are exact)."""
    K, M = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    unit = hnp.arrays(float, (K, M), elements=st.floats(0.0, 1.0, exclude_min=True))
    # GameSpec's floor on rho is 1e-100
    rho = hnp.arrays(float, (K, M), elements=st.floats(1e-100, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = GameSpec(rho=draw(rho), eps=draw(unit), kappa=draw(unit))
    eighths = st.integers(0, 8)
    x = draw(hnp.arrays(np.int64, (K, M), elements=eighths)) / 8
    row = draw(hnp.arrays(np.int64, M, elements=eighths)) / 8
    return spec, x, draw(st.integers(0, K - 1)), row


class TestBestResponse:
    def test_prohibitive_cost_gives_zero(self, game1):
        # The utility is concave in the own action and its slope at x=0 is
        # 1/(o+d) + eps - kappa, so the best response is 0 exactly when the
        # others' sum o >= 1/(kappa-eps) - d.  For node 0, task 1 of game1
        # that is o >= 1/(0.8-0.03) - 1e-6 = 1.2987, which needs K >= 3:
        # add a copy of node 1 as a third node.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            game3 = GameSpec(
                rho=np.vstack([game1.rho, game1.rho[1]]),
                eps=np.vstack([game1.eps, game1.eps[1]]),
                kappa=np.vstack([game1.kappa, game1.kappa[1]]),
                barrier=game1.barrier,
            )
        k, m = 0, 1
        args = (game3.rho[k, m], game3.eps[k, m], game3.kappa[k, m],
                game3.barrier)
        threshold = 1 / (game3.kappa[k, m] - game3.eps[k, m]) - game3.barrier
        assert 1.25 < threshold < 2.0
        assert task_gradient(0.0, 2.0, *args) < 0 < task_gradient(0.0, 1.25, *args)

        # others' sum o = 2 lies above the threshold: the cost prices node 0 out
        row = br_row(k, np.array([[0.0, 1.0], [0.0, 1.0]]), game3)
        assert row[m] == pytest.approx(0.0, abs=1e-6)

        # o = 1.25 lies below it: the slope at zero is positive, so is the BR
        row = br_row(k, np.array([[0.0, 0.625], [0.0, 0.625]]), game3)
        assert row[m] > 1e-3

    def test_interior_point_matches_gradient_root(self, game1):
        # node 1, task 0 has an interior maximizer; bisect the gradient
        xo = 1.0
        k, m = 1, 0
        args = (game1.rho[k, m], game1.eps[k, m], game1.kappa[k, m],
                game1.barrier)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if task_gradient(mid, xo, *args) > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        row = br_row(k, np.array([[1.0, 0.0]]), game1)
        assert row[0] == pytest.approx(root, abs=1e-6)

    def test_matches_fine_grid_scan(self, game1, rng):
        grid = np.linspace(0.0, 1.0, 100_001)
        for _ in range(10):
            others = rng.random((1, 2))
            k = int(rng.integers(0, 2))
            row = br_row(k, others, game1)
            for m in range(2):
                args = (game1.rho[k, m], game1.eps[k, m], game1.kappa[k, m],
                        game1.barrier)
                vals = args[0] * (1 - np.exp(-grid / (args[0] * (grid + others[0, m] + args[3])))) \
                    + args[1] * (grid + others[0, m]) - args[2] * grid
                assert abs(row[m] - grid[np.argmax(vals)]) < 1e-5

    @settings(deadline=None, max_examples=30)
    @given(game_profile_and_row())
    def test_profile_form_consistent_with_rows(self, case):
        # row k answers the others' rows only: replacing row k leaves it be
        # (dyadic entries keep the column sums minus row k exact)
        spec, x, k, row = case
        moved = x.copy()
        moved[k] = row
        game = stack_game(spec)
        assert np.allclose(br_profile(x, game)[k], br_profile(moved, game)[k],
                           atol=1e-12)


class TestClosedFormBestResponse:
    """task_best_response against a golden-section search of the same
    utility, over GameSpec's domain with up to ten nodes."""

    @settings(deadline=None, max_examples=300)
    @given(others=st.floats(0.0, 9.0), rho=st.floats(1e-100, 1.0),
           eps=st.floats(0.0, 1.0, exclude_min=True),
           kappa=st.floats(0.0, 1.0, exclude_min=True),
           barrier=st.floats(1e-50, 1e-2))
    def test_maximizes_the_utility_on_the_unit_interval(self, others, rho, eps,
                                                        kappa, barrier):
        args = (rho, eps, kappa, barrier)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = float(task_best_response(others, *args,
                                         best_response_terms(rho, eps, kappa)))
        assert 0.0 <= z <= 1.0
        # golden's z may differ where the utility is flat; its value may not
        searched = golden_max(lambda y: task_utility(y, others, *args), ())
        assert (task_utility(z, others, *args)
                >= task_utility(searched, others, *args) - 1e-14)
        # the corners are decided by the slopes alone
        assert (z == 0.0) == (task_gradient(0.0, others, *args) <= 0.0)
        assert (z == 1.0) == (task_gradient(1.0, others, *args) >= 0.0
                              or kappa <= eps)


def gp_single(x0, eta=0.5):
    """A 1 x 1 gradient-play bank of one replica started at x0."""
    bank = GpBank(GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]]), T=100,
                  rngs=[np.random.default_rng(0)], eta=eta)
    bank.x[0, 0, 0] = x0
    return bank


def gp_step(bank, gradient):
    bank.act()
    bank.observe(np.array([[[gradient]]]))
    return bank.x[0, 0, 0]


class TestGradientPlay:
    def test_zero_gradient_keeps_action(self):
        bank = gp_single(0.4, eta=0.5)
        assert gp_step(bank, 0.0) == 0.4 and bank.t == 2

    def test_projection_at_boundaries(self):
        assert gp_step(gp_single(1.0), 10.0) == 1.0
        assert gp_step(gp_single(0.0), -10.0) == 0.0

    def test_step_size_decays(self):
        bank = gp_single(0.5, eta=0.4)
        gp_step(bank, 0.1)      # moves by 0.4 * 0.1
        assert bank.x[0, 0, 0] == pytest.approx(0.54)
        gp_step(bank, 0.1)      # moves by 0.4/sqrt(2) * 0.1
        assert bank.x[0, 0, 0] == pytest.approx(0.54 + 0.4 / np.sqrt(2) * 0.1)

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_bank_rejects_non_positive_step(self, game1, eta):
        with pytest.raises(ConfigurationError, match="eta"):
            GpBank(game1, T=100, rngs=[np.random.default_rng(0)], eta=eta)

    def test_observe_needs_a_preceding_act(self, game1):
        bank = GpBank(game1, T=100, rngs=[np.random.default_rng(0)])
        bank.act()
        bank.observe(np.zeros((1, 2, 2)))
        with pytest.raises(ProtocolError, match="without a preceding act"):
            bank.observe(np.zeros((1, 2, 2)))

    def test_bank_all_play_converges_to_equilibrium(self, game1):
        from fogbandit import solve_nash
        from fogbandit.game import gradient_matrix
        sol = solve_nash(game1)
        bank = GpBank(game1, T=10_000, rngs=[np.random.default_rng(3)])
        for t in range(10_000):
            x = bank.act()
            bank.observe(gradient_matrix(x, game1))
        assert np.abs(bank.x[0] - sol.x_star).max() < 1e-2


class TestOtherBanks:
    def test_br_bank_fixed_point_is_equilibrium(self, game1):
        from fogbandit import epsilon_gap
        bank = BrBank(game1, T=100, rngs=[np.random.default_rng(0)])
        for _ in range(60):
            bank.observe(br_profile(bank.act(), stack_game(game1)))
        assert epsilon_gap(bank.x[0], game1) < 1e-6

    def test_rs_bank_uniform_range(self, game1):
        bank = RsBank(game1, T=10, rngs=[np.random.default_rng(1)])
        xs = np.stack([bank.act()[0] for _ in range(2000)])
        assert xs.min() >= 0.0 and xs.max() < 1.0
        assert abs(xs.mean() - 0.5) < 0.02
