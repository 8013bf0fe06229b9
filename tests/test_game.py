"""Core game math: allocation, utilities, derivatives, curvature and the
uniqueness certificate. High-precision expected values are computed with
mpmath inside each test, independently of the float implementation. The
allocation is the engine's, read off run_round (the `allocate` fixture)."""

import json
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import wrightomega

from fogbandit import (GameSpec, estimate_bounds, game, gradient_matrix,
                       hessian_others, hessian_own, load_dataset, select_subgame,
                       task_utility, utility_matrix)
from fogbandit.errors import ConfigurationError
from fogbandit.game import (aggregate_requests, best_response_terms, stack_game,
                            task_best_response, task_gradient)
from fogbandit.nash import deviation_utilities
from fogbandit.strategies import br_profile

mp.mp.dps = 40


def curvature(kernel, k, m, x, spec):
    """A curvature kernel at entry (k, m) of profile x."""
    x = np.asarray(x, dtype=float)
    return kernel(x[k, m], x.sum(axis=0)[m] - x[k, m], spec.rho[k, m],
                  spec.barrier)


def one_shot_bounds(spec):
    """estimate_bounds' grid scanned in one kernel call per bound, every
    (node, task) plane on the last axis."""
    xg = np.linspace(0.0, 1.0, game.GRID_RESOLUTION)[:, None, None]
    og = np.linspace(0.5, max(spec.K - 1.0, 0.5), game.GRID_RESOLUTION)[None, :, None]
    rho, eps, kappa = (a.ravel() for a in (spec.rho, spec.eps, spec.kappa))
    d = spec.barrier

    def peak(values):
        return 1.1 * float(np.abs(values).max())

    return game.Bounds(L=peak(task_gradient(xg, og, rho, eps, kappa, d)),
                       U=peak(task_utility(xg, og, rho, eps, kappa, d)),
                       H=max(peak(hessian_own(xg, og, rho, d)),
                             peak(hessian_others(xg, og, rho, d))))


def log_uniform(low, high=1.0):
    """Floats spread evenly in log scale over [low, high]."""
    return st.floats(np.log10(low), np.log10(high)).map(
        lambda e: min(max(10.0 ** e, low), high))


def unit_index():
    """eps and kappa values: anywhere in (0, 1], near 0 included."""
    return st.one_of(st.floats(0.0, 1.0, exclude_min=True), log_uniform(1e-300))


def draw_small_game(data):
    """A game of at most 6 x 6 from GameSpec's whole domain; rho from a pool
    of at most three, so planes repeat and the curvatures run on fewer planes
    than the gradient; K = 1 collapses the others' axis."""
    K, M = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    pool = data.draw(st.lists(log_uniform(1e-100), min_size=1, max_size=3))
    rho = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=K * M,
                                      max_size=K * M))).reshape(K, M)
    eps, kappa = (data.draw(hnp.arrays(float, (K, M), elements=unit_index()))
                  for _ in range(2))
    barrier = data.draw(log_uniform(1e-50, 1e-2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GameSpec(rho=rho, eps=eps, kappa=kappa, barrier=barrier)


def mp_task_utility(x, xo, rho, eps, kappa, d):
    x, xo, rho, eps, kappa, d = map(mp.mpf, map(str, (x, xo, rho, eps, kappa, d)))
    s = x + xo + d
    return rho * (1 - mp.e ** (-x / (rho * s))) + eps * (x + xo) - kappa * x


def mp_curvature(own, others, rho, d, wrt):
    """Second derivative of mp_task_utility in the own action (wrt=0) or in
    the others' sum (wrt=1), by mpmath's numerical differentiation."""
    point = [mp.mpf(str(own)), mp.mpf(str(others))]

    def utility(z):
        args = list(point)
        args[wrt] = z
        return mp_task_utility(*args, rho, 0.5, 0.5, d)

    return mp.diff(utility, point[wrt], 2)


@pytest.fixture(scope="module")
def game20():
    """A random 20 x 20 game: a grid of 400 (node, task) planes."""
    rng = np.random.default_rng(20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GameSpec(*(rng.uniform(0.05, 1.0, (20, 20)) for _ in range(3)))


class TestGameSpec:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ConfigurationError):
            GameSpec(rho=[[0.0]], eps=[[0.1]], kappa=[[0.1]])
        with pytest.raises(ConfigurationError):
            GameSpec(rho=[[0.9]], eps=[[1.5]], kappa=[[0.1]])
        with pytest.raises(ConfigurationError):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[-0.2]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            GameSpec(rho=[[0.9, 0.8]], eps=[[0.1]], kappa=[[0.1]])

    @pytest.mark.parametrize("rho,detail", [
        ([["a"]], "could not convert string to float: 'a'"),
        ([[0.9, 0.8], [0.7]], "inhomogeneous shape"),
        ([[{}]], "float() argument must be"),
    ])
    def test_rejects_entries_that_are_not_numbers(self, rho, detail):
        with pytest.raises(ConfigurationError,
                           match=r"^rho must be a matrix of numbers: ") as info:
            GameSpec(rho=rho, eps=[[0.1]], kappa=[[0.1]])
        assert detail in str(info.value)

    def test_rejects_empty_index_matrix(self):
        # a game with K = 0 has no equilibrium to solve
        with pytest.raises(ConfigurationError, match=r"rho is empty, shape \(0, 2\)"):
            GameSpec(rho=np.zeros((0, 2)), eps=np.zeros((0, 2)),
                     kappa=np.zeros((0, 2)))

    @pytest.mark.parametrize("rho,shape", [([0.9, 0.8], r"\(2,\)"),
                                           ([[[0.9]]], r"\(1, 1, 1\)")])
    def test_rejects_index_matrix_that_is_not_two_dimensional(self, rho, shape):
        with pytest.raises(ConfigurationError,
                           match=rf"^rho must be a 2-D matrix, got shape {shape}$"):
            GameSpec(rho=rho, eps=[[0.1]], kappa=[[0.1]])

    def test_rejects_nan_index_entry(self):
        with pytest.raises(ConfigurationError,
                           match=r"^eps contains non-finite entries$"):
            GameSpec(rho=[[0.9]], eps=[[float("nan")]], kappa=[[0.1]])

    def test_rejects_bad_barrier_and_noise(self):
        with pytest.raises(ConfigurationError):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]], barrier=0.0)
        with pytest.raises(ConfigurationError):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]], noise_std=-1.0)

    @pytest.mark.parametrize("field", ["barrier", "noise_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_barrier_and_noise(self, field, value):
        # nan passed both sign checks and switched the noise off silently
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be finite and >=? 0, got {value}$"):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]], **{field: value})

    @pytest.mark.parametrize("field", ["barrier", "noise_std"])
    @pytest.mark.parametrize("value", [None, "abc", True, [0.1]])
    def test_rejects_barrier_and_noise_that_are_not_numbers(self, field, value):
        # None raised a TypeError, "abc" a ValueError naming no field, and
        # True was read as 1.0
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be a number, got "):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]], **{field: value})

    @pytest.mark.parametrize("barrier", [1e-51, 1e-170, 1e-300])
    def test_rejects_barrier_below_the_floor(self, barrier):
        with pytest.raises(ConfigurationError,
                           match=rf"^barrier must be >= 1e-50, got {barrier}$"):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]], barrier=barrier)

    @pytest.mark.parametrize("noise_std", [1e101, 1e300, 1e308])
    def test_rejects_noise_above_the_ceiling(self, noise_std):
        # 1e308 failed mid-run: a FeedbackError for lbwi and llr, and a nan
        # action for bgam
        with pytest.raises(ConfigurationError,
                           match=rf"^noise_std must be <= 1e100, got "
                                 rf"{re.escape(str(noise_std))}$"):
            GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]], noise_std=noise_std)
        assert GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]],
                        noise_std=1e100).noise_std == 1e100

    def test_kernels_are_finite_at_the_barrier_floor(self):
        # an empty column divides by powers of the barrier: below about
        # 1e-56 the curvatures were nan there at rho = 1e-100
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=[[1e-100, 1e-50, 0.5, 1.0]], eps=[[0.5] * 4],
                            kappa=[[0.5] * 4], barrier=1e-50)
        grid = np.linspace(0.0, 1.0, 101)
        own, others, rho = np.meshgrid(grid, grid, spec.rho[0], indexing="ij")
        d = spec.barrier
        for values in (task_utility(own, others, rho, 0.5, 0.5, d),
                       task_gradient(own, others, rho, 0.5, 0.5, d),
                       hessian_own(own, others, rho, d),
                       hessian_others(own, others, rho, d)):
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("rho", [9.9e-101, 1e-300, 1e-310, 5e-324])
    def test_rejects_rho_below_the_floor(self, rho):
        # rho = 1e-308 gave nan kernels, and estimate_bounds failed with H=nan
        with pytest.raises(ConfigurationError,
                           match=rf"^rho entries must be >= 1e-100, got {rho}$"):
            GameSpec(rho=[[0.9, rho]], eps=[[0.1, 0.1]], kappa=[[0.1, 0.1]])

    def test_kernels_and_bounds_are_finite_at_the_rho_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=[[1e-100]], eps=[[0.5]], kappa=[[0.5]])
        grid = np.linspace(0.0, 1.0, 101)
        own, others = np.meshgrid(grid, grid, indexing="ij")
        rho, d = spec.rho[0, 0], spec.barrier
        for values in (task_utility(own, others, rho, 0.5, 0.5, d),
                       task_gradient(own, others, rho, 0.5, 0.5, d),
                       hessian_own(own, others, rho, d),
                       hessian_others(own, others, rho, d)):
            assert np.all(np.isfinite(values))
        bounds = estimate_bounds(spec)
        assert np.all(np.isfinite([bounds.L, bounds.U, bounds.H]))

    def test_warns_on_low_efficiency_but_accepts(self):
        with pytest.warns(UserWarning, match=r"where 2\*rho\*\(1 \+ barrier\) < 1"):
            spec = GameSpec(rho=[[0.4]], eps=[[0.1]], kappa=[[0.1]])
        assert spec.K == 1 and spec.M == 1

    @pytest.mark.parametrize("barrier", [1e-50, 1e-6, 1e-3, 0.25, 1.0, 7.0])
    def test_warns_exactly_below_half_over_one_plus_barrier(self, barrier):
        edge = 0.5 / (1.0 + barrier)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GameSpec(rho=[[1.0, edge]], eps=[[0.1] * 2], kappa=[[0.1] * 2],
                     barrier=barrier)
        with pytest.warns(UserWarning) as caught:
            GameSpec(rho=[[1.0, np.nextafter(edge, 0.0)]], eps=[[0.1] * 2],
                     kappa=[[0.1] * 2], barrier=barrier)
        assert [str(w.message) for w in caught] == [
            "utility not convex in others' actions where 2*rho*(1 + barrier) < 1, "
            "at (node, task) pairs [(0, 1)]"]

    @pytest.mark.parametrize("barrier", [1e-6, 1e-3, 0.25, 1.0])
    def test_the_warning_marks_where_hessian_others_turns_negative(self, barrier):
        # the curvature's least value on the box is at x_own = 1, x_others = 0
        edge = 0.5 / (1.0 + barrier)
        own, others = np.meshgrid(np.linspace(0.0, 1.0, 101),
                                  np.linspace(0.0, 3.0, 101), indexing="ij")
        assert hessian_others(own, others, edge * (1.0 + 1e-9), barrier).min() >= 0.0
        assert hessian_others(1.0, 0.0, edge * (1.0 - 1e-9), barrier) < 0.0

    def test_json_round_trip_is_identity(self, game1, tmp_path):
        path = tmp_path / "game1.json"
        path.write_text(game1.to_json())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = select_subgame(load_dataset(path))
        assert np.array_equal(back.rho, game1.rho)
        assert np.array_equal(back.eps, game1.eps)
        assert np.array_equal(back.kappa, game1.kappa)
        assert back.barrier == game1.barrier
        assert back.noise_std == game1.noise_std
        assert json.loads(path.read_text())["K"] == 2
        assert json.loads(path.read_text())["M"] == 2

    def test_json_names_a_missing_field(self, game1, tmp_path):
        doc = json.loads(game1.to_json())
        del doc["rho"], doc["kappa"]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="lacks rho, kappa$"):
            load_dataset(path)

    def test_json_must_be_an_object(self, game1, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps([json.loads(game1.to_json())]))
        with pytest.raises(ConfigurationError, match="must be a JSON object, "
                                                     "got a JSON list"):
            load_dataset(path)

    def test_json_rejects_inconsistent_shape_declaration(self, game1, tmp_path):
        # checked against the full matrices, before any selection
        path = tmp_path / "game.json"
        for key in ("K", "M"):
            path.write_text(json.dumps({**json.loads(game1.to_json()), key: 5}))
            with pytest.raises(ConfigurationError,
                               match=f"declared {key}=5 does not match matrix shape"):
                load_dataset(path)


class TestAllocate:
    def test_symmetric_column_splits_evenly(self, game1, allocate):
        a = allocate([[0.5, 0.0], [0.5, 0.0]], game1)
        assert a[0, 0] == a[1, 0]
        assert a[0, 0] == pytest.approx(0.5, abs=1e-5)

    def test_zero_column_allocates_nothing(self, game1, allocate):
        a = allocate(np.zeros((2, 2)), game1)
        assert np.all(a == 0.0)

    def test_single_requester_value(self, game1, allocate):
        # x column (1, 0) with barrier 1e-6: share = 1/(1 + 1e-6)
        expected = mp.mpf(1) / (1 + mp.mpf("1e-6"))
        a = allocate([[1.0, 0.0], [0.0, 0.0]], game1)
        assert a[0, 0] == pytest.approx(float(expected), rel=1e-14)
        assert a[1, 0] == 0.0

    def test_column_sums_conserved(self, game1, rng, allocate):
        for _ in range(200):
            x = rng.random((2, 2))
            a = allocate(x, game1)
            s = x.sum(axis=0)
            assert np.allclose(a.sum(axis=0), s / (s + game1.barrier), rtol=1e-12)
            assert np.all(a.sum(axis=0) <= 1.0)
            assert np.all((a >= 0.0) & (a < 1.0))


def reward(share, rho):
    """The completion-reward term rho*(1 - exp(-share/rho)) of task_utility:
    no power or cost term, no barrier, and a column total of 1 so the own
    request is the share."""
    return task_utility(share, 1.0 - share, rho, 0.0, 0.0, barrier=0.0)


class TestRewardAndUtility:
    def test_zero_share_zero_reward(self):
        for rho in (0.1, 0.5, 0.9, 1.0):
            assert reward(0.0, rho) == 0.0

    @pytest.mark.parametrize("share,rho", [(1.0, 0.9), (0.5, 0.5)])
    def test_reward_matches_high_precision(self, share, rho):
        expected = mp.mpf(str(rho)) * (1 - mp.e ** (-mp.mpf(str(share)) / mp.mpf(str(rho))))
        assert reward(share, rho) == pytest.approx(float(expected), rel=1e-14)

    def test_reward_increasing_and_concave(self, rng):
        rho = 0.7
        grid = np.linspace(0.0, 1.0, 101)
        vals = reward(grid, rho)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 0)

    def test_task_utility_zero_own_action(self):
        # no reward, no cost; only the power term eps * column total
        got = task_utility(0.0, 1.0, 0.9, 0.1, 0.1, barrier=1e-12)
        assert got == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("x,xo,rho,eps,kappa", [
        (1.0, 0.0, 0.9, 0.1, 0.1),
        (0.5, 0.5, 0.9, 0.1, 0.1),
    ])
    def test_task_utility_matches_high_precision(self, x, xo, rho, eps, kappa):
        expected = float(mp_task_utility(x, xo, rho, eps, kappa, "1e-6"))
        got = task_utility(x, xo, rho, eps, kappa, barrier=1e-6)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_total_utility_zero_profile(self, game1):
        assert np.all(utility_matrix(np.zeros((2, 2)), game1).sum(axis=1) == 0.0)

    def test_total_utility_corner_profile(self, game1):
        # node 0 at x=(1,0) against node 1 at (0,1): reward on task 0 plus the
        # power term of the other node's task-1 demand
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = (mp_task_utility(1, 0, 0.9, 0.1, 0.1, "1e-6")
                    + mp_task_utility(0, 1, 0.5, 0.03, 0.8, "1e-6"))
        assert utility_matrix(x, game1)[0].sum() == pytest.approx(float(expected),
                                                                rel=1e-12)

    def test_single_task_equals_task_utility(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=[[0.7], [0.6]], eps=[[0.1], [0.2]],
                            kappa=[[0.3], [0.4]])
        x = np.array([[0.4], [0.3]])
        assert utility_matrix(x, spec)[0].sum() == task_utility(
            0.4, 0.3, 0.7, 0.1, 0.3, spec.barrier)


class TestGradient:
    def test_no_others_reduces_to_net_margin(self):
        # with nothing to share the reward term's slope collapses to ~barrier
        g = task_gradient(0.5, 0.0, 0.9, 0.07, 0.3, barrier=1e-12)
        assert g == pytest.approx(0.07 - 0.3, abs=1e-9)

    def test_interior_value_matches_high_precision(self):
        x, xo, rho = map(mp.mpf, ("0.5", "0.5", "0.9"))
        d = mp.mpf("1e-6")
        s = x + xo + d
        expected = (xo + d) * mp.e ** (-x / (rho * s)) / s ** 2  # eps == kappa
        got = task_gradient(0.5, 0.5, 0.9, 0.1, 0.1, barrier=1e-6)
        assert got == pytest.approx(float(expected), rel=1e-13)
        # the barrier-free limit of the same quantity, for scale
        assert got == pytest.approx(float(mp.mpf("0.5") * mp.e ** (-mp.mpf(5) / 9)),
                                    rel=1e-4)

    def test_matches_central_finite_difference(self, game1, rng):
        h = 1e-5
        for _ in range(100):
            x = 0.05 + 0.9 * rng.random((2, 2))
            k = int(rng.integers(0, 2))
            grad = gradient_matrix(x, game1)[k]
            for m in range(2):
                hi = x.copy(); hi[k, m] += h
                lo = x.copy(); lo[k, m] -= h
                fd = (utility_matrix(hi, game1)[k].sum()
                      - utility_matrix(lo, game1)[k].sum()) / (2 * h)
                assert abs(grad[m] - fd) / abs(fd) < 1e-5

    def test_matrix_form_agrees_with_scalar(self, game1, rng):
        x = rng.random((2, 2))
        gm = gradient_matrix(x, game1)
        col = x.sum(axis=0)
        for k in range(2):
            assert np.allclose(gm[k], task_gradient(
                x[k], col - x[k], game1.rho[k], game1.eps[k], game1.kappa[k],
                game1.barrier), rtol=1e-12)
        um = utility_matrix(x, game1)
        for k in range(2):
            for m in range(2):
                assert um[k, m] == pytest.approx(task_utility(
                    x[k, m], col[m] - x[k, m], game1.rho[k, m], game1.eps[k, m],
                    game1.kappa[k, m], game1.barrier), rel=1e-12)


def all_elements_best_response(x_others, rho, eps, kappa, barrier, terms):
    """task_best_response with omega taken on every element, the corners
    then overwriting their roots."""
    log_c, half_inv_rho, log_2rho = terms
    b = x_others + barrier
    v = 2.0 * wrightomega(0.5 * (log_c + np.log(b)) + half_inv_rho - log_2rho)
    root = np.minimum(np.maximum(b / (rho * v) - b, np.nextafter(0.0, 1.0)),
                      np.nextafter(1.0, 0.0))
    at_0 = b / (b * b) + eps - kappa <= 0.0
    at_1 = task_gradient(1.0, x_others, rho, eps, kappa, barrier) >= 0.0
    return np.where(at_0, 0.0, np.where(at_1, 1.0, root))


@st.composite
def best_response_cases(draw):
    """task_best_response's arguments over GameSpec's domain, scalars or a
    stack of up to 3 x 4 x 3: rho down to 1e-100, a barrier down to 1e-50,
    some entries with kappa <= eps and some others' sums of 0."""
    shape = draw(st.sampled_from(((), (4,), (3, 4, 3))))
    rho = draw(hnp.arrays(float, shape, elements=log_uniform(1e-100)))
    eps, kappa = (draw(hnp.arrays(float, shape, elements=unit_index()))
                  for _ in range(2))
    kappa = np.where(draw(hnp.arrays(bool, shape)), np.minimum(kappa, eps), kappa)
    others = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 9.0)))
    others = np.where(draw(hnp.arrays(bool, shape)), 0.0, others)
    if shape == ():
        rho, eps, kappa, others = (float(a) for a in (rho, eps, kappa, others))
    return others, rho, eps, kappa, draw(log_uniform(1e-50))


class TestBestResponseKernel:
    @settings(deadline=None, max_examples=300)
    @given(best_response_cases())
    def test_equals_the_all_elements_formula_bitwise(self, case):
        others, rho, eps, kappa, barrier = case
        terms = best_response_terms(rho, eps, kappa)
        got = task_best_response(others, rho, eps, kappa, barrier, terms)
        want = all_elements_best_response(others, rho, eps, kappa, barrier, terms)
        assert np.shape(got) == np.shape(want) == np.shape(others)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_omega_runs_only_where_the_best_response_is_interior(
            self, game2, rng, monkeypatch):
        masks = []

        def spy(z, **kwargs):
            masks.append(kwargs["where"])
            return wrightomega(z, **kwargs)
        monkeypatch.setattr(game, "wrightomega", spy)
        x = np.where(rng.random((5, game2.K, game2.M)) < 0.3, 0.0,
                     rng.random((5, game2.K, game2.M)))
        stacked = stack_game(game2, 5)
        others = x.sum(axis=-2, keepdims=True) - x
        args = (stacked.rho, stacked.eps, stacked.kappa, stacked.barrier)
        br = br_profile(x, stacked, others)
        b = others + stacked.barrier
        corner = ((b / (b * b) + stacked.eps - stacked.kappa <= 0.0)
                  | (task_gradient(1.0, others, *args) >= 0.0))
        [where] = masks
        assert np.array_equal(where, ~corner)
        assert corner.any() and not corner.all()
        assert np.array_equal(corner, (br == 0.0) | (br == 1.0))

    # the interior root of the 40-digit gradient, found by bisection: the
    # Wright-omega form is exact up to rounding, not to a search tolerance
    @pytest.mark.parametrize("others,rho,eps,kappa,barrier", [
        (1.0, 0.6, 0.05, 0.75, 1e-6), (0.3, 0.9, 0.1, 0.5, 1e-6),
        (2.5, 0.05, 0.2, 0.3, 1e-3), (0.0, 1e-3, 0.01, 0.02, 1e-6),
        (0.01, 0.5, 0.0001, 0.9, 1e-2),
    ])
    def test_interior_root_matches_high_precision(self, others, rho, eps, kappa,
                                                  barrier):
        z = float(game.task_best_response(others, rho, eps, kappa, barrier,
                                          game.best_response_terms(rho, eps, kappa)))
        xo, r, e, k, d = (mp.mpf(str(v)) for v in (others, rho, eps, kappa, barrier))
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(140):
            mid = (lo + hi) / 2
            s = mid + xo + d
            if (xo + d) * mp.e ** (-mid / (r * s)) / s**2 + e - k > 0:
                lo = mid
            else:
                hi = mid
        assert 0.0 < float(lo) < 1.0
        assert z == pytest.approx(float(lo), rel=1e-13, abs=1e-15)


class TestCurvature:
    def test_hessian_own_zero_without_others(self, game1):
        x = np.array([[0.7, 0.0], [0.0, 0.0]])
        h = curvature(hessian_own, 0, 0, x, game1)
        assert h == pytest.approx(0.0, abs=1e-5)

    def test_hessian_own_value(self, game1):
        x = np.array([[0.5, 0.0], [0.5, 0.0]])
        expected = mp_curvature(0.5, 0.5, 0.9, game1.barrier, wrt=0)
        h = curvature(hessian_own, 0, 0, x, game1)
        assert h == pytest.approx(float(expected), rel=1e-12)
        # reference scale: -e^{-5/9} * (1 + 0.25/0.9) in the barrier-free limit
        assert h == pytest.approx(-0.733129, abs=1e-4)

    def test_hessian_own_never_positive(self, game1, rng):
        for _ in range(300):
            x = rng.random((2, 2))
            k, m = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            assert curvature(hessian_own, k, m, x, game1) <= 1e-12

    def test_hessian_others_zero_without_own(self, game1):
        x = np.array([[0.0, 0.0], [0.8, 0.0]])
        assert curvature(hessian_others, 0, 0, x, game1) == 0.0

    def test_hessian_others_value(self, game1):
        x = np.array([[0.5, 0.0], [0.5, 0.0]])
        expected = mp_curvature(0.5, 0.5, 0.9, game1.barrier, wrt=1)
        h = curvature(hessian_others, 0, 0, x, game1)
        assert h == pytest.approx(float(expected), rel=1e-12)
        # e^{-5/9} * (2*0.9*0.25 + 0.8*0.25) / 0.9 in the barrier-free limit
        assert h == pytest.approx(0.414378, abs=1e-4)

    # (0.4, 0.7) and (0.1, 0.0) at rho 0.3, barrier 1e-3 are where a cross
    # term of 2*x_own*x_others, and x_others in place of x_others + barrier,
    # gave 0.335 for 0.0704 and 0 for -0.0728
    @pytest.mark.parametrize("own,others,rho,barrier", [
        (0.5, 0.5, 0.9, 1e-6), (0.4, 0.7, 0.3, 1e-3), (0.1, 0.0, 0.3, 1e-3),
        (0.0, 0.8, 0.6, 1e-6), (0.9, 2.5, 0.55, 1e-6), (0.02, 0.0, 0.9, 1e-5),
        (1.0, 4.0, 0.2, 1e-6),
    ])
    def test_kernels_are_second_derivatives_of_the_utility(self, own, others,
                                                          rho, barrier):
        for kernel, wrt in ((hessian_own, 0), (hessian_others, 1)):
            expected = mp_curvature(own, others, rho, barrier, wrt)
            assert kernel(own, others, rho, barrier) == pytest.approx(
                float(expected), rel=1e-12, abs=1e-15)

    def test_hessian_others_nonnegative_for_high_efficiency(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=np.full((2, 2), 0.6), eps=np.full((2, 2), 0.1),
                            kappa=np.full((2, 2), 0.1))
        for _ in range(300):
            x = rng.random((2, 2))
            k, m = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            assert curvature(hessian_others, k, m, x, spec) >= -1e-12


def rosen(x0, x1, spec):
    """Rosen's diagonal-strict-concavity (DSC) inner product with all-ones
    weights: (x1 - x0) . (grad(x1) - grad(x0)) over every (node, task)
    own-action coordinate (Rosen, Econometrica 1965). Negative for every
    distinct pair would certify a unique equilibrium; TestDscGap shows it
    negative only on the pairs it draws (on a 1/16 grid, one coordinate
    moved, rows swapped), and game1 has pairs off that grid where it is
    positive."""
    return float(((x1 - x0) * (gradient_matrix(x1, spec)
                               - gradient_matrix(x0, spec))).sum())


@st.composite
def game_and_pair(draw):
    """A game of up to 4 x 3 with every rho > 0.5 and two profiles on the
    1/16 grid, so a distinct pair differs by at least 1/16 somewhere."""
    K, M = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0, exclude_min=True)
    rho = draw(hnp.arrays(float, (K, M), elements=st.floats(0.5, 1.0,
                                                           exclude_min=True)))
    eps = draw(hnp.arrays(float, (K, M), elements=unit))
    kappa = draw(hnp.arrays(float, (K, M), elements=unit))
    grid = hnp.arrays(np.int64, (K, M), elements=st.integers(0, 16))
    return rho, eps, kappa, draw(grid) / 16, draw(grid) / 16


class TestDscGap:
    @settings(deadline=None)
    @given(game_and_pair())
    def test_random_pairs_are_negative(self, case):
        rho, eps, kappa, x0, x1 = case
        assume(not np.array_equal(x0, x1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=rho, eps=eps, kappa=kappa)
        assert rosen(x0, x1, spec) < 0.0

    def test_own_coordinate_moves_are_negative(self, game1, rng):
        for _ in range(100):
            x0 = rng.random((2, 2))
            x1 = x0.copy()
            k, m = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            x1[k, m] = rng.random()
            if x1[k, m] == x0[k, m]:
                continue
            assert rosen(x0, x1, game1) < 0.0

    def test_row_swap_is_negative(self, game1):
        # swapping two distinct rows keeps column sums but moves own actions
        x0 = np.array([[0.2, 0.7], [0.6, 0.1]])
        x1 = x0[::-1].copy()
        assert rosen(x0, x1, game1) < 0.0

    def test_game1_violates_dsc_where_a_node_faces_little_competition(self, game1):
        # the symmetrised Jacobian of the gradient, by central differences,
        # has a positive eigenvalue: on task 0 node 1 holds 95% of the
        # column, so its own curvature (-0.088) cannot outweigh the cross terms
        x = np.array([[0.0246, 1e-5], [0.4676, 1e-5]])
        h = 1e-7
        steps = np.eye(4).reshape(4, 2, 2) * h
        J = np.stack([(gradient_matrix(x + e, game1)
                       - gradient_matrix(x - e, game1)).ravel() / (2 * h)
                      for e in steps], axis=1)
        values, vectors = np.linalg.eigh((J + J.T) / 2)
        assert values[-1] == pytest.approx(0.0467, abs=1e-4)
        # so a short move along that eigenvector gives a positive product
        assert rosen(x, x + 1e-4 * vectors[:, -1].reshape(2, 2), game1) > 0.0


class TestEstimateBounds:
    def test_bounds_dominate_sampled_values(self, game1, rng, monkeypatch):
        monkeypatch.setattr(game, "GRID_RESOLUTION", 60)
        b = estimate_bounds(game1)
        for _ in range(200):
            x_own = rng.random()
            xo = 0.5 + 0.5 * rng.random()
            k, m = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            u = task_utility(x_own, xo, game1.rho[k, m], game1.eps[k, m],
                             game1.kappa[k, m], game1.barrier)
            g = task_gradient(x_own, xo, game1.rho[k, m], game1.eps[k, m],
                              game1.kappa[k, m], game1.barrier)
            assert b.U >= abs(u)
            assert b.L >= abs(g) * 0.999

    def test_lipschitz_capped_by_min_column_sum(self):
        # equal power and cost indices, competition fixed at one unit of
        # demand: the gradient magnitude cannot exceed 1/(min column sum)
        x_own = np.linspace(0.0, 1.0, 100)
        g = task_gradient(x_own, 1.0, rho=0.8, eps=0.2, kappa=0.2, barrier=1e-9)
        assert np.abs(g).max() <= 1.0 / 1.0 + 1e-9

    def test_game1_regression_triple(self, game1):
        assert game.GRID_RESOLUTION == 100
        b = estimate_bounds(game1)
        assert b.L == pytest.approx(2.364996, rel=1e-5)
        assert b.U == pytest.approx(0.800788, rel=1e-5)
        assert b.H == pytest.approx(17.599877, rel=1e-5)

    @pytest.mark.parametrize("name", ["game1", "game2", "game20"])
    def test_slabs_equal_a_one_shot_scan_bitwise(self, name, request):
        spec = request.getfixturevalue(name)
        assert estimate_bounds(spec) == one_shot_bounds(spec)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_repeated_rho_planes_equal_a_one_shot_scan_bitwise(self, data):
        spec = draw_small_game(data)
        assert estimate_bounds(spec) == one_shot_bounds(spec)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_the_shortcuts_for_l_and_h_hold_on_the_whole_grid(self, data):
        # L is read off the rows' ends and H off the first point of each
        # plane; a kernel edit that breaks either fact fails here by name
        spec = draw_small_game(data)
        G = game.GRID_RESOLUTION
        xg = np.linspace(0.0, 1.0, G)[:, None, None]
        og = np.linspace(0.5, max(spec.K - 1.0, 0.5), G)[None, :, None]
        rho, eps, kappa = (a.ravel() for a in (spec.rho, spec.eps, spec.kappa))
        d = spec.barrier
        gradient = task_gradient(xg, og, rho, eps, kappa, d)
        assert np.all(gradient[1:] <= gradient[:-1])
        own = np.abs(hessian_own(xg, og, rho, d))
        assert np.all(own <= own[0, 0])
        assert np.all(np.abs(hessian_others(xg, og, rho, d)) <= 4 / 9 * own[0, 0])

    @pytest.mark.parametrize("kernel,ceiling,n_indices", [
        (task_utility, game._utility_ceiling, 3),
    ])
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_ceiling_bounds_every_point_of_its_block(self, kernel, ceiling,
                                                     n_indices, data):
        # what a skipped block relies on, checked on blocks the floor may
        # never skip: the ceiling is at least the float |kernel| throughout
        G, B = game.GRID_RESOLUTION, game.BOUNDS_BLOCK
        K = data.draw(st.integers(1, 6))
        xg = np.linspace(0.0, 1.0, G)
        og = np.linspace(0.5, max(K - 1.0, 0.5), G)
        i, j = (B * data.draw(st.integers(0, (G - 1) // B)) for _ in range(2))
        x, o = xg[i:i + B], og[j:j + B]
        indices = (data.draw(log_uniform(1e-100)), data.draw(unit_index()),
                   data.draw(unit_index()))[:n_indices]
        d = data.draw(log_uniform(1e-50, 1e-2))
        values = np.abs(kernel(x[:, None], o[None, :], *indices, d))
        top = ceiling(x[0], x[-1], o[0], o[-1], *indices, d)
        assert top >= values.max()

    @pytest.mark.parametrize("name", ["game1", "game2"])
    def test_a_grid_of_partial_blocks_equals_a_one_shot_scan_bitwise(
            self, name, request, monkeypatch):
        # 57 points per axis: the last block of each axis holds 7
        monkeypatch.setattr(game, "GRID_RESOLUTION", 57)
        spec = request.getfixturevalue(name)
        assert estimate_bounds(spec) == one_shot_bounds(spec)

    @pytest.mark.parametrize("cap", [100, 2**20])
    @pytest.mark.parametrize("name", ["game1", "game2"])
    def test_any_slab_cap_equals_a_one_shot_scan_bitwise(self, name, cap, request,
                                                         monkeypatch):
        # 100 is one block per call; 2**20 takes the 10 x 10 dataset's
        # ceilings and blocks whole
        monkeypatch.setattr(game, "BOUNDS_SLAB_ELEMENTS", cap)
        spec = request.getfixturevalue(name)
        assert estimate_bounds(spec) == one_shot_bounds(spec)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(100, 2**20), st.integers(2, 100), st.data())
    def test_random_slab_caps_equal_a_one_shot_scan_bitwise(self, cap, G, data):
        # below 100 points per axis a slab holds more planes than a call
        # holds blocks, so the first round, one block per plane, can take
        # several calls; fewer than 10 points make one block per plane
        spec = draw_small_game(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "BOUNDS_SLAB_ELEMENTS", cap)
            patch.setattr(game, "GRID_RESOLUTION", G)
            assert estimate_bounds(spec) == one_shot_bounds(spec)

    @staticmethod
    def record_utility_blocks(monkeypatch, nan_at=None):
        """Patch task_utility to list each block it evaluates as (rho, eps,
        kappa, x0, o0), and to return nan at the grid point nan_at."""
        blocks = []

        def recorded(x, o, rho, eps, kappa, d, evaluate=game.task_utility):
            blocks.extend(zip(rho.ravel(), eps.ravel(), kappa.ravel(),
                              x[:, 0, 0], o[:, 0, 0]))
            values = evaluate(x, o, rho, eps, kappa, d)
            if nan_at is not None:
                at = np.ones(values.shape, bool)
                for arg, value in zip((x, o, rho, eps, kappa), nan_at):
                    at &= arg == value
                values = np.where(at, np.nan, values)
            return values
        monkeypatch.setattr(game, "task_utility", recorded)
        return blocks

    @pytest.mark.parametrize("nan_blocks", [slice(None, None, 3), slice(None)])
    def test_nan_ceilings_skip_nothing(self, game1, nan_blocks, monkeypatch):
        def ceiling(*args, bound=game._utility_ceiling):
            top = bound(*args).copy()
            top.reshape(top.shape[0], -1)[:, nan_blocks] = np.nan
            return top
        monkeypatch.setattr(game, "_utility_ceiling", ceiling)
        blocks = self.record_utility_blocks(monkeypatch)
        assert estimate_bounds(game1) == one_shot_bounds(game1)
        assert len(set(blocks)) == len(blocks)
        if nan_blocks == slice(None):
            G, B = game.GRID_RESOLUTION, game.BOUNDS_BLOCK
            assert len(blocks) == game1.rho.size * len(range(0, G, B))**2

    def test_a_nan_floor_evaluates_every_block_once(self, game1, monkeypatch):
        # nan at the grid's largest |utility|, whose block no ceiling skips
        G, B = game.GRID_RESOLUTION, game.BOUNDS_BLOCK
        xg = np.linspace(0.0, 1.0, G)
        og = np.linspace(0.5, max(game1.K - 1.0, 0.5), G)
        indices = [a.ravel() for a in (game1.rho, game1.eps, game1.kappa)]
        values = np.abs(task_utility(xg[:, None, None], og[None, :, None],
                                     *indices, game1.barrier))
        i, j, plane = np.unravel_index(values.argmax(), values.shape)
        blocks = self.record_utility_blocks(
            monkeypatch, (xg[i], og[j]) + tuple(a[plane] for a in indices))
        expected = one_shot_bounds(game1)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"L={expected.L!r}, U=nan, H={expected.H!r}")):
            estimate_bounds(game1)
        assert len(set(blocks)) == len(blocks)
        assert len(blocks) == game1.rho.size * len(range(0, G, B))**2

    def test_no_kernel_call_sees_more_than_a_slab(self, game2, game20, monkeypatch):
        kernels = ("task_utility", "task_gradient", "hessian_own", "hessian_others")
        sizes = {}
        for kernel in kernels:
            def recorded(*args, kernel=kernel, evaluate=getattr(game, kernel)):
                values = evaluate(*args)
                sizes[kernel].append(values.size)
                return values
            monkeypatch.setattr(game, kernel, recorded)

        def evaluations(spec):
            sizes.update((kernel, []) for kernel in kernels)
            estimate_bounds(spec)
            assert all(size <= game.BOUNDS_SLAB_ELEMENTS
                       for s in sizes.values() for size in s)
            return {kernel: sum(s) for kernel, s in sizes.items()}

        G = game.GRID_RESOLUTION
        evaluations(game20)
        # the 10 x 10 dataset: L reads two rows of G points per plane and H
        # one point per plane; the branch and bound for U evaluates 10,200
        # of its 10**6 points
        dataset = evaluations(game2)
        assert dataset["task_gradient"] == 2 * G * game2.rho.size
        assert dataset["hessian_own"] == game2.rho.size
        assert dataset["hessian_others"] == 0
        assert sum(dataset.values()) <= 31_000

    def test_peak_memory_does_not_grow_with_the_game(self, game20):
        # slabs peak near 0.9 MB here; the one-shot 100 x 100 x 400 grid
        # held 32 MB per temporary and peaked near 92 MB
        tracemalloc.start()
        try:
            estimate_bounds(game20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_lipschitz_bound_holds_on_samples(self, game1, rng):
        b = estimate_bounds(game1)
        for _ in range(300):
            xo = 0.5 + 0.5 * rng.random()
            x1, x2 = rng.random(), rng.random()
            k, m = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            args = (game1.rho[k, m], game1.eps[k, m], game1.kappa[k, m],
                    game1.barrier)
            u1 = task_utility(x1, xo, *args)
            u2 = task_utility(x2, xo, *args)
            assert abs(u1 - u2) <= b.L * abs(x1 - x2) + 1e-12


class TestKernels:
    @pytest.mark.parametrize("kernel,n_indices", [
        (task_utility, 3), (task_gradient, 3), (hessian_own, 1), (hessian_others, 1),
    ])
    def test_array_evaluation_matches_scalar(self, kernel, n_indices, game2, rng):
        # numpy's vector and scalar exp may disagree in the last bit, so the
        # entries are compared to a tolerance rather than bitwise
        x = rng.random((10, 10))
        others = x.sum(axis=0) - x
        indices = (game2.rho, game2.eps, game2.kappa)[:n_indices]
        array = kernel(x, others, *indices, game2.barrier)
        assert array.shape == (10, 10)
        for k, m in np.ndindex(x.shape):
            scalar = kernel(float(x[k, m]), float(others[k, m]),
                            *(float(a[k, m]) for a in indices), game2.barrier)
            assert array[k, m] == pytest.approx(scalar, rel=1e-14, abs=0.0)


class TestAggregateRequests:
    @settings(deadline=None, max_examples=150)
    @given(log_uniform(1e-100), unit_index(), unit_index(), log_uniform(1e-50, 10.0))
    def test_request_and_rest_match_mpmath(self, rho, eps, kappa, s):
        # 1 - share = rho*omega(ln(c*s/rho) + 1/rho) at 260 digits, enough
        # for the share's cancellation at rho = 1e-100; the rest is that
        # complement times s. The float kernel keeps relative precision in
        # both, even where either is near 1e-100. ln(c*s) rounds by about
        # 1e-15 where c*s is near 1, which moves the share by rho times that
        x, rest = aggregate_requests(s, rho, eps, kappa)
        with mp.workdps(260):
            c, S, r = mp.mpf(kappa) - mp.mpf(eps), mp.mpf(s), mp.mpf(rho)
            tau = (mp.mpf(0) if c <= 0 else mp.mpf(1) if c * S >= 1
                   else r * mp.lambertw(c * S * mp.exp(1 / r) / r).real)
            want, rest_want = (1 - tau) * S, tau * S
            if c <= 0 or S - 1 >= rest_want:
                want, rest_want = mp.mpf(1), S - 1
        assert abs(x - want) <= 4e-15 * want + 1e-15 * rho * s
        assert abs(rest - rest_want) <= 1e-12 * abs(rest_want) + 1e-320  # subnormals

    @settings(deadline=None, max_examples=100)
    @given(log_uniform(1e-100), unit_index(), unit_index(), log_uniform(1e-6, 10.0))
    def test_request_is_the_best_response_to_the_rest(self, rho, eps, kappa, s):
        x, rest = aggregate_requests(s, rho, eps, kappa)
        assume(rest >= 1e-6)           # a barrier that keeps others >= 0
        best = task_best_response(rest - 1e-6, rho, eps, kappa, 1e-6,
                                  best_response_terms(rho, eps, kappa))
        assert abs(best - x) <= 1e-12


@st.composite
def stacked_cases(draw):
    """A game of up to 4 x 3, K = 1 included, with rho down to 1e-100, a
    barrier down to 1e-50 and some entries with kappa <= eps, and a
    (2, S, K, M) block of profiles, S in {1, 3, 10}, with some all-zero
    columns."""
    S = draw(st.sampled_from((1, 3, 10)))
    K, M = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rho = draw(hnp.arrays(float, (K, M), elements=log_uniform(1e-100)))
    eps, kappa = (draw(hnp.arrays(float, (K, M), elements=unit_index()))
                  for _ in range(2))
    kappa = np.where(draw(hnp.arrays(bool, (K, M))), np.minimum(kappa, eps), kappa)
    x = draw(hnp.arrays(float, (2, S, K, M), elements=st.floats(0.0, 1.0)))
    x = np.where(draw(hnp.arrays(bool, (2, S, 1, M))), 0.0, x)
    return rho, eps, kappa, draw(log_uniform(1e-50)), x


class TestStackedGame:
    @settings(deadline=None, max_examples=200)
    @given(stacked_cases())
    def test_matrix_forms_match_the_per_call_path_bitwise(self, case):
        # the reference is the raw kernels on spec's (K, M) matrices; a game
        # stacked at the block's leading shape, at none or at the replicas'
        # alone gives the same bytes
        rho, eps, kappa, barrier, x = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # where 2*rho*(1 + barrier) < 1
            spec = GameSpec(rho, eps, kappa, barrier=barrier)
        others = x.sum(axis=-2, keepdims=True) - x
        args = (spec.rho, spec.eps, spec.kappa, spec.barrier)
        br = task_best_response(others, *args,
                                best_response_terms(spec.rho, spec.eps, spec.kappa))
        want = {utility_matrix: task_utility(x, others, *args).tobytes(),
                gradient_matrix: task_gradient(x, others, *args).tobytes(),
                br_profile: br.tobytes()}
        deviation = task_utility(br, others, *args).sum(axis=-1).tobytes()
        # task_best_response's zero-slope test reads the slope at 0 as
        # b/(b*b) + eps - kappa, which is task_gradient there bit for bit
        b = others + spec.barrier
        assert ((b / (b * b) + spec.eps - spec.kappa).tobytes()
                == task_gradient(0.0, others, *args).tobytes())
        for lead in (x.shape[1:2], (), x.shape[:2]):
            stacked = stack_game(spec, *lead)
            for m in (stacked.rho, stacked.eps, stacked.kappa, *stacked.br_terms):
                assert m.shape == lead + spec.rho.shape and m.flags.c_contiguous
            for matrix_form, reference in want.items():
                assert matrix_form(x, stacked).tobytes() == reference
                assert matrix_form(x, stacked, others).tobytes() == reference
            assert deviation_utilities(x, stacked).tobytes() == deviation
            assert deviation_utilities(x, stacked, br).tobytes() == deviation
