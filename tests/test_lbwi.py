"""Two-phase interval learner: exploration bookkeeping, the phase
transition, and the exploitation-phase sampling contract."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from fogbandit.errors import ConfigurationError, FeedbackError, ProtocolError
from fogbandit.game import GameSpec, utility_matrix, utility_range
from fogbandit.strategies import LbwiBank
from fogbandit.strategies.lbwi import (default_pulls_per_interval,
                                       phase2_intervals)


def tiny_spec():
    return GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]])


def refined_reference(coarse, n_arms, N, with_init):
    """Phase-II weights as a gather through clipped parents and a mask:
    refined arm j < n takes (N / n) times coarse arm (j * N) // n, padded
    arms 0, each row divided by its max."""
    n = n_arms[..., None]
    j = np.arange(int(n.max()))
    coarse = coarse if with_init else np.ones_like(coarse)
    parents = np.minimum((j * N) // n, N - 1)
    fine = np.where(j < n, (N / n) * np.take_along_axis(coarse, parents, -1), 0.0)
    return fine / fine.max(axis=-1, keepdims=True)


def drive(bank, spec, T, rng, log=None):
    """Feed the bank a stationary single-learner environment."""
    for _ in range(T):
        x = bank.act()
        u = 0.2 + 0.5 * x - 0.3 * x ** 2 + rng.normal(0, 0.01, x.shape)
        if log is not None:
            log.append((int(bank._arm[0, 0, 0]), float(u[0, 0, 0])))
        bank.observe(u)


class TestConstruction:
    def test_rejects_single_interval(self, rng):
        with pytest.raises(ConfigurationError, match="N must be"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], N=1)

    def test_rejects_fractional_interval_count(self, rng):
        with pytest.raises(ConfigurationError, match="N must be an integer"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], N=2.5)

    def test_rejects_zero_pulls_per_interval(self, rng):
        # 0 must not fall back to the default
        with pytest.raises(ConfigurationError, match="pulls_per_interval .* got 0"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], pulls_per_interval=0)

    def test_rejects_negative_pulls_per_interval(self, rng):
        # -3 would give T1 = -30: Phase I skipped and no refinement ever
        with pytest.raises(ConfigurationError, match="pulls_per_interval .* got -3"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], pulls_per_interval=-3)

    def test_rejects_fractional_pulls_per_interval(self, rng):
        with pytest.raises(ConfigurationError, match="pulls_per_interval .* got 2.5"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], pulls_per_interval=2.5)

    @pytest.mark.parametrize("field,least", [("N", 2), ("pulls_per_interval", 1)])
    def test_rejects_a_bool_count(self, rng, field, least):
        # pulls_per_interval=True was stored as A = True
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be an integer >= {least}, got True$"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], **{field: True})

    def test_accepts_numpy_integer_counts(self, rng):
        bank = LbwiBank(tiny_spec(), T=100, rngs=[rng], N=np.int64(4),
                        pulls_per_interval=np.int64(5))
        assert (bank.N, bank.A, bank.T1) == (4, 5, 20)

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_rejects_exploration_rate_outside_unit_interval(self, rng, gamma):
        with pytest.raises(ConfigurationError, match="gamma"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], gamma=gamma)


class TestPhaseOne:
    def test_every_arm_pulled_exactly_a_times(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=200, rngs=[rng], N=5, pulls_per_interval=8)
        log = []
        drive(bank, spec, bank.T1, np.random.default_rng(0), log=log)
        assert np.array_equal(np.bincount([arm for arm, _ in log], minlength=5),
                              np.full(5, 8))

    def test_actions_come_from_scheduled_interval(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=100, rngs=[rng], N=4, pulls_per_interval=5)
        for _ in range(bank.T1):
            x = bank.act()
            arm = int(bank._arm[0, 0, 0])
            assert arm / 4 <= x[0, 0, 0] < (arm + 1) / 4
            bank.observe(np.zeros((1, 1, 1)))

    def test_average_utility_record_is_replayable(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=400, rngs=[rng], N=5, pulls_per_interval=10)
        log = []
        drive(bank, spec, bank.T1, np.random.default_rng(1), log=log)
        for arm in range(5):
            observed = [u for a, u in log if a == arm]
            assert bank.mu_hat[0, 0, 0, arm] == pytest.approx(
                np.mean(observed), rel=1e-12)

    def test_average_is_exact_when_the_horizon_cuts_a_sweep(self, rng):
        # T1 = T = 23 < A * N: the last sweep stops after 3 of its 5 arms
        spec = tiny_spec()
        bank = LbwiBank(spec, T=23, rngs=[rng], N=5, pulls_per_interval=10)
        log = []
        drive(bank, spec, bank.T1, np.random.default_rng(1), log=log)
        pulls = np.bincount([a for a, _ in log], minlength=5)
        assert sorted(pulls) == [4, 4, 5, 5, 5]
        for arm in range(5):
            observed = [u for a, u in log if a == arm]
            assert bank.mu_hat[0, 0, 0, arm] == pytest.approx(
                np.mean(observed), rel=1e-12)

    def test_default_phase_one_is_tenth_of_horizon(self):
        assert default_pulls_per_interval(50_000, 10) == 500
        spec = tiny_spec()
        bank = LbwiBank(spec, T=50_000, rngs=[np.random.default_rng(0)])
        assert bank.T1 == 5000


class TestPhaseTransition:
    def test_refined_count_multiple_of_coarse(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=300, rngs=[rng], N=5, pulls_per_interval=10)
        drive(bank, spec, bank.T1 + 1, np.random.default_rng(2))
        assert bank.n_arms[0, 0, 0] % 5 == 0
        assert bank.l_tilde[0, 0, 0] >= bank.l_hat[0, 0, 0]

    def test_refined_count_is_capped_at_the_horizon(self):
        # the cap is taken in float before the int cast, so a huge Lipschitz
        # estimate neither overflows the cast nor falls back to N arms
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase2_intervals(10, 1e300, 400) == 400
            assert phase2_intervals(10, 1e11, 405) == 410
            assert list(phase2_intervals(10, np.array([3.0, 1e30]), 400)) == [20, 400]

    def test_plain_variant_starts_uniform(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=300, rngs=[rng], N=5, pulls_per_interval=10,
                        with_init=False)
        drive(bank, spec, bank.T1, np.random.default_rng(3))
        n = int(bank.n_arms[0, 0, 0])
        p = bank._probs()[0, 0, 0, :n]
        assert np.allclose(p, 1.0 / n, atol=1e-12)

    def test_initialized_variant_carries_phase_one_mass(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=300, rngs=[rng], N=5, pulls_per_interval=10,
                        with_init=True)
        drive(bank, spec, bank.T1 - 1, np.random.default_rng(3))
        coarse = bank.weights[0, 0, 0].copy()
        x = bank.act()
        bank.observe(np.zeros((1, 1, 1)))   # completes phase one
        n = int(bank.n_arms[0, 0, 0])
        fine = bank.weights[0, 0, 0, :n]
        ratio = n // 5
        # children of the heaviest coarse interval stay heaviest
        top = int(np.argmax(coarse))
        assert np.all(fine[top * ratio:(top + 1) * ratio] == fine.max())


    @pytest.mark.parametrize("with_init", [True, False])
    def test_refined_weights_with_mixed_arm_counts(self, with_init):
        # learners refine to different counts, so most rows are padded
        spec = GameSpec(rho=np.full((3, 4), 0.9), eps=np.full((3, 4), 0.1),
                        kappa=np.full((3, 4), 0.1))
        rng = np.random.default_rng(4)
        bank = LbwiBank(spec, T=5000, rngs=[rng, rng], N=5, pulls_per_interval=10,
                        with_init=with_init)
        bank.mu_hat = rng.random(bank.mu_hat.shape) * np.geomspace(
            1e-3, 30.0, 24).reshape(2, 3, 4, 1)
        coarse = rng.random(bank.weights.shape)
        bank.weights = coarse / coarse.max(axis=-1, keepdims=True)
        coarse = bank.weights.copy()
        bank._refine()
        assert len(np.unique(bank.n_arms)) > 3
        want = refined_reference(coarse, bank.n_arms, 5, with_init)
        assert bank.weights.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:utility not convex in others")
    @pytest.mark.parametrize("with_init", [True, False])
    def test_refinement_at_the_arm_cap_holds_one_temporary(self, game1, with_init):
        # at noise_std 1e3 every learner's count reaches the cap
        # N * ceil(T / N) = 2000; building the weights holds them and one
        # index array of the same size, plus a fixed few tens of kB
        spec = dataclasses.replace(game1, noise_std=1e3)
        bank = LbwiBank(spec, T=2000, with_init=with_init,
                        rngs=[np.random.default_rng(s) for s in range(10)])
        refine, seen = bank._refine, {}

        def traced_refine():
            seen["coarse"] = bank.weights.copy()
            tracemalloc.start()
            try:
                refine()
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bank._refine = traced_refine
        noise = np.random.default_rng(9)
        for _ in range(bank.T1):
            x = bank.act()
            bank.observe(utility_matrix(x, spec)
                         + noise.normal(0.0, spec.noise_std, x.shape))
        assert np.all(bank.n_arms == 2000)
        want = refined_reference(seen["coarse"], bank.n_arms, bank.N, with_init)
        assert bank.weights.tobytes() == want.tobytes()
        assert seen["peak"] < 2.25 * bank.weights.nbytes


class TestPhaseTwo:
    def test_actions_match_sampled_arm_interval(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=400, rngs=[rng], N=4, pulls_per_interval=5)
        drive(bank, spec, bank.T1, np.random.default_rng(4))
        for _ in range(100):
            x = bank.act()
            arm = int(bank._arm[0, 0, 0])
            n = int(bank.n_arms[0, 0, 0])
            assert arm / n <= x[0, 0, 0] < (arm + 1) / n
            bank.observe(np.array([[[0.4]]]))

    def test_probabilities_respect_floor_and_sum(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=500, rngs=[rng], N=5, pulls_per_interval=8,
                        gamma=0.07)
        drive(bank, spec, 300, np.random.default_rng(5))
        n = int(bank.n_arms[0, 0, 0])
        p = bank._probs()[0, 0, 0, :n]
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0.07 / n - 1e-15)

    def test_rewards_drive_weight_concentration(self):
        # deterministic utility increasing in x: the top interval must end
        # up carrying the maximal weight
        spec = tiny_spec()
        bank = LbwiBank(spec, T=3000, rngs=[np.random.default_rng(6)], N=5,
                        pulls_per_interval=20, gamma=0.2)
        for _ in range(3000):
            x = bank.act()
            bank.observe(x.copy())
        n = int(bank.n_arms[0, 0, 0])
        assert np.argmax(bank.weights[0, 0, 0, :n]) >= n * 0.8


class TestProtocol:
    def test_non_finite_feedback_rejected(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=100, rngs=[rng], N=4, pulls_per_interval=5)
        bank.act()
        with pytest.raises(FeedbackError):
            bank.observe(np.array([[[np.nan]]]))

    def test_observe_needs_a_preceding_act(self, rng):
        bank = LbwiBank(tiny_spec(), T=100, rngs=[rng], N=4, pulls_per_interval=5)
        with pytest.raises(ProtocolError, match="without a preceding act"):
            bank.observe(np.array([[[0.3]]]))

    def test_learner_step_protocol(self, rng):
        # Phase I lasts T1 = 20 act/observe steps; the Lipschitz estimate
        # that opens Phase II exists only after the last of them
        bank = LbwiBank(tiny_spec(), T=60, rngs=[rng], N=4, pulls_per_interval=5)
        for t in range(1, 31):
            assert (bank.l_tilde is None) == (t <= bank.T1)
            x = bank.act()[0, 0, 0]
            assert 0.0 <= x < 1.0
            bank.observe(np.array([[[0.3]]]))
        assert bank.l_tilde is not None

    def test_normalization_envelope_contains_utilities(self, game1, rng):
        lo, hi = utility_range(game1)
        from fogbandit.game import utility_matrix
        for _ in range(300):
            u = utility_matrix(rng.random((2, 2)), game1)
            assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)
