"""Two-phase interval learner: exploration bookkeeping, the phase
transition, and the exploitation-phase sampling contract."""

import numpy as np
import pytest

from fogbandit.errors import ConfigurationError, FeedbackError
from fogbandit.game import GameSpec, utility_range
from fogbandit.strategies import LbwiBank
from fogbandit.strategies.lbwi import default_pulls_per_interval


def tiny_spec():
    return GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]])


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

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_rejects_exploration_rate_outside_unit_interval(self, rng, gamma):
        with pytest.raises(ConfigurationError, match="gamma"):
            LbwiBank(tiny_spec(), T=100, rngs=[rng], gamma=gamma)


class TestPhaseOne:
    def test_every_arm_pulled_exactly_a_times(self, rng):
        spec = tiny_spec()
        bank = LbwiBank(spec, T=200, rngs=[rng], N=5, pulls_per_interval=8)
        drive(bank, spec, bank.T1, np.random.default_rng(0))
        assert np.all(bank.counts == 8)

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
