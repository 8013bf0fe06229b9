"""Exponential weights of the interval learner bank (its mixing
distribution, weight update and interval sampling) and the Phase-I to
Phase-II interval bookkeeping."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fogbandit.errors import ConfigurationError
from fogbandit.game import GameSpec
from fogbandit.strategies import LbwiBank, lipschitz_estimate, phase2_intervals

mp.mp.dps = 40


def bank_with(weights, gamma):
    """A one-replica bank of one learner per row of `weights` (a 1 x rows
    game) whose weights are set to `weights`; the arm count is the row
    length."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = GameSpec(rho=np.full((1, len(w)), 0.9), eps=np.full((1, len(w)), 0.1),
                        kappa=np.full((1, len(w)), 0.1))
    bank = LbwiBank(spec, 1000, [np.random.default_rng(0)], N=w.shape[-1],
                    gamma=gamma)
    bank.weights[0, 0] = w
    return bank


def probs(weights, gamma):
    """The bank's mixing distribution for the given weights; gamma = 0 (no
    uniform mixing) is set after construction, which rejects it."""
    bank = bank_with(weights, gamma or 1.0)
    bank.gamma = gamma
    return bank._probs()[0, 0]


class TestExp3Probs:
    def test_uniform_weights(self):
        p = probs(np.ones(10), gamma=0.1)
        assert np.allclose(p, 0.1, atol=1e-15)

    def test_no_mixing_reduces_to_proportions(self):
        p = probs([2.0, 1.0, 1.0], gamma=0.0)
        assert np.allclose(p, [0.5, 0.25, 0.25])

    def test_mixed_example(self):
        p = probs([2.0, 1.0, 1.0], gamma=0.3)
        assert np.allclose(p, [0.45, 0.275, 0.275])

    def test_random_weights_normalize_and_floor(self, rng):
        # every learner of a 10 x 10 bank on its own arm count, as after
        # Phase II refinement: padded arms hold weight 0, as _refine leaves
        # them, and the live arms' probabilities sum to 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=np.full((10, 10), 0.9), eps=np.full((10, 10), 0.1),
                            kappa=np.full((10, 10), 0.1))
        bank = LbwiBank(spec, 1000, [np.random.default_rng(0)], N=40)
        for _ in range(20):
            n = rng.integers(2, 40, (1, 10, 10))
            active = np.arange(40) < n[..., None]
            bank.n_arms = n
            bank.weights = np.where(active, rng.random((1, 10, 10, 40))
                                    * 10.0 ** rng.integers(-6, 6, (1, 10, 10, 1))
                                    + 1e-12, 0.0)
            bank.gamma = float(rng.uniform(0.01, 1.0))
            p = np.where(active, bank._probs(), 0.0)
            assert np.all(np.abs(p.sum(axis=-1) - 1.0) < 1e-9)
            assert np.all((p >= bank.gamma / n[..., None] - 1e-15) | ~active)

    def test_batched_weights(self):
        p = probs(np.stack([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), gamma=0.0)
        assert np.allclose(p[0], [0.5, 0.25, 0.25])
        assert np.allclose(p[1], 1.0 / 3.0)


def update(weights, reward, gamma):
    """One act/observe step of a single-learner bank with the given weights,
    fed the observation whose normalized reward is `reward`; returns the
    weights before and after, the played arm and its probability."""
    bank = bank_with(weights, gamma)
    before = bank.weights[0, 0, 0].copy()
    bank.act()
    arm = int(bank._arm[0, 0, 0])
    prob = float(bank._probs()[0, 0, 0, arm])
    bank.observe(np.array([[[bank.u_lo + reward * (bank.u_hi - bank.u_lo)]]]))
    return before, bank.weights[0, 0, 0], arm, prob


class TestExp3Update:
    def test_zero_reward_keeps_proportions(self):
        w0, w1, _, _ = update([2.0, 1.0, 1.0], reward=0.0, gamma=0.1)
        assert np.allclose(w1 / w1.sum(), w0 / w0.sum())

    def test_multiplier_value(self):
        _, w, arm, prob = update(np.ones(10), reward=1.0, gamma=0.1)
        # played arm's weight grows by exp(0.1 * 1 / (10 * 0.1)) = e^0.1
        assert prob == pytest.approx(0.1, rel=1e-14)
        expected = float(mp.e ** mp.mpf("0.1"))
        assert w[arm] / w[arm - 1] == pytest.approx(expected, rel=1e-14)

    def test_rescale_does_not_change_probs(self, rng):
        w = rng.random(8) + 0.1
        p_before = probs(w, gamma=0.2)
        p_after = probs(w / w.max(), gamma=0.2)
        assert np.allclose(p_before, p_after, atol=1e-12)

    def test_max_weight_is_one_after_update(self, rng):
        # the bank only holds weights whose max is 1.0
        w = rng.random(5) + 0.1
        _, w, _, _ = update(w / w.max(), reward=0.7, gamma=0.3)
        assert w.max() == 1.0


def played_actions(N, rounds, rng_seed=7):
    """Actions and played arms of a 100 x 100 bank of N-interval learners
    over the given Phase-I rounds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = GameSpec(rho=np.full((100, 100), 0.9), eps=np.full((100, 100), 0.1),
                        kappa=np.full((100, 100), 0.1))
    bank = LbwiBank(spec, 10 * rounds, [np.random.default_rng(rng_seed)], N=N,
                    pulls_per_interval=rounds)
    xs, arms = [], []
    for _ in range(rounds):
        xs.append(bank.act()[0])
        arms.append(bank._arm[0])
        bank.observe(np.zeros((1, 100, 100)))
    return np.array(xs), np.array(arms)


class TestSampleAction:
    def test_whole_interval(self):
        xs, _ = played_actions(2, 5)
        assert np.all((0.0 <= xs) & (xs < 1.0))

    def test_interval_bounds(self):
        xs, arms = played_actions(10, 10)
        in_three = xs[arms == 3]
        assert in_three.size > 0
        assert np.all((0.3 <= in_three) & (in_three < 0.4))

    def test_empirical_mean(self):
        # every learner pulls each of its 10 arms once per 10 rounds
        xs, arms = played_actions(10, 100)
        draws = xs[arms == 3]
        assert draws.size == 100_000
        assert np.mean(draws) == pytest.approx(0.35, abs=1e-3)


class TestLipschitzEstimate:
    def test_constant_profile_gives_confidence_term_only(self):
        l_hat, l_tilde = lipschitz_estimate(np.full(5, 0.3), N=5, A=20, T=100)
        assert l_hat == 0.0
        assert l_tilde == pytest.approx(5 * math.sqrt(2 / 20 * math.log(2 * 5 * 100)))

    def test_raw_estimate_from_adjacent_differences(self):
        l_hat, _ = lipschitz_estimate([0.0, 0.1, 0.3], N=3, A=10, T=50)
        assert l_hat == pytest.approx(3 * 0.2)

    def test_inflated_value(self):
        # N=3, A=100, T=1000, raw 0.6
        _, l_tilde = lipschitz_estimate([0.0, 0.1, 0.3], N=3, A=100, T=1000)
        expected = mp.mpf("0.6") + 3 * mp.sqrt(mp.mpf(2) / 100 * mp.log(6000))
        assert l_tilde == pytest.approx(float(expected), rel=1e-12)
        assert l_tilde == pytest.approx(1.851364, abs=1e-5)

    def test_inflated_never_below_raw(self, rng):
        for _ in range(200):
            mu = rng.normal(size=8)
            l_hat, l_tilde = lipschitz_estimate(mu, N=8, A=5, T=1000)
            assert l_tilde >= l_hat

    def test_requires_two_intervals(self):
        with pytest.raises(ConfigurationError):
            lipschitz_estimate([0.5], N=1, A=10, T=100)

    def test_batched_input(self):
        mu = np.array([[0.0, 0.1, 0.3], [0.0, 0.0, 0.0]])
        l_hat, l_tilde = lipschitz_estimate(mu, N=3, A=100, T=1000)
        assert l_hat[0] == pytest.approx(0.6)
        assert l_hat[1] == 0.0
        assert np.all(l_tilde >= l_hat)


class TestPhase2Intervals:
    def test_reference_value(self):
        # l_tilde=2, T=46656: 2^(2/3) * 36 = 57.15 -> ceil(5.715) * 10 = 60
        assert phase2_intervals(10, 2.0, 46656) == 60

    def test_small_estimate_keeps_coarse_count(self):
        assert phase2_intervals(10, 1e-6, 100) == 10

    def test_always_multiple_of_coarse_count(self, rng):
        for _ in range(200):
            N = int(rng.integers(2, 20))
            lt = float(rng.uniform(0.01, 50))
            T = int(rng.integers(10, 10 ** 6))
            nt = phase2_intervals(N, lt, T)
            assert nt % N == 0 and nt >= N

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            phase2_intervals(10, 0.0, 100)


def refined_bank(with_init):
    """A two-replica bank of 2 x 3 learners driven through Phase I on
    utilities whose slope in x differs per learner, so that the learners
    refine to different interval counts; returns the bank and its coarse
    weights as they stood when Phase I ended."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = GameSpec(rho=np.full((2, 3), 0.9), eps=np.full((2, 3), 0.1),
                        kappa=np.full((2, 3), 0.1))
    bank = LbwiBank(spec, 1000, [np.random.default_rng(0), np.random.default_rng(1)],
                    N=4, pulls_per_interval=5, with_init=with_init)
    slopes = np.array([[0.0, 5.0, 20.0], [80.0, 300.0, 900.0]])
    coarse = []
    refine = bank._refine

    def capture():
        coarse.append(bank.weights.copy())
        refine()

    bank._refine = capture
    noise = np.random.default_rng(2)
    for _ in range(bank.T1):
        x = bank.act()
        bank.observe(slopes * x + noise.normal(0.0, 0.01, x.shape))
    [weights] = coarse
    return bank, weights


def refined_one_learner_at_a_time(coarse, n_arms, N, with_init):
    """Phase-II weights built learner by learner: refined arm j < n takes
    coarse weight (j * N) // n scaled by N / n (uniform weights without
    init), padded arms stay 0, then each learner is scaled to max 1."""
    fine = np.zeros(n_arms.shape + (int(n_arms.max()),))
    for i in np.ndindex(n_arms.shape):
        n = int(n_arms[i])
        if with_init:
            fine[i][:n] = (N / n) * coarse[i][(np.arange(n) * N) // n]
        else:
            fine[i][:n] = 1.0
    return fine / fine.max(axis=-1, keepdims=True)


class TestRefinement:
    @pytest.mark.parametrize("with_init", [True, False], ids=["lbwi", "lb"])
    def test_matches_the_per_learner_rule_bitwise(self, with_init):
        bank, coarse = refined_bank(with_init)
        assert len(np.unique(bank.n_arms)) >= 4
        expected = refined_one_learner_at_a_time(coarse, bank.n_arms, 4, with_init)
        assert bank.weights.shape == expected.shape
        assert np.array_equal(bank.weights, expected)

    @pytest.mark.parametrize("with_init", [True, False], ids=["lbwi", "lb"])
    def test_padded_arms_get_zero(self, with_init):
        bank, _ = refined_bank(with_init)
        active = np.arange(bank.weights.shape[-1]) < bank.n_arms[..., None]
        assert not active.all()
        assert np.all(bank.weights[~active] == 0.0)
        assert np.all(bank.weights[active] > 0.0)

    def test_mass_is_kept(self):
        # before scaling to max 1, a learner's refined weights sum to its
        # coarse weights' sum
        bank, coarse = refined_bank(True)
        unscaled = bank.weights * (4 / bank.n_arms * coarse.max(axis=-1))[..., None]
        assert np.allclose(unscaled.sum(axis=-1), coarse.sum(axis=-1), rtol=1e-12)


def masked_probs(bank):
    """The mixing distribution with padded arms masked out, as the bank
    computed it before it relied on their zero weights."""
    mask = np.arange(bank.weights.shape[-1]) < bank.n_arms[..., None]
    w = np.where(mask, bank.weights, 0.0)
    total = w.sum(axis=-1, keepdims=True)
    p = (1.0 - bank.gamma) * w / total + bank.gamma / bank.n_arms[..., None]
    return np.where(mask, p, 0.0), mask


def stored_probability_update(bank, expected, observed):
    """The weights after `observe` as the bank computed them when it kept the
    played arm's probability from `act`: the masked probability at the
    played arm sets the multiplier, then each row is divided by its max."""
    arm = bank._arm[..., None]
    prob = np.take_along_axis(expected, arm, -1)[..., 0]
    w = bank.weights.copy()
    w0 = np.take_along_axis(w, arm, -1)[..., 0]
    mult = np.exp(bank.gamma * bank._normalize(observed) / (bank.n_arms * prob))
    np.put_along_axis(w, arm, (w0 * mult)[..., None], -1)
    return w / w.max(axis=-1, keepdims=True)


class TestPaddedArms:
    @pytest.mark.parametrize("with_init", [True, False], ids=["lbwi", "lb"])
    def test_phase2_plays_as_the_masked_distribution(self, with_init):
        # a two-replica 10 x 10 bank whose learners see different slopes in
        # x, so that they refine to different arm counts
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=np.full((10, 10), 0.9), eps=np.full((10, 10), 0.1),
                            kappa=np.full((10, 10), 0.1))
        bank = LbwiBank(spec, 300, [np.random.default_rng(3), np.random.default_rng(4)],
                        N=4, pulls_per_interval=5, with_init=with_init)
        slopes = np.linspace(0.0, 100.0, 100).reshape(10, 10)
        noise = np.random.default_rng(5)
        for t in range(1, bank.T + 1):
            phase2 = t > bank.T1
            if phase2:
                expected, live = masked_probs(bank)
                assert np.array_equal(bank._probs()[live], expected[live])
            x = bank.act()
            observed = slopes * x + noise.normal(0.0, 0.01, x.shape)
            if phase2:
                assert np.all(bank._arm < bank.n_arms)
                reference = stored_probability_update(bank, expected, observed)
            bank.observe(observed)
            if phase2:
                assert np.array_equal(bank.weights, reference)
            assert np.all(bank.weights.max(axis=-1) == 1.0)
            padded = np.arange(bank.weights.shape[-1]) >= bank.n_arms[..., None]
            assert np.all(bank.weights[padded] == 0.0)
        assert len(np.unique(bank.n_arms)) >= 5
