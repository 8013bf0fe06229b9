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
from fogbandit.strategies import (LbwiBank, lipschitz_estimate,
                                  phase2_intervals, redistribute_weights)

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
        # Phase II refinement: padded arms get probability zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=np.full((10, 10), 0.9), eps=np.full((10, 10), 0.1),
                            kappa=np.full((10, 10), 0.1))
        bank = LbwiBank(spec, 1000, [np.random.default_rng(0)], N=40)
        for _ in range(20):
            n = rng.integers(2, 40, (1, 10, 10))
            bank.n_arms = n
            bank.weights = (rng.random((1, 10, 10, 40))
                            * 10.0 ** rng.integers(-6, 6, (1, 10, 10, 1)) + 1e-12)
            bank.gamma = float(rng.uniform(0.01, 1.0))
            p = bank._probs()
            assert np.all(np.abs(p.sum(axis=-1) - 1.0) < 1e-9)
            active = np.arange(40) < n[..., None]
            assert np.all((p >= bank.gamma / n[..., None] - 1e-15) | ~active)
            assert np.all(p[~active] == 0.0)

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
    arm, prob = int(bank._arm[0, 0, 0]), float(bank._prob[0, 0, 0])
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
        w = rng.random(5) + 0.1
        _, w, _, _ = update(w, reward=0.7, gamma=0.3)
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


class TestRedistributeWeights:
    def test_identity_when_counts_match(self):
        w = np.array([0.2, 0.5, 0.3])
        assert np.allclose(redistribute_weights(w, 3, 3), w)

    def test_two_to_four(self):
        assert np.allclose(redistribute_weights([2.0, 4.0], 2, 4), [1, 1, 2, 2])

    def test_mass_conserved(self, rng):
        for _ in range(200):
            N = int(rng.integers(2, 12))
            mult = int(rng.integers(1, 9))
            w = rng.random(N) + 0.01
            out = redistribute_weights(w, N, N * mult)
            assert out.sum() == pytest.approx(w.sum(), rel=1e-12)

    def test_argmax_parent_keeps_maximal_weight(self, rng):
        for _ in range(100):
            N = int(rng.integers(2, 10))
            mult = int(rng.integers(1, 6))
            w = rng.random(N) + 0.01
            out = redistribute_weights(w, N, N * mult)
            top_parent = int(np.argmax(w))
            children = out[top_parent * mult:(top_parent + 1) * mult]
            assert np.all(children == out.max())

    def test_rejects_non_multiple(self):
        with pytest.raises(ConfigurationError):
            redistribute_weights(np.ones(3), 3, 7)
