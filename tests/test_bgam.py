"""Bandit gradient ascent: configuration arithmetic, the act/observe step
of the bank, action-range invariants, and agreement with an independent
plain-array reference."""

import math

import mpmath as mp
import numpy as np
import pytest

from fogbandit.errors import ConfigurationError, ProtocolError
from fogbandit.game import Bounds, GameSpec
from fogbandit.strategies import BgamBank
from fogbandit.strategies.bgam import perturbation_radius

mp.mp.dps = 40


class _FixedSign:
    """Stand-in generator whose flat integers(0, 2, n) draws read a
    prescribed sign sequence, 1 for +1 and 0 for -1; the last sign repeats
    past its end."""

    def __init__(self, signs):
        self.bits = [1 if s > 0 else 0 for s in signs]

    def integers(self, lo, hi, size):
        assert (lo, hi) == (0, 2)
        bits = self.bits[:size] + self.bits[-1:] * (size - len(self.bits))
        self.bits = self.bits[size:] or self.bits[-1:]
        return np.array(bits, dtype=int)


def single(T, bounds, rng=None, **params):
    """A 1 x 1 bank of one replica: one (node, task) learner."""
    spec = GameSpec(rho=[[0.9]], eps=[[0.1]], kappa=[[0.1]])
    return BgamBank(spec, T, bounds, [rng], **params)


class TestConfigure:
    def test_radius_formula(self):
        # T=10000, U=2, L=2, xi=0.5
        b = Bounds(L=2.0, U=2.0, H=1.0)
        sigma, alpha = perturbation_radius(10_000, b, 0.5)
        expected = mp.mpf(10_000) ** mp.mpf("-0.25") * mp.sqrt(
            mp.mpf("0.5") * 2 * mp.mpf("0.5") / (3 * (2 * mp.mpf("0.5") + 2)))
        assert sigma == pytest.approx(float(expected), rel=1e-14)
        assert sigma == pytest.approx(0.023570, abs=1e-6)
        assert alpha == pytest.approx(2 * sigma, rel=1e-14)

    def test_radius_clamped_below_half_shift(self):
        b = Bounds(L=1e-9, U=1e6, H=1.0)
        sigma, alpha = perturbation_radius(2, b, 0.5)
        assert sigma < 0.25

    def test_initial_state(self):
        bank = single(1000, Bounds(L=1.0, U=1.0, H=1.0))
        assert bank.y[0, 0, 0] == 0.0 and bank.v[0, 0, 0] == 0.0 and bank.t == 1
        assert bank.xi == 0.5
        assert 0.0 < bank.sigma < bank.xi
        assert bank.alpha == pytest.approx(bank.sigma / bank.xi)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            single(1, Bounds(L=1.0, U=1.0, H=1.0))
        with pytest.raises(ConfigurationError):
            Bounds(L=-1.0, U=1.0, H=1.0)
        with pytest.raises(ConfigurationError):
            single(100, Bounds(L=1.0, U=1.0, H=1.0), beta=1.0)

    @pytest.mark.parametrize("xi", [0.0, 0.7])
    def test_bank_rejects_shift_outside_half_unit(self, game1, xi):
        # 2*xi <= 1 is what keeps y + sigma*c + xi inside [0, 1]
        with pytest.raises(ConfigurationError, match="xi"):
            BgamBank(game1, 1000, Bounds(L=1.0, U=1.0, H=1.0),
                     [np.random.default_rng(0)], xi=xi)

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_bank_rejects_non_positive_step_size(self, game1, nu):
        # nu = -1 would descend the utility
        with pytest.raises(ConfigurationError, match="nu must be > 0"):
            BgamBank(game1, 1000, Bounds(L=1.0, U=1.0, H=1.0),
                     [np.random.default_rng(0)], nu=nu)


class TestActUpdate:
    def test_act_substitutes_shift_and_radius(self):
        bank = single(10_000, Bounds(L=2.0, U=2.0, H=1.0), _FixedSign([+1, -1]))
        x_up = bank.act()[0, 0, 0]
        assert x_up == pytest.approx(0.5 + bank.sigma, rel=1e-14)
        x_dn = bank.act()[0, 0, 0]
        assert x_dn == pytest.approx(0.5 - bank.sigma, rel=1e-14)

    @pytest.mark.parametrize("xi,T", [(0.09375, 10_000), (0.4, 1000)])
    def test_action_at_the_lower_clip_bound_is_not_negative(self, xi, T):
        # -(1 - alpha) * xi - sigma + xi is 0 exactly, about -1e-17 in floats
        bank = single(T, Bounds(L=2.0, U=2.0, H=1.0), _FixedSign([-1]), xi=xi)
        bank.y[:] = -(1.0 - bank.alpha) * bank.xi
        assert bank.act()[0, 0, 0] == 0.0

    def test_action_always_in_unit_interval(self, rng):
        bank = single(100, Bounds(L=0.01, U=5.0, H=1.0), rng, nu=5.0)
        for _ in range(500):
            x = bank.act()[0, 0, 0]
            assert 0.0 <= x <= 1.0
            bank.observe(rng.normal(0, 3, (1, 1, 1)))
            assert abs(bank.y[0, 0, 0]) <= (1 - bank.alpha) * bank.xi + 1e-15

    def test_update_without_act_is_protocol_error(self):
        bank = single(100, Bounds(L=1.0, U=1.0, H=1.0))
        with pytest.raises(ProtocolError):
            bank.observe(np.array([[[0.3]]]))

    def test_zero_utility_moves_by_momentum_only(self):
        bank = single(100, Bounds(L=1.0, U=1.0, H=1.0), _FixedSign([+1]),
                      beta=0.5, nu=0.1)
        bank.v[0, 0, 0] = 0.2
        bank.act()
        bank.observe(np.zeros((1, 1, 1)))
        assert bank.v[0, 0, 0] == pytest.approx(0.1)        # beta * v, no new signal
        assert bank.y[0, 0, 0] == pytest.approx(0.1 * 0.1)  # nu/sqrt(1) * v

    def test_first_step_hand_computation(self):
        bank = single(10_000, Bounds(L=2.0, U=2.0, H=1.0), _FixedSign([+1]),
                      beta=0.0, nu=0.1)
        bank.act()
        bank.observe(np.array([[[0.5]]]))
        # g = 0.5 * (+1); y = clip(0 + 0.1/sqrt(1) * 0.5) = 0.05
        assert bank.y[0, 0, 0] == pytest.approx(0.05, rel=1e-12)
        assert bank.t == 2

    def test_persistent_gains_reach_upper_clamp(self):
        bank = single(10_000, Bounds(L=2.0, U=2.0, H=1.0), _FixedSign([+1] * 200),
                      beta=0.0, nu=0.5)
        for _ in range(200):
            bank.act()
            bank.observe(np.ones((1, 1, 1)))
        assert bank.y[0, 0, 0] == pytest.approx((1 - bank.alpha) * bank.xi, rel=1e-12)


class TestBankAgreement:
    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_matches_plain_reference(self, game1, beta):
        """The 2x2 trajectory must be bit-identical to a plain one-point
        bandit gradient reference with momentum, written independently."""
        bounds = Bounds(L=2.0, U=1.0, H=1.0)
        bank = BgamBank(game1, 5000, bounds, [np.random.default_rng(5)],
                        beta=beta, nu=0.1)
        # independent reference
        sigma, alpha = perturbation_radius(5000, bounds, 0.5)
        ref_rng = np.random.default_rng(5)
        y = np.zeros((2, 2))
        v = np.zeros((2, 2))
        obs_rng = np.random.default_rng(17)
        for t in range(1, 301):
            c = ref_rng.integers(0, 2, (2, 2)) * 2.0 - 1.0
            x_ref = y + sigma * c + 0.5
            x_bank = bank.act()[0]
            assert np.array_equal(x_ref, x_bank)
            u = obs_rng.normal(0, 1, (2, 2))
            bank.observe(u[None])
            bound = (1 - alpha) * 0.5
            v = beta * v + u * c
            y = np.clip(y + 0.1 / math.sqrt(t) * v, -bound, bound)
            assert np.array_equal(v, bank.v[0])
            assert np.array_equal(y, bank.y[0])
