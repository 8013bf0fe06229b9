"""Bandit gradient ascent: configuration arithmetic, the act/update state
machine, action-range invariants, and agreement between the scalar state
machine and the vectorized bank."""

import math

import mpmath as mp
import numpy as np
import pytest

from fogbandit.errors import ConfigurationError, ProtocolError
from fogbandit.game import Bounds
from fogbandit.strategies import BgamBank, bgam_act, bgam_configure, bgam_update
from fogbandit.strategies.bgam import perturbation_radius

mp.mp.dps = 40


class _FixedSign:
    """Stand-in generator yielding a prescribed sign sequence."""

    def __init__(self, signs):
        self.signs = list(signs)

    def integers(self, lo, hi, size=None):
        s = self.signs.pop(0)
        v = 1 if s > 0 else 0
        if size is None:
            return v
        return np.full(size, v, dtype=int)


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
        state = bgam_configure(1000, Bounds(L=1.0, U=1.0, H=1.0))
        assert state.y == 0.0 and state.v == 0.0 and state.t == 1
        assert state.xi == 0.5
        assert 0.0 < state.sigma < state.xi
        assert state.alpha == pytest.approx(state.sigma / state.xi)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            bgam_configure(1, Bounds(L=1.0, U=1.0, H=1.0))
        with pytest.raises(ConfigurationError):
            Bounds(L=-1.0, U=1.0, H=1.0)
        with pytest.raises(ConfigurationError):
            bgam_configure(100, Bounds(L=1.0, U=1.0, H=1.0), beta=1.0)

    @pytest.mark.parametrize("xi", [0.0, 0.7])
    def test_bank_rejects_shift_outside_half_unit(self, game1, xi):
        # 2*xi <= 1 is what keeps y + sigma*c + xi inside [0, 1]
        with pytest.raises(ConfigurationError, match="xi"):
            BgamBank(game1, 1000, Bounds(L=1.0, U=1.0, H=1.0),
                     np.random.default_rng(0), xi=xi)


class TestActUpdate:
    def test_act_substitutes_shift_and_radius(self):
        state = bgam_configure(10_000, Bounds(L=2.0, U=2.0, H=1.0))
        x_up = bgam_act(state, _FixedSign([+1]))
        assert x_up == pytest.approx(0.5 + state.sigma, rel=1e-14)
        x_dn = bgam_act(state, _FixedSign([-1]))
        assert x_dn == pytest.approx(0.5 - state.sigma, rel=1e-14)

    def test_action_always_in_unit_interval(self, rng):
        state = bgam_configure(100, Bounds(L=0.01, U=5.0, H=1.0), nu=5.0)
        for _ in range(500):
            x = bgam_act(state, rng)
            assert 0.0 <= x <= 1.0
            bgam_update(state, float(rng.normal(0, 3)))
            assert abs(state.y) <= (1 - state.alpha) * state.xi + 1e-15

    def test_update_without_act_is_protocol_error(self):
        state = bgam_configure(100, Bounds(L=1.0, U=1.0, H=1.0))
        with pytest.raises(ProtocolError):
            bgam_update(state, 0.3)

    def test_zero_utility_moves_by_momentum_only(self):
        state = bgam_configure(100, Bounds(L=1.0, U=1.0, H=1.0), beta=0.5, nu=0.1)
        state.v = 0.2
        bgam_act(state, _FixedSign([+1]))
        bgam_update(state, 0.0)
        assert state.v == pytest.approx(0.1)          # beta * v, no new signal
        assert state.y == pytest.approx(0.1 * 0.1)    # nu/sqrt(1) * v

    def test_first_step_hand_computation(self):
        state = bgam_configure(10_000, Bounds(L=2.0, U=2.0, H=1.0), beta=0.0,
                               nu=0.1)
        bgam_act(state, _FixedSign([+1]))
        bgam_update(state, 0.5)
        # g = 0.5 * (+1); y = clip(0 + 0.1/sqrt(1) * 0.5) = 0.05
        assert state.y == pytest.approx(0.05, rel=1e-12)
        assert state.t == 2

    def test_persistent_gains_reach_upper_clamp(self):
        state = bgam_configure(10_000, Bounds(L=2.0, U=2.0, H=1.0), beta=0.0,
                               nu=0.5)
        for _ in range(200):
            bgam_act(state, _FixedSign([+1]))
            bgam_update(state, 1.0)
        assert state.y == pytest.approx((1 - state.alpha) * state.xi, rel=1e-12)


class TestBankAgreement:
    def test_bank_matches_scalar_state_machine(self, game1):
        """A 2x2 bank must replay exactly as four scalar machines fed the
        same sign draws and the same observations."""
        bounds = Bounds(L=2.0, U=1.0, H=1.0)
        rng_bank = np.random.default_rng(99)
        rng_mirror = np.random.default_rng(99)
        bank = BgamBank(game1, 5000, bounds, rng_bank, beta=0.9, nu=0.1)
        states = [[bgam_configure(5000, bounds, beta=0.9, nu=0.1)
                   for _ in range(2)] for _ in range(2)]
        obs_rng = np.random.default_rng(4)
        for _ in range(200):
            x_bank = bank.act()
            signs = rng_mirror.integers(0, 2, (2, 2)) * 2.0 - 1.0
            obs = obs_rng.normal(0, 1, (2, 2))
            for k in range(2):
                for m in range(2):
                    x_scalar = bgam_act(states[k][m], _FixedSign([signs[k, m]]))
                    assert x_scalar == x_bank[k, m]
            bank.observe(obs)
            for k in range(2):
                for m in range(2):
                    bgam_update(states[k][m], obs[k, m])
                    assert states[k][m].y == bank.y[k, m]
                    assert states[k][m].v == bank.v[k, m]

    def test_zero_momentum_matches_plain_reference(self, game1):
        """With beta = 0 the trajectory must be bit-identical to a plain
        one-point bandit gradient reference written independently."""
        bounds = Bounds(L=2.0, U=1.0, H=1.0)
        bank = BgamBank(game1, 5000, bounds, np.random.default_rng(5),
                        beta=0.0, nu=0.1)
        # independent reference
        sigma, alpha = perturbation_radius(5000, bounds, 0.5)
        ref_rng = np.random.default_rng(5)
        y = np.zeros((2, 2))
        obs_rng = np.random.default_rng(17)
        for t in range(1, 301):
            c = ref_rng.integers(0, 2, (2, 2)) * 2.0 - 1.0
            x_ref = y + sigma * c + 0.5
            x_bank = bank.act()
            assert np.array_equal(x_ref, x_bank)
            u = obs_rng.normal(0, 1, (2, 2))
            bank.observe(u)
            bound = (1 - alpha) * 0.5
            y = np.clip(y + 0.1 / math.sqrt(t) * (u * c), -bound, bound)
            assert np.array_equal(y, bank.y)
