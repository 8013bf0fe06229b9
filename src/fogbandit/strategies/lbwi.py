"""Two-phase Lipschitz bandit over the discretized action interval.

Phase I quantizes [0, 1] into N coarse intervals and pulls each exactly A
times (a fresh random sweep order every N rounds keeps the counts exact
while the visit order stays random). The per-interval average utilities
give a Lipschitz estimate, which sets the refined interval count for
Phase II; exponential weights are maintained throughout and either carried
over into the refinement (initialized variant) or reset to uniform (plain
variant). Phase II is a standard exponential-weights bandit over the
refined intervals.

Rewards entering the weights are the observed utilities affinely mapped to
[0, 1] using the closed-form utility envelope of the game; the raw average
utilities used for the Lipschitz estimate are kept unnormalized.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, FeedbackError, ProtocolError
from ..game import utility_range

DEFAULT_INTERVALS = 10
DEFAULT_GAMMA = 0.05
PHASE1_FRACTION = 0.1


def default_pulls_per_interval(T: int, N: int) -> int:
    """Pulls per coarse interval so Phase I takes about PHASE1_FRACTION of
    the horizon."""
    return max(1, math.ceil(PHASE1_FRACTION * T / N))


def lipschitz_estimate(mu_hat, N: int, A: int, T: int):
    """Estimate the utility's Lipschitz constant from per-interval average
    utilities: the raw estimate is N times the largest difference between
    adjacent intervals, and the inflated estimate adds a confidence margin
    N * sqrt((2/A) * ln(2NT)) for the A observations per interval.

    Works on the last axis; returns (raw, inflated).
    """
    if N < 2:
        raise ConfigurationError("need at least 2 intervals to difference")
    l_hat = N * np.abs(np.diff(mu_hat, axis=-1)).max(axis=-1)
    return l_hat, l_hat + N * math.sqrt(2.0 / A * math.log(2.0 * N * T))


def phase2_intervals(N: int, l_tilde, T: int):
    """Refined interval count: N * ceil(l_tilde^(2/3) * T^(1/3) / N), always
    a positive multiple of N."""
    lt = np.asarray(l_tilde, dtype=float)
    if np.any(lt <= 0.0) or T <= 0:
        raise ConfigurationError("l_tilde and T must be positive")
    return np.maximum(N * np.ceil(lt ** (2.0 / 3.0) * T ** (1.0 / 3.0) / N)
                      .astype(int), N)


def redistribute_weights(omega_coarse, N: int, n_tilde: int) -> np.ndarray:
    """Spread N coarse-interval weights over n_tilde refined intervals.

    Refined interval n inherits from parent (n * N) // n_tilde, scaled by
    N / n_tilde so total mass is preserved; each parent gets exactly
    n_tilde / N children, so the heaviest parent's children stay heaviest.
    """
    if n_tilde % N != 0:
        raise ConfigurationError(f"refined count {n_tilde} is not a multiple of {N}")
    parents = (np.arange(n_tilde) * N) // n_tilde
    return (N / n_tilde) * np.asarray(omega_coarse, dtype=float)[parents]


class LbwiBank:
    """All K x M independent interval learners of S replicas of one game,
    held as (S, K, M) arrays; each replica draws its sweep orders, arms and
    in-interval offsets from its own generator, in that order."""

    feedback_kind = "bandit"

    def __init__(self, spec, T: int, rngs, N: int = DEFAULT_INTERVALS,
                 gamma: float = DEFAULT_GAMMA, pulls_per_interval=None,
                 with_init: bool = True):
        if not isinstance(N, (int, np.integer)) or N < 2:
            raise ConfigurationError(
                f"N must be an integer >= 2 (the Lipschitz estimate differences "
                f"adjacent intervals), got {N!r}")
        if pulls_per_interval is None:
            pulls_per_interval = default_pulls_per_interval(T, N)
        if (not isinstance(pulls_per_interval, (int, np.integer))
                or pulls_per_interval < 1):
            raise ConfigurationError(f"pulls_per_interval must be an integer >= 1, "
                                     f"got {pulls_per_interval!r}")
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma}")
        self.K, self.M = spec.K, spec.M
        self.T = T
        self.N = N
        self.gamma = gamma
        self.A = pulls_per_interval
        self.T1 = min(self.A * N, T)
        self.with_init = with_init
        self.rngs = rngs
        self.u_lo, self.u_hi = utility_range(spec)

        shape = (len(rngs), self.K, self.M)
        self.mu_hat = np.zeros(shape + (N,))
        self.counts = np.zeros(shape + (N,), dtype=int)
        self.weights = np.ones(shape + (N,))
        self.n_arms = np.full(shape, N, dtype=int)   # per-learner arm count
        self.l_hat = None
        self.l_tilde = None
        self.t = 1
        self._sweep = None
        self._arm = None
        self._prob = None

    # -- helpers ----------------------------------------------------------

    def _normalize(self, observed):
        return np.clip((observed - self.u_lo) / (self.u_hi - self.u_lo), 0.0, 1.0)

    def _draw(self, *tail):
        """One uniform draw of shape (K, M) + tail per replica, stacked."""
        return np.array([g.random((self.K, self.M) + tail) for g in self.rngs])

    def _mask(self):
        return np.arange(self.weights.shape[-1]) < self.n_arms[..., None]

    def _probs(self):
        """Mixing distribution per learner over its own (padded) arm axis."""
        mask = self._mask()
        w = np.where(mask, self.weights, 0.0)
        total = w.sum(axis=-1, keepdims=True)
        p = (1.0 - self.gamma) * w / total + self.gamma / self.n_arms[..., None]
        return np.where(mask, p, 0.0)

    # -- act / observe ----------------------------------------------------

    def act(self) -> np.ndarray:
        p = self._probs()
        if self.t <= self.T1:
            j = (self.t - 1) % self.N
            if j == 0:
                self._sweep = np.argsort(self._draw(self.N), axis=-1)
            arm = self._sweep[..., j]
        else:
            draw = self._draw()
            arm = np.minimum((draw[..., None] > p.cumsum(axis=-1)).sum(axis=-1),
                             self.n_arms - 1)
        self._arm = arm
        self._prob = np.take_along_axis(p, arm[..., None], -1)[..., 0]
        return (arm + self._draw()) / self.n_arms

    def observe(self, observed: np.ndarray) -> None:
        if self._arm is None:
            raise ProtocolError("observe called without a preceding act")
        if not np.all(np.isfinite(observed)):
            raise FeedbackError("observed utilities must be finite")
        arm = self._arm[..., None]
        in_phase1 = self.t <= self.T1
        if in_phase1:
            c0 = np.take_along_axis(self.counts, arm, -1)
            m0 = np.take_along_axis(self.mu_hat, arm, -1)
            np.put_along_axis(self.mu_hat, arm,
                              (m0 * c0 + observed[..., None]) / (c0 + 1), -1)
            np.put_along_axis(self.counts, arm, c0 + 1, -1)
        reward = self._normalize(observed)
        w0 = np.take_along_axis(self.weights, arm, -1)[..., 0]
        mult = np.exp(self.gamma * reward / (self.n_arms * self._prob))
        np.put_along_axis(self.weights, arm, (w0 * mult)[..., None], -1)
        self.weights /= self.weights.max(axis=-1, keepdims=True)
        if in_phase1 and self.t == self.T1:
            self._refine()
        self.t += 1
        self._arm = None
        self._prob = None

    def _refine(self) -> None:
        """End of Phase I: estimate the Lipschitz constant, pick the refined
        interval counts and build the Phase-II weights."""
        self.l_hat, self.l_tilde = lipschitz_estimate(self.mu_hat, self.N,
                                                      self.A, self.T)
        n_tilde = phase2_intervals(self.N, self.l_tilde, self.T)
        fine = np.zeros(n_tilde.shape + (int(n_tilde.max()),))
        for i in np.ndindex(n_tilde.shape):
            n = int(n_tilde[i])
            if self.with_init:
                fine[i][:n] = redistribute_weights(self.weights[i], self.N, n)
            else:
                fine[i][:n] = 1.0
        self.n_arms = n_tilde
        self.weights = fine / fine.max(axis=-1, keepdims=True)
