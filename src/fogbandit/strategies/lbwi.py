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

from ..errors import ConfigurationError, FeedbackError, ProtocolError, require_integer
from ..game import utility_range
from ..streams import ReadAhead

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
    a positive multiple of N and at most N * ceil(T / N), the first multiple
    of N that reaches T: no more arms than rounds. The cap is taken in float,
    so a huge l_tilde (feedback noise sets it) cannot overflow the int cast."""
    lt = np.asarray(l_tilde, dtype=float)
    if np.any(lt <= 0.0) or T <= 0:
        raise ConfigurationError("l_tilde and T must be positive")
    n = np.ceil(lt ** (2.0 / 3.0) * T ** (1.0 / 3.0) / N)
    return N * np.clip(n, 1, math.ceil(T / N)).astype(int)


class LbwiBank:
    """All K x M independent interval learners of S replicas of one game,
    held as (S, K, M) arrays; each replica draws its sweep orders, arms and
    in-interval offsets from its own generator, in that order (read ahead in
    chunks: the same values from the same stream, in the same order)."""

    feedback_kind = "bandit"

    def __init__(self, spec, T: int, rngs, N: int = DEFAULT_INTERVALS,
                 gamma: float = DEFAULT_GAMMA, pulls_per_interval=None,
                 with_init: bool = True):
        # N >= 2: the Lipschitz estimate differences adjacent intervals
        require_integer("N", N, 2)
        if pulls_per_interval is None:
            pulls_per_interval = default_pulls_per_interval(T, N)
        require_integer("pulls_per_interval", pulls_per_interval, 1)
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma}")
        self.K, self.M = spec.K, spec.M
        self.T = T
        self.N = N
        self.gamma = gamma
        self.A = pulls_per_interval
        self.T1 = min(self.A * N, T)
        self.with_init = with_init
        self._uniform = ReadAhead(rngs, lambda g, n: g.random(n))
        self.u_lo, self.u_hi = utility_range(spec)

        shape = (len(rngs), self.K, self.M)
        self.mu_hat = np.zeros(shape + (N,))
        self.weights = np.ones(shape + (N,))
        self.n_arms = np.full(shape, N, dtype=int)   # per-learner arm count
        self._cells = np.arange(math.prod(shape)).reshape(shape)   # flat (s, k, m)
        self.l_hat = None
        self.l_tilde = None
        self.t = 1
        self._sweep = None
        self._arm = None
        self._wsum = None

    # -- helpers ----------------------------------------------------------

    def _normalize(self, observed):
        return ((observed - self.u_lo) / (self.u_hi - self.u_lo)).clip(0.0, 1.0)

    def _draw(self, *tail):
        """Every replica's next uniform values, shaped (S, K, M) + tail."""
        return self._uniform.take((self.K, self.M) + tail)

    def _probs(self):
        """EXP3's mixing distribution over the padded arm axis. Padded arms
        j >= n hold weight 0 (`_refine` writes it, `observe` scales only the
        played arm j < n); their floor gamma/n lifts the cumsum only past arm
        n - 1, so `act`'s sampler, clipped to n - 1, never returns one.
        Keeps the row sums for `observe`, which sees the same weights."""
        w, n = self.weights, self.n_arms[..., None]
        self._wsum = w.sum(axis=-1)
        return (1.0 - self.gamma) * w / self._wsum[..., None] + self.gamma / n

    # -- act / observe ----------------------------------------------------

    def act(self) -> np.ndarray:
        if self.t <= self.T1:
            j = (self.t - 1) % self.N
            if j == 0:
                self._sweep = np.argsort(self._draw(self.N), axis=-1)
            arm = self._sweep[..., j]
            self._wsum = self.weights.sum(axis=-1)   # for observe, as `_probs` keeps it
        else:
            draw = self._draw()
            arm = np.minimum((draw[..., None] > self._probs().cumsum(axis=-1))
                             .sum(axis=-1), self.n_arms - 1)
        self._arm = arm
        return (arm + self._draw()) / self.n_arms

    def observe(self, observed: np.ndarray) -> None:
        if self._arm is None:
            raise ProtocolError("observe called without a preceding act")
        if not np.all(np.isfinite(observed)):
            raise FeedbackError("observed utilities must be finite")
        # flat index of each learner's played arm; in Phase I mu_hat and the
        # weights both have N arms
        i = self._cells * self.weights.shape[-1] + self._arm
        if self.t <= self.T1:
            c0 = (self.t - 1) // self.N   # each sweep pulls every arm once
            mu = self.mu_hat.reshape(-1)
            mu[i] = (mu[i] * c0 + observed) / (c0 + 1)
        w, n = self.weights, self.n_arms
        flat = w.reshape(-1)
        w0 = flat[i]
        p0 = (1.0 - self.gamma) * w0 / self._wsum + self.gamma / n
        w1 = w0 * np.exp(self.gamma * self._normalize(observed) / (n * p0))
        flat[i] = w1
        # row max was 1.0; only a row whose played weight rose above 1 changes
        np.divide(w, w1[..., None], out=w, where=(w1 > 1.0)[..., None])
        if self.t == self.T1:
            self._refine()
        self.t += 1
        self._arm = None

    def _refine(self) -> None:
        """End of Phase I: estimate the Lipschitz constant, pick each
        learner's refined interval count n and build its Phase-II weights.
        Refined arm j < n inherits the weight of coarse arm (j * N) // n,
        scaled by N / n (each coarse arm gets n / N children, so the
        heaviest one's children stay heaviest); the plain variant refines
        uniform coarse weights, and padded arms j >= n get 0.
        The padded arms' parent is an extra coarse arm N of weight 0, so the
        only (S, K, M, max n) arrays are the parent indices and the result."""
        N = self.N
        self.l_hat, self.l_tilde = lipschitz_estimate(self.mu_hat, N, self.A, self.T)
        self.n_arms = phase2_intervals(N, self.l_tilde, self.T)
        n = self.n_arms[..., None]
        coarse = np.zeros(self.n_arms.shape + (N + 1,))
        coarse[..., :N] = self.weights if self.with_init else 1.0
        # (j * N) // n is below N for j < n and at least N for j >= n
        parents = (np.arange(int(n.max())) * N) // n
        np.minimum(parents, N, out=parents)
        parents += self._cells[..., None] * (N + 1)
        fine = coarse.reshape(-1)[parents]
        fine *= N / n
        fine /= fine.max(axis=-1, keepdims=True)
        self.weights = fine
