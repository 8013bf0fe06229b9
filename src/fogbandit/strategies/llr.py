"""Centralized matching benchmark: confidence-bound estimates plus maximum
weight bipartite matching.

Unlike the distributed learners, one coordinator assigns each node to at
most one task per round (a full task fraction of 1). A warm-up sweep plays
node k on task (k + t) mod M for M rounds, which observes every
(node, task) pair at least once for any K; afterwards the round's
assignment maximizes the summed per-pair confidence-bound weights.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..errors import FeedbackError, ProtocolError


class LlrBank:
    """Coordinator state (per-pair sample means `theta_hat` and observation
    counts, (S, K, M) for S replicas) behind the engine's act/observe
    surface: emits one-hot action rows, one assignment per replica, and
    learns from the played pairs' observed utilities. The
    assignment solver's own tie-breaking is kept; continuous noisy weights
    make value ties a measure-zero event."""

    feedback_kind = "bandit"

    def __init__(self, spec, T: int, rngs):
        self.K, self.M = spec.K, spec.M
        self.theta_hat = np.zeros((len(rngs), self.K, self.M))
        self.counts = np.zeros(self.theta_hat.shape, dtype=int)
        self.xi = min(self.K, self.M)
        # (S, 1): replica s's first row in the flat (S * K, M) layout
        self._replica_base = np.arange(len(rngs))[:, None] * self.K
        self.t = 1
        self._played = None

    def ucb_weights(self) -> np.ndarray:
        """Per-pair confidence-bound weights theta_hat + sqrt((xi+1) ln t / count)."""
        if np.any(self.counts < 1):
            raise ProtocolError("warm-up incomplete: some (node, task) pair unobserved")
        return self.theta_hat + np.sqrt((self.xi + 1) * math.log(self.t) / self.counts)

    def act(self) -> np.ndarray:
        if self.t <= self.M:
            rows = np.arange(self.K)
            cols = (rows + self.t - 1) % self.M
        else:
            pairs = np.array([linear_sum_assignment(w, maximize=True)
                              for w in self.ucb_weights()])       # (S, 2, n)
            rows, cols = pairs[:, 0], pairs[:, 1]
        # flat indices of the played pairs, replica by replica, distinct
        # because the nodes are; warm-up rows broadcast over the replicas
        self._played = ((self._replica_base + rows) * self.M + cols).ravel()
        x = np.zeros(self.theta_hat.shape)
        x.ravel()[self._played] = 1.0
        return x

    def observe(self, observed: np.ndarray) -> None:
        if self._played is None:
            raise ProtocolError("observe called without a preceding act")
        if not np.all(np.isfinite(observed)):
            raise FeedbackError("observed utilities must be finite")
        i = self._played
        theta, counts = self.theta_hat.ravel(), self.counts.ravel()   # views
        c = counts[i]
        theta[i] = (theta[i] * c + observed.ravel()[i]) / (c + 1)
        counts[i] = c + 1
        self.t += 1
        self._played = None
