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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..errors import FeedbackError, ProtocolError


def hungarian_match(weights) -> np.ndarray:
    """Maximum-weight assignment of nodes to tasks, injective on tasks.

    Returns an array of task indices per node, -1 for unmatched nodes
    (exactly min(K, M) nodes are matched). Among value-equal optima the
    result is canonical: scanning nodes in index order, each matched node
    takes the lowest-index task consistent with optimality.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or not np.all(np.isfinite(w)):
        raise ValueError("weight matrix must be 2-D and finite")
    K, M = w.shape
    rows, cols = linear_sum_assignment(w, maximize=True)
    best = w[rows, cols].sum()
    tol = 1e-9 * max(1.0, abs(best))

    assignment = np.full(K, -1, dtype=int)
    fixed_value = 0.0
    free_nodes = list(range(K))
    free_tasks = list(range(M))
    matched_quota = min(K, M)
    for k in range(K):
        if matched_quota == 0:
            break
        free_nodes.remove(k)
        chosen = -1
        for t in sorted(free_tasks):
            rest = 0.0
            if free_nodes and len(free_tasks) > 1:
                sub = w[np.ix_(free_nodes, [x for x in free_tasks if x != t])]
                r, c = linear_sum_assignment(sub, maximize=True)
                rest = sub[r, c].sum()
            if fixed_value + w[k, t] + rest >= best - tol:
                chosen = t
                break
        if chosen >= 0:
            assignment[k] = chosen
            fixed_value += w[k, chosen]
            free_tasks.remove(chosen)
            matched_quota -= 1
        else:
            # leaving k unmatched must itself be optimal (only when K > M)
            sub = w[np.ix_(free_nodes, free_tasks)]
            r, c = linear_sum_assignment(sub, maximize=True)
            if fixed_value + sub[r, c].sum() < best - tol:
                raise RuntimeError("assignment refinement lost optimality")
    return assignment


@dataclass
class LlrState:
    """Coordinator state: per-pair sample means and observation counts."""

    theta_hat: np.ndarray
    counts: np.ndarray
    t: int = 1
    xi: int = field(default=0)

    @classmethod
    def fresh(cls, K: int, M: int) -> "LlrState":
        return cls(theta_hat=np.zeros((K, M)), counts=np.zeros((K, M), dtype=int),
                   xi=min(K, M))


def llr_ucb_weights(state: LlrState) -> np.ndarray:
    """Per-pair confidence-bound weights theta_hat + sqrt((xi+1) ln t / count)."""
    if np.any(state.counts < 1):
        raise ProtocolError("warm-up incomplete: some (node, task) pair unobserved")
    return state.theta_hat + np.sqrt((state.xi + 1) * math.log(state.t) / state.counts)


def llr_record(state: LlrState, assignment: np.ndarray, observed: np.ndarray) -> None:
    """Fold observed utilities of the played pairs into the sample means."""
    for k, m in enumerate(assignment):
        if m < 0:
            continue
        c = state.counts[k, m]
        state.theta_hat[k, m] = (state.theta_hat[k, m] * c + observed[k, m]) / (c + 1)
        state.counts[k, m] = c + 1


class LlrBank:
    """Engine adapter: emits one-hot action rows, learns from the played
    pairs' observed utilities. The round loop matches with the plain
    assignment solver (canonical tie-breaking is left to hungarian_match;
    continuous noisy weights make value ties a measure-zero event)."""

    feedback_kind = "bandit"

    def __init__(self, spec, T: int, rng):
        self.K, self.M = spec.K, spec.M
        self.state = LlrState.fresh(self.K, self.M)
        self._assignment = None

    def act(self) -> np.ndarray:
        t = self.state.t
        if t <= self.M:
            assignment = np.array([(k + t - 1) % self.M for k in range(self.K)])
        else:
            w = llr_ucb_weights(self.state)
            rows, cols = linear_sum_assignment(w, maximize=True)
            assignment = np.full(self.K, -1, dtype=int)
            assignment[rows] = cols
        self._assignment = assignment
        x = np.zeros((self.K, self.M))
        for k, m in enumerate(assignment):
            if m >= 0:
                x[k, m] = 1.0
        return x

    def observe(self, observed: np.ndarray) -> None:
        if self._assignment is None:
            raise ProtocolError("observe called without a preceding act")
        if not np.all(np.isfinite(observed)):
            raise FeedbackError("observed utilities must be finite")
        llr_record(self.state, self._assignment, observed)
        self.state.t += 1
        self._assignment = None

