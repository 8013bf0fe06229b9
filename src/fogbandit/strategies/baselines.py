"""Full-information and random baselines: projected gradient play, best
response, and uniform random selection; and the golden-section search that
certifies best responses."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..game import task_best_response, task_utility
from ..streams import ReadAhead

DEFAULT_ETA = 0.5
GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_ITER = int(math.ceil(math.log(GOLDEN_TOL) / math.log(_INVPHI))) + 1


def golden_max(f, shape):
    """Golden-section maximization over [0, 1] of an elementwise-unimodal f,
    for every element of an array of the given shape (() for a scalar), to
    absolute tolerance GOLDEN_TOL.
    All brackets share one width, probed at lo + width/phi^2 and
    lo + width/phi; each iteration evaluates f at one new probe."""
    lo, width = np.zeros(shape), 1.0
    fc, fd = f(np.full(shape, _INVPHI ** 2)), f(np.full(shape, _INVPHI))
    for _ in range(_N_ITER):
        # fc >= fd keeps the left part and its old lower probe turns upper;
        # otherwise the right part is kept and the upper probe turns lower.
        keep_left = fc >= fd
        lo = np.where(keep_left, lo, lo + _INVPHI ** 2 * width)
        width *= _INVPHI
        fp = f(lo + np.where(keep_left, _INVPHI ** 2 * width, _INVPHI * width))
        fc, fd = np.where(keep_left, fp, fd), np.where(keep_left, fc, fp)
    return lo + width / 2.0


def br_profile(x: np.ndarray, game, others=None) -> np.ndarray:
    """Synchronous best response of every node against the given profile;
    x may be a (..., K, M) stack of profiles, each answered on its own.
    Row k depends only on the other rows: each task is an independent 1-D
    concave maximization on [0, 1], solved in closed form elementwise by
    task_best_response. A task's best response is 0 exactly when the slope
    at zero, 1/(o + barrier) + eps - kappa with o the others' summed
    request, is <= 0. game and others are as for utility_matrix."""
    if others is None:
        others = x.sum(axis=-2, keepdims=True) - x
    return task_best_response(others, game.rho, game.eps, game.kappa,
                              game.barrier, game.br_terms)


def golden_br_profile(x: np.ndarray, game) -> np.ndarray:
    """br_profile found by golden-section search on task_utility alone, to
    absolute tolerance GOLDEN_TOL: epsilon_gap's certificate, which uses
    nothing of the closed form it certifies. `game` is a StackedGame whose
    leading shape broadcasts against x's. The search runs on flat arrays
    of x's shape, so no probe broadcasts the index matrices against the
    stack."""
    others_sum = (x.sum(axis=-2, keepdims=True) - x).ravel()
    rho, eps, kappa = (np.broadcast_to(a, x.shape).ravel()
                       for a in (game.rho, game.eps, game.kappa))
    return golden_max(
        lambda z: task_utility(z, others_sum, rho, eps, kappa, game.barrier),
        others_sum.shape).reshape(x.shape)


class GpBank:
    """Projected gradient play for all K x M coordinates of S replicas;
    needs the exact gradient from the engine (full-information strategy)."""

    feedback_kind = "gradient"

    def __init__(self, spec, T: int, rngs, eta: float = DEFAULT_ETA):
        if not eta > 0.0:
            raise ConfigurationError(f"eta must be > 0, got {eta}")
        self.eta = eta
        self.x = np.array([g.random((spec.K, spec.M)) for g in rngs])
        self.t = 1
        self._acted = False

    def act(self) -> np.ndarray:
        self._acted = True
        return self.x

    def observe(self, gradient: np.ndarray) -> None:
        if not self._acted:
            raise ProtocolError("observe called without a preceding act")
        np.clip(self.x + self.eta / math.sqrt(self.t) * gradient, 0.0, 1.0,
                out=self.x)
        self.t += 1
        self._acted = False


class BrBank:
    """Best-response dynamics: each round every node plays the best response
    to the previous round's profile, fed back by the engine (full-information)."""

    feedback_kind = "best_response"

    def __init__(self, spec, T: int, rngs):
        self.x = np.array([g.random((spec.K, spec.M)) for g in rngs])

    def act(self) -> np.ndarray:
        return self.x

    def observe(self, best_response: np.ndarray) -> None:
        self.x = best_response


class RsBank:
    """Uniformly random action fractions every round."""

    feedback_kind = "none"

    def __init__(self, spec, T: int, rngs):
        self._actions = ReadAhead(rngs, lambda g, n: g.random(n))
        self.shape = (spec.K, spec.M)

    def act(self) -> np.ndarray:
        return self._actions.take(self.shape)

    def observe(self, _=None) -> None:
        pass
