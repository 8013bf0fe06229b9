"""Full-information and random baselines: projected gradient play, best
response, and uniform random selection."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..game import GameSpec, task_utility

DEFAULT_ETA = 0.5
GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, shape, tol: float = GOLDEN_TOL):
    """Golden-section maximization over [0, 1] of an elementwise-unimodal f,
    for every element of an array of the given shape (() for a scalar).
    All brackets share one width, probed at lo + width/phi^2 and
    lo + width/phi; each iteration evaluates f at one new probe."""
    n_iter = int(math.ceil(math.log(tol) / math.log(_INVPHI))) + 1
    lo, width = np.zeros(shape), 1.0
    fc, fd = f(np.full(shape, _INVPHI ** 2)), f(np.full(shape, _INVPHI))
    for _ in range(n_iter):
        # fc >= fd keeps the left part and its old lower probe turns upper;
        # otherwise the right part is kept and the upper probe turns lower.
        keep_left = fc >= fd
        lo = np.where(keep_left, lo, lo + _INVPHI ** 2 * width)
        width *= _INVPHI
        fp = f(lo + np.where(keep_left, _INVPHI ** 2 * width, _INVPHI * width))
        fc, fd = np.where(keep_left, fp, fd), np.where(keep_left, fc, fp)
    return lo + width / 2.0


def br_profile(x: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Synchronous best response of every node against the given profile;
    x may be a (..., K, M) stack of profiles, each answered on its own.
    Row k depends only on the other rows: each task is an independent 1-D
    concave maximization on [0, 1], solved by golden section to absolute
    tolerance 1e-8. A task's best response is 0 exactly when the slope at
    zero, 1/(o + barrier) + eps - kappa with o the others' summed request,
    is <= 0."""
    others_sum = x.sum(axis=-2, keepdims=True) - x
    rho, eps, kappa = spec.rho, spec.eps, spec.kappa
    return golden_max(
        lambda z: task_utility(z, others_sum, rho, eps, kappa, spec.barrier),
        x.shape)


class GpBank:
    """Projected gradient play for all K x M coordinates; needs the exact
    gradient from the engine (full-information strategy)."""

    feedback_kind = "gradient"

    def __init__(self, spec, T: int, rng, eta: float = DEFAULT_ETA):
        if not eta > 0.0:
            raise ConfigurationError(f"eta must be > 0, got {eta}")
        self.eta = eta
        self.x = rng.random((spec.K, spec.M))
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
    to the previous round's joint profile (full-information strategy)."""

    feedback_kind = "profile"

    def __init__(self, spec, T: int, rng):
        self.spec = spec
        self.x = rng.random((spec.K, spec.M))

    def act(self) -> np.ndarray:
        return self.x

    def observe(self, profile: np.ndarray) -> None:
        self.x = br_profile(profile, self.spec)


class RsBank:
    """Uniformly random action fractions every round."""

    feedback_kind = "none"

    def __init__(self, spec, T: int, rng):
        self.rng = rng
        self.shape = (spec.K, spec.M)

    def act(self) -> np.ndarray:
        return self.rng.random(self.shape)

    def observe(self, _=None) -> None:
        pass
