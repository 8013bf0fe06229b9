"""Full-information and random baselines: projected gradient play, best
response, and uniform random selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..game import GameSpec, task_utility

DEFAULT_ETA = 0.5
GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, tol: float = GOLDEN_TOL):
    """Golden-section maximization of an elementwise-unimodal function over
    [lo, hi]; works on scalars and arrays alike."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n_iter = int(math.ceil(math.log(tol / 1.0) / math.log(_INVPHI))) + 1
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(n_iter):
        shrink_right = fc >= fd
        hi = np.where(shrink_right, d, hi)
        lo = np.where(shrink_right, lo, c)
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        fc, fd = f(c), f(d)
    return (lo + hi) / 2.0


def best_response(k: int, x_others, spec: GameSpec) -> np.ndarray:
    """Node k's utility-maximizing action row against the other nodes'
    profile (each task is an independent 1-D concave maximization on
    [0, 1], solved by golden section to absolute tolerance 1e-8). A task's
    best response is 0 exactly when the slope at zero,
    1/(o + barrier) + eps - kappa with o the others' summed request, is <= 0."""
    x_others = np.asarray(x_others, dtype=float)
    if x_others.shape != (spec.K - 1, spec.M):
        raise ValueError(
            f"others' profile must have shape {(spec.K - 1, spec.M)}, got {x_others.shape}"
        )
    others_sum = x_others.sum(axis=0)
    rho, eps, kappa = spec.rho[k], spec.eps[k], spec.kappa[k]
    return golden_max(
        lambda z: task_utility(z, others_sum, rho, eps, kappa, spec.barrier),
        np.zeros(spec.M), np.ones(spec.M))


def br_profile(x: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Synchronous best response of every node against the given profile."""
    others_sum = x.sum(axis=0) - x
    rho, eps, kappa = spec.rho, spec.eps, spec.kappa
    return golden_max(
        lambda z: task_utility(z, others_sum, rho, eps, kappa, spec.barrier),
        np.zeros_like(x), np.ones_like(x))


@dataclass
class GpState:
    x: float
    eta: float = DEFAULT_ETA
    t: int = 1


def gp_step(state: GpState, exact_gradient: float):
    """Projected gradient step x <- clip(x + eta/sqrt(t) * grad, 0, 1)."""
    state.x = min(max(state.x + state.eta / math.sqrt(state.t) * exact_gradient,
                      0.0), 1.0)
    state.t += 1
    return state.x, state


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
