"""Bandit gradient ascent with momentum.

Each (node, task) learner works on the action interval [0, 1] shifted to
[-xi, xi]. Every round it perturbs its running point y by +/- sigma, plays
the perturbed action, and treats (observed utility) * (perturbation sign)
as a one-point estimate of the scaled gradient. A momentum accumulator
smooths the estimates and y follows projected ascent steps nu / sqrt(t) on
the shrunk interval [-(1-alpha)*xi, (1-alpha)*xi], which keeps every played
action inside [0, 1]. Plain bandit gradient descent/ascent is the beta = 0
special case.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..game import Bounds
from ..streams import ReadAhead

DEFAULT_XI = 0.5
DEFAULT_BETA = 0.95
DEFAULT_NU = 0.02


def perturbation_radius(T: int, bounds: Bounds, xi: float) -> tuple[float, float]:
    """Horizon-tuned perturbation radius sigma = T^(-1/4) *
    sqrt(R*U*r / (3*(L*r + U))) with the inner/outer radii r = R = xi, and
    the matching interval-shrink factor alpha = sigma / xi. sigma is clamped
    below xi/2 if the formula exceeds it."""
    if T < 2:
        raise ConfigurationError(f"horizon must be >= 2, got {T}")
    if not 0.0 < xi <= 0.5:
        raise ConfigurationError(
            f"xi must lie in (0, 0.5] so that y + sigma*c + xi stays in [0, 1], "
            f"got {xi}")
    r = xi
    sigma = T ** -0.25 * math.sqrt(r * bounds.U * r / (3.0 * (bounds.L * r + bounds.U)))
    sigma = min(sigma, 0.499 * xi)
    return sigma, sigma / r


class BgamBank:
    """All K x M independent learners of S replicas of one game, updated as
    (S, K, M) arrays; each replica draws its signs from its own generator
    (one sign draw per learner per round, read ahead in chunks: the same
    values from the same stream, in the same order)."""

    feedback_kind = "bandit"

    def __init__(self, spec, T: int, bounds: Bounds, rngs, xi: float = DEFAULT_XI,
                 beta: float = DEFAULT_BETA, nu: float = DEFAULT_NU):
        if not 0.0 <= beta < 1.0:
            raise ConfigurationError(f"momentum coefficient must be in [0, 1), got {beta}")
        if not nu > 0.0:
            raise ConfigurationError(f"step size nu must be > 0, got {nu}")
        self.sigma, self.alpha = perturbation_radius(T, bounds, xi)
        self.xi = xi
        self.beta = beta
        self.nu = nu
        self._signs = ReadAhead(rngs, lambda g, n: g.integers(0, 2, n))
        self.shape = (spec.K, spec.M)
        self.y = np.zeros((len(rngs),) + self.shape)
        self.v = np.zeros_like(self.y)
        self.t = 1
        self._c = None

    def act(self) -> np.ndarray:
        up = self._signs.take(self.shape)
        self._c = np.where(up, 1.0, -1.0)
        # exact arithmetic keeps this in [0, 1]; the clip absorbs the rounding
        # of (1 - alpha) * xi, which can leave -1e-17 at the lower bound
        return (self.y + np.where(up, self.sigma, -self.sigma) + self.xi).clip(0.0, 1.0)

    def observe(self, observed: np.ndarray) -> None:
        if self._c is None:
            raise ProtocolError("observe called without a preceding act")
        self.v = self.beta * self.v + observed * self._c
        bound = (1.0 - self.alpha) * self.xi
        (self.y + self.nu / math.sqrt(self.t) * self.v).clip(-bound, bound,
                                                             out=self.y)
        self.t += 1
        self._c = None
