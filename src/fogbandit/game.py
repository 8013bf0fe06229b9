"""Task-allocation game: data model and closed-form math.

K fog nodes request fractions of M tasks. Requests are turned into shares
by proportional allocation with a small barrier constant in the denominator,
and each node's per-task utility is

    completion reward + power term - reservation cost

evaluated on the node's own request, the column sum of all requests and
that node's per-task indices (rho, eps, kappa). Utilities are additive over
tasks. Everything in this module is a pure function of its inputs.

The per-task utility, its own-action gradient and its two curvatures are
written once each, in the kernels task_utility, task_gradient, hessian_own
and hessian_others; every other evaluation in the package calls them.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Convexity of the utility in the other nodes' actions is only guaranteed
# for efficiency indices above this threshold; lower values get a warning.
RHO_CONVEXITY_THRESHOLD = 0.5
GRID_RESOLUTION = 100      # points per axis of estimate_bounds' grid
# Most grid points one kernel call of estimate_bounds sees; at least one
# (node, task) plane of GRID_RESOLUTION^2 points. At 100 points per axis a
# slab is one plane, 80 KB per temporary: the fastest size measured, where
# slabs of 2 to 6 planes took 1.2-2x as long.
BOUNDS_SLAB_ELEMENTS = 1 << 14


def _as_index_matrix(m, name: str) -> np.ndarray:
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a matrix of numbers: {exc}") from None
    if m.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if m.size == 0:
        raise ConfigurationError(f"{name} is empty, shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    if np.any(m <= 0.0) or np.any(m > 1.0):
        raise ConfigurationError(f"{name} entries must lie in (0, 1]")
    return m


@dataclass
class GameSpec:
    """Parameterization of one task-allocation game.

    rho, eps, kappa are K x M matrices of efficiency, power-consumption and
    cost indices, all in (0, 1], and rho is at least 1e-100. The kernels
    divide by rho*s and rho*s**4, with s at least the barrier; near the
    origin these underflow to 0 and give inf or nan from about rho = 1e-300
    at the default barrier, so the floor leaves 200 decades to spare.
    `barrier` is the constant added to every allocation denominator, at
    least 1e-50: at an empty column the kernels divide by powers of it, and
    at rho = 1e-100 the curvatures are inf or nan there from about 1e-56.
    `noise_std` is the std of the Gaussian feedback noise added per (node,
    task) observation, at most 1e100, mirroring rho's floor: llr multiplies
    a mean by its pull count.
    """

    rho: np.ndarray
    eps: np.ndarray
    kappa: np.ndarray
    barrier: float = 1e-6
    noise_std: float = 0.01

    def __post_init__(self):
        self.rho = _as_index_matrix(self.rho, "rho")
        self.eps = _as_index_matrix(self.eps, "eps")
        self.kappa = _as_index_matrix(self.kappa, "kappa")
        if np.any(self.rho < 1e-100):
            raise ConfigurationError(
                f"rho entries must be >= 1e-100, got {self.rho.min()}")
        if self.eps.shape != self.rho.shape or self.kappa.shape != self.rho.shape:
            raise ConfigurationError(
                f"index matrices disagree in shape: rho {self.rho.shape}, "
                f"eps {self.eps.shape}, kappa {self.kappa.shape}"
            )
        for name in ("barrier", "noise_std"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
            setattr(self, name, float(value))
        if not (np.isfinite(self.barrier) and self.barrier > 0.0):
            raise ConfigurationError(
                f"barrier must be finite and > 0, got {self.barrier}")
        if self.barrier < 1e-50:
            raise ConfigurationError(f"barrier must be >= 1e-50, got {self.barrier}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ConfigurationError(
                f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.noise_std > 1e100:
            raise ConfigurationError(
                f"noise_std must be <= 1e100, got {self.noise_std}")
        low = self.rho <= RHO_CONVEXITY_THRESHOLD
        if np.any(low):
            ks, ms = np.nonzero(low)
            warnings.warn(
                f"rho <= {RHO_CONVEXITY_THRESHOLD} at (node, task) pairs "
                f"{list(zip(ks.tolist(), ms.tolist()))}: convexity in others' "
                "actions is not guaranteed there",
                stacklevel=2,
            )

    @property
    def K(self) -> int:
        return self.rho.shape[0]

    @property
    def M(self) -> int:
        return self.rho.shape[1]

    def to_json(self) -> str:
        doc = {
            "K": self.K,
            "M": self.M,
            "rho": self.rho.tolist(),
            "eps": self.eps.tolist(),
            "kappa": self.kappa.tolist(),
            "barrier": self.barrier,
            "noise_std": self.noise_std,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GameSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigurationError("a game spec must be a JSON object, got "
                                     f"a JSON {type(doc).__name__}")
        missing = [key for key in ("rho", "eps", "kappa") if key not in doc]
        if missing:
            raise ConfigurationError(f"game spec lacks {', '.join(missing)}")
        spec = cls(rho=doc["rho"], eps=doc["eps"], kappa=doc["kappa"],
                   barrier=doc.get("barrier", cls.barrier),
                   noise_std=doc.get("noise_std", cls.noise_std))
        for key in ("K", "M"):
            if key in doc and doc[key] != getattr(spec, key):
                raise ConfigurationError(
                    f"declared {key}={doc[key]} does not match matrix shape"
                )
        return spec


@dataclass
class Bounds:
    """Grid-estimated bounds on the per-task utility: Lipschitz constant L,
    utility magnitude U and curvature magnitude H (all include a 1.1 safety
    factor over the empirical grid maxima)."""

    L: float
    U: float
    H: float

    def __post_init__(self):
        if not (self.L > 0 and self.U > 0 and self.H > 0):
            raise ConfigurationError(f"bounds must be strictly positive, got {self}")


# The four per-task kernels: x_own is a node's request for one task and
# x_others the other nodes' summed request for it. Every argument broadcasts.

def task_utility(x_own, x_others, rho, eps, kappa, barrier):
    """Per-task utility
    rho*(1 - exp(-x_own/(rho*s))) + eps*(x_own + x_others) - kappa*x_own
    with s = x_own + x_others + barrier."""
    total = x_own + x_others
    s = total + barrier
    return rho * (1.0 - np.exp(-x_own / (rho * s))) + eps * total - kappa * x_own


def task_gradient(x_own, x_others, rho, eps, kappa, barrier):
    """d(task_utility)/d(x_own); the barrier makes it total on [0,1]^2."""
    s = x_own + x_others + barrier
    return ((x_others + barrier) * np.exp(-x_own / (rho * s)) / (s * s)
            + eps - kappa)


def hessian_own(x_own, x_others, rho, barrier):
    """Second derivative of task_utility in the own action; non-positive
    everywhere (the utility is concave in the own action)."""
    b = x_others + barrier
    s = x_own + b
    return -np.exp(-x_own / (rho * s)) * (2.0 * b / s**3 + b * b / (rho * s**4))


def hessian_others(x_own, x_others, rho, barrier):
    """Curvature of task_utility in the others' summed action; non-negative
    whenever rho > 0.5 (convexity in others)."""
    b = x_others + barrier
    s = x_own + b
    return (np.exp(-x_own / (rho * s))
            * (2.0 * rho * x_own * b + (2.0 * rho - 1.0) * x_own * x_own)
            / (rho * s**4))


def utility_matrix(x: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Per-(node, task) clean utilities at profile x, shape (..., K, M)."""
    return task_utility(x, x.sum(axis=-2, keepdims=True) - x, spec.rho,
                        spec.eps, spec.kappa, spec.barrier)


def gradient_matrix(x: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Per-(node, task) own-action utility gradients at profile x, shape
    (..., K, M)."""
    return task_gradient(x, x.sum(axis=-2, keepdims=True) - x, spec.rho,
                         spec.eps, spec.kappa, spec.barrier)


def estimate_bounds(spec: GameSpec) -> Bounds:
    """Estimate (L, U, H) by scanning a uniform grid of (own action,
    others' sum) pairs for every (node, task) index triple.

    The others'-sum axis spans [0.5, K-1]: near-empty columns are excluded
    because their sensitivity is pinned by the barrier (gradient magnitude
    grows like 1/(column sum + barrier) there) rather than by the
    competition the learners actually face. Results carry a 1.1 safety
    factor against grid undersampling. The grid is scanned in slabs along
    the flattened (node, task) axis, so no kernel call sees more than
    BOUNDS_SLAB_ELEMENTS points and memory does not grow with K*M. A max is
    exact in any order: every bound is bitwise that of a one-shot scan.
    """
    xg = np.linspace(0.0, 1.0, GRID_RESOLUTION)[:, None, None]
    og = np.linspace(0.5, max(spec.K - 1.0, 0.5), GRID_RESOLUTION)[None, :, None]
    rho, eps, kap = (a.ravel() for a in (spec.rho, spec.eps, spec.kappa))
    d = spec.barrier
    kernels = (lambda r, e, k: task_gradient(xg, og, r, e, k, d),
               lambda r, e, k: task_utility(xg, og, r, e, k, d),
               lambda r, e, k: hessian_own(xg, og, r, d),
               lambda r, e, k: hessian_others(xg, og, r, d))
    width = max(1, BOUNDS_SLAB_ELEMENTS // GRID_RESOLUTION**2)
    peaks = np.zeros(len(kernels))
    for c in range(0, rho.size, width):
        slab = [a[c:c + width] for a in (rho, eps, kap)]
        # one kernel's values are alive at a time; np.maximum keeps a nan
        np.maximum(peaks, [np.abs(kernel(*slab)).max() for kernel in kernels],
                   out=peaks)
    L, U, h_own, h_others = (1.1 * float(v) for v in peaks)
    return Bounds(L=L, U=U, H=max(h_own, h_others))


def utility_range(spec: GameSpec) -> tuple[float, float]:
    """Closed-form envelope [u_min, u_max] of the per-task utility: the
    reward term is at most max(rho), the power term at most max(eps)*K and
    the cost at most max(kappa). Used to map rewards affinely into [0, 1]."""
    u_min = -float(spec.kappa.max())
    u_max = float(spec.rho.max() + spec.eps.max() * spec.K)
    return u_min, u_max
