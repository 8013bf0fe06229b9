"""Task-allocation game: data model and closed-form math.

K fog nodes request fractions of M tasks. Requests are turned into shares
by proportional allocation with a small barrier constant in the denominator,
and each node's per-task utility is

    completion reward + power term - reservation cost

evaluated on the node's own request, the column sum of all requests and
that node's per-task indices (rho, eps, kappa). Utilities are additive over
tasks. Everything in this module is a pure function of its inputs.

The per-task utility, its own-action gradient, its two curvatures and its
best response are written once each, in the kernels task_utility,
task_gradient, hessian_own, hessian_others and task_best_response; every
other evaluation in the package calls them. estimate_bounds also bounds
the first four over blocks of its grid in closed form, to skip blocks.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import wrightomega

from .errors import ConfigurationError

# Convexity of the utility in the other nodes' actions is only guaranteed
# for efficiency indices above this threshold; lower values get a warning.
RHO_CONVEXITY_THRESHOLD = 0.5
GRID_RESOLUTION = 100      # points per axis of estimate_bounds' grid
BOUNDS_BLOCK = 10          # grid points per axis of one block of that grid
# Each block ceiling adds this much of the summed magnitudes of its terms:
# the float kernels and ceilings round by a few ulps of those, which is
# more than a relative margin when the terms cancel.
_CEILING_SLACK = 1e-6
# Most points one kernel call of estimate_bounds sees, and most planes x
# blocks in one ceiling array; at least one lattice row and one block. At
# 100 points per axis a call covers the block-corner lattice of up to 135
# (node, task) planes, or up to 163 blocks, 128 KB per temporary. Measured
# on 2 vCPUs, caps of 8192 to 32768 were as fast within noise; 4096 took
# 1.4x as long and 65536 1.2-1.3x on random 20 x 20 and 50 x 50 games.
BOUNDS_SLAB_ELEMENTS = 1 << 14
# The open unit interval's end points: task_best_response keeps an interior
# root off 0 and 1, which it returns only where the slopes say so.
_ABOVE_0, _BELOW_1 = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


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


# The five per-task kernels: x_own is a node's request for one task and
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


def best_response_terms(rho, eps, kappa):
    """task_best_response's game-only terms, (ln(kappa - eps), 0.5/rho,
    ln(2*rho)); ln(kappa - eps) is 0 where kappa <= eps, whose best
    response the slopes decide."""
    c = np.asarray(kappa - eps, dtype=float)
    return (np.log(c, out=np.zeros(c.shape), where=c > 0.0), 0.5 / rho,
            np.log(2.0 * rho))


def task_best_response(x_others, rho, eps, kappa, barrier, terms):
    """The x_own in [0, 1] that maximizes task_utility against x_others, in
    closed form; every element is answered on its own. `terms` is
    best_response_terms(rho, eps, kappa).

    With b = x_others + barrier, w = x_own + b and c = kappa - eps,
    task_gradient = 0 reads b*exp(-(w - b)/(rho*w))/w**2 = c. In
    v = b/(rho*w) that is (v/2)*exp(v/2) = sqrt(c*b)*exp(1/(2*rho))/(2*rho),
    whose left side decreases strictly in w, so for c > 0 there is exactly
    one root:
        x_own = b/(rho*v) - b,  v = 2*omega(ln(c*b)/2 + 1/(2*rho) - ln(2*rho))
    with omega the Wright omega function, omega(t) = W(exp(t)) for the
    Lambert W (Corless et al., "On the Lambert W function", 1996), which
    does not overflow even at rho = 1e-100. The utility is concave in x_own,
    so its maximizer on [0, 1] is 0 where the slope at 0 is <= 0, 1 where
    the slope at 1 is >= 0 (always when c <= 0), and otherwise the root,
    kept inside (0, 1) against rounding. ln(c) is taken only where c > 0.
    """
    log_c, half_inv_rho, log_2rho = terms
    b = x_others + barrier
    v = 2.0 * wrightomega(0.5 * (log_c + np.log(b)) + half_inv_rho - log_2rho)
    root = np.minimum(np.maximum(b / (rho * v) - b, _ABOVE_0), _BELOW_1)
    at_0 = task_gradient(0.0, x_others, rho, eps, kappa, barrier) <= 0.0
    at_1 = task_gradient(1.0, x_others, rho, eps, kappa, barrier) >= 0.0
    return np.where(at_0, 0.0, np.where(at_1, 1.0, root))


@dataclass(frozen=True)
class StackedGame:
    """A game's index matrices and task_best_response's game-only terms,
    broadcast to a leading shape by stack_game: the one object the matrix
    forms read. At a stack's own leading shape no kernel operation
    broadcasts them against it; at a shorter one they do, and every kernel
    gives the same values bit for bit."""

    rho: np.ndarray
    eps: np.ndarray
    kappa: np.ndarray
    barrier: float
    br_terms: tuple                   # best_response_terms(rho, eps, kappa)


def stack_game(spec: GameSpec, *lead: int) -> StackedGame:
    """spec's index matrices and best-response terms as contiguous
    lead + (K, M) arrays; stack_game(spec) holds the (K, M) matrices. The
    terms are taken on the (K, M) matrices and then copied: a vector log
    need not round an element alike at every position of a longer array."""
    def stack(m):
        return np.broadcast_to(m, lead + m.shape).copy()
    terms = best_response_terms(spec.rho, spec.eps, spec.kappa)
    return StackedGame(stack(spec.rho), stack(spec.eps), stack(spec.kappa),
                       spec.barrier, tuple(map(stack, terms)))


# The matrix forms read a StackedGame whose leading shape broadcasts against
# x's, and `others`, the column sum minus x, where the caller holds it.

def utility_matrix(x: np.ndarray, game, others=None) -> np.ndarray:
    """Per-(node, task) clean utilities at profile x, shape (..., K, M)."""
    if others is None:
        others = x.sum(axis=-2, keepdims=True) - x
    return task_utility(x, others, game.rho, game.eps, game.kappa, game.barrier)


def gradient_matrix(x: np.ndarray, game, others=None) -> np.ndarray:
    """Per-(node, task) own-action utility gradients at profile x, shape
    (..., K, M)."""
    if others is None:
        others = x.sum(axis=-2, keepdims=True) - x
    return task_gradient(x, others, game.rho, game.eps, game.kappa, game.barrier)


# Ceilings on the float |kernel| over one block of estimate_bounds' grid,
# x_own in [x0, x1] and x_others in [o0, o1] (derivations there). With
# b = x_others + barrier and s = x_own + b, the decay exp(-x_own/(rho*s)) is
# largest at (x0, o1) and smallest at (x1, o0): x_own/s rises in x_own and
# falls in x_others.

def _decay(x_own, x_others, rho, barrier):
    return np.exp(-x_own / (rho * (x_own + x_others + barrier)))


def _gradient_ceiling(x0, x1, o0, o1, rho, eps, kappa, barrier):
    """task_gradient's first term b*decay/s**2 lies in [0, top]."""
    c = eps - kappa
    top = ((o1 + barrier) * _decay(x0, o1, rho, barrier)
           / (x0 + o0 + barrier) ** 2)
    return (np.maximum(np.abs(c), np.abs(top + c))
            + _CEILING_SLACK * (top + eps + kappa))


def _utility_ceiling(x0, x1, o0, o1, rho, eps, kappa, barrier):
    """task_utility's reward rho*(1 - decay) rises in x_own and falls in
    x_others; its linear part (eps - kappa)*x_own + eps*x_others has its
    extremes at the block's corners."""
    c = eps - kappa
    top = (rho * (1.0 - _decay(x1, o0, rho, barrier))
           + np.maximum(c * x0, c * x1) + eps * o1)
    bottom = (rho * (1.0 - _decay(x0, o1, rho, barrier))
              + np.minimum(c * x0, c * x1) + eps * o0)
    return (np.maximum(np.abs(top), np.abs(bottom))
            + _CEILING_SLACK * (rho + eps * (x1 + o1) + kappa * x1))


def _hessian_own_ceiling(x0, x1, o0, o1, rho, barrier):
    b, s = o1 + barrier, x0 + o0 + barrier
    return ((1.0 + _CEILING_SLACK) * _decay(x0, o1, rho, barrier)
            * (2.0 * b / s**3 + b * b / (rho * s**4)))


def _hessian_others_ceiling(x0, x1, o0, o1, rho, barrier):
    b, s = o1 + barrier, x0 + o0 + barrier
    return ((1.0 + _CEILING_SLACK) * _decay(x0, o1, rho, barrier)
            * (2.0 * rho * x1 * b + np.abs(2.0 * rho - 1.0) * x1 * x1)
            / (rho * s**4))


def estimate_bounds(spec: GameSpec) -> Bounds:
    """Estimate (L, U, H) as the largest |kernel| on a uniform grid of (own
    action, others' sum) pairs for every (node, task) index triple.

    The others'-sum axis spans [0.5, K-1]: near-empty columns are excluded
    because their sensitivity is pinned by the barrier (gradient magnitude
    grows like 1/(column sum + barrier) there) rather than by the
    competition the learners actually face. Results carry a 1.1 safety
    factor against grid undersampling.

    The grid is scanned by branch and bound. It is cut into blocks of
    BOUNDS_BLOCK points per axis, the last one shorter where
    GRID_RESOLUTION is not a multiple of it.
    - The floor is the largest |kernel| on the lattice of block corners
      (every BOUNDS_BLOCK-th grid point and the last, on both axes) over
      all planes: a grid value, so never above the grid's max.
    - Each (plane, block) gets a closed-form ceiling on |kernel| over the
      block's box x_own in [x0, x1], x_others in [o0, o1]. With
      E = exp(-x0/(rho*(x0 + o1 + barrier))) bounding the decay,
      b = o1 + barrier and s = x0 + o0 + barrier:
        task_gradient   max(|eps - kappa|, |b*E/s**2 + eps - kappa|);
        task_utility    max(|R(x1, o0) + lin_max|, |R(x0, o1) + lin_min|),
                        R = rho*(1 - decay), lin the linear part's corners;
        hessian_own     E*(2*b/s**3 + b**2/(rho*s**4));
        hessian_others  E*(2*rho*x1*b + |2*rho - 1|*x1**2)/(rho*s**4).
      To each it adds _CEILING_SLACK times the summed magnitudes of its
      terms (for the curvatures, whose terms are non-negative, a relative
      slack). That covers the rounding of the float kernel and ceiling
      even where eps - kappa cancels the rest.
    - A block is skipped only when its ceiling is below the running floor,
      so a nan floor or ceiling skips nothing. Every other block is
      evaluated with the same kernel on the same linspace floats and
      raises the floor.
    Every skipped block holds only values below the floor, the kernels are
    elementwise and a max is exact in any order: L, U and H are bitwise
    those of the full scan. On the 10 x 10 dataset 2% of the grid's points
    are evaluated.

    The planes come first in every call, and no kernel call sees more than
    BOUNDS_SLAB_ELEMENTS points, so memory does not grow with K*M. The two
    curvatures read only rho, so they run once per distinct rho; H is their
    joint max, so hessian_own's max is hessian_others' first floor.
    """
    G, B = GRID_RESOLUTION, BOUNDS_BLOCK
    xg = np.linspace(0.0, 1.0, G)
    og = np.linspace(0.5, max(spec.K - 1.0, 0.5), G)
    d = spec.barrier
    first = np.arange(0, G, B)
    # each block's grid indices, the last block padded with its last point
    block = np.minimum(first[:, None] + np.arange(B), G - 1)
    x0, x1 = xg[first, None], xg[block[:, -1], None]
    o0, o1 = og[first], og[block[:, -1]]
    corner = np.append(first, G - 1)
    x_corner, o_corner = xg[corner][None, :, None], og[corner][None, None, :]

    def peak(kernel, ceiling, indices, top=0.0):
        n = indices[0].shape[0]
        per_call = max(BOUNDS_SLAB_ELEMENTS // o_corner.size, 1)  # rows x planes
        width = min(n, per_call)
        rows = per_call // width
        for p in range(0, n, width):
            planes = [a[p:p + width] for a in indices]
            for r in range(0, x_corner.size, rows):
                # np.maximum keeps a nan
                top = np.maximum(top, np.abs(
                    kernel(x_corner[:, r:r + rows], o_corner, *planes, d)).max())
        width = max(BOUNDS_SLAB_ELEMENTS // first.size**2, 1)
        per_call = max(BOUNDS_SLAB_ELEMENTS // B**2, 1)          # blocks
        for p in range(0, n, width):
            planes = [a[p:p + width] for a in indices]
            ceilings = ceiling(x0, x1, o0, o1, *planes, d)
            plane, i, j = np.nonzero(~(ceilings < top))
            for q in range(0, plane.size, per_call):
                at = slice(q, q + per_call)
                top = np.maximum(top, np.abs(kernel(
                    xg[block[i[at]], None], og[block[j[at]]][:, None, :],
                    *(a[plane[at]] for a in planes), d)).max())
        return top

    rho, eps, kap = (a.reshape(-1, 1, 1) for a in (spec.rho, spec.eps, spec.kappa))
    rho_distinct = (np.unique(spec.rho).reshape(-1, 1, 1),)
    curvature = peak(hessian_own, _hessian_own_ceiling, rho_distinct)
    return Bounds(
        L=1.1 * float(peak(task_gradient, _gradient_ceiling, (rho, eps, kap))),
        U=1.1 * float(peak(task_utility, _utility_ceiling, (rho, eps, kap))),
        H=1.1 * float(peak(hessian_others, _hessian_others_ceiling,
                           rho_distinct, curvature)))


def utility_range(spec: GameSpec) -> tuple[float, float]:
    """Closed-form envelope [u_min, u_max] of the per-task utility: the
    reward term is at most max(rho), the power term at most max(eps)*K and
    the cost at most max(kappa). Used to map rewards affinely into [0, 1]."""
    u_min = -float(spec.kappa.max())
    u_max = float(spec.rho.max() + spec.eps.max() * spec.K)
    return u_min, u_max
