"""Task-allocation game: data model and closed-form math.

K fog nodes request fractions of M tasks. Requests are turned into shares
by proportional allocation with a small barrier constant in the denominator,
and each node's per-task utility is

    completion reward + power term - reservation cost

evaluated on the node's own request, the column sum of all requests and
that node's per-task indices (rho, eps, kappa). Utilities are additive over
tasks. Everything in this module is a pure function of its inputs.

The per-task utility, its own-action gradient, its two curvatures, its
best response and the request consistent with a column total are written
once each, in the six kernels task_utility, task_gradient, hessian_own,
hessian_others, task_best_response and aggregate_requests; every other
evaluation in the package calls them. estimate_bounds also bounds the
utility over blocks of its grid in closed form, to skip blocks.
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
# blocks in one ceiling array; at least one block, or one plane's two rows
# for L. At 100 points per axis a call covers up to 163 blocks and a ceiling
# array up to 163 (node, task) planes, 128 KB per temporary. Measured on 2
# vCPUs on random 20 x 20 and 50 x 50 games, 8192 and 32768 took 1.05-1.3x
# as long as this cap, 4096 1.25x and 65536 1.35x.
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


# The per-task kernels: x_own is a node's request for one task and
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
    kept inside (0, 1) against rounding. ln(c) is taken only where c > 0,
    and omega only at interior elements (1.0 at a corner, overwritten).
    """
    log_c, half_inv_rho, log_2rho = terms
    b = x_others + barrier
    at_0 = b / (b * b) + eps - kappa <= 0.0       # task_gradient at 0, bit for bit
    at_1 = task_gradient(1.0, x_others, rho, eps, kappa, barrier) >= 0.0
    z = 0.5 * (log_c + np.log(b)) + half_inv_rho - log_2rho
    v = 2.0 * wrightomega(z, out=np.ones(np.shape(z)), where=~(at_0 | at_1))
    root = np.minimum(np.maximum(b / (rho * v) - b, _ABOVE_0), _BELOW_1)
    return np.where(at_0, 0.0, np.where(at_1, 1.0, root))


def aggregate_requests(s, rho, eps, kappa):
    """The request x_own in [0, 1] that best responds on a task whose column
    total, barrier included, is s (task_best_response against s - x_own -
    barrier), and the rest of the column, s - x_own; neither is taken as a
    difference near s. Elementwise; s broadcasts against the indices.

    With c = kappa - eps and the share sigma = x_own/s, task_gradient = 0
    reads (1 - sigma)*exp(-sigma/rho) = c*s, whose left side falls strictly
    on [0, 1]: 1 - sigma = rho*omega(ln(c*s/rho) + 1/rho) where c*s < 1, with
    omega as in task_best_response, and sigma = 0 where c*s >= 1. The request
    is min(sigma*s, 1), and 1 where c <= 0. sigma falls as s rises. Below a
    share of 1/10, 1 - rho*omega keeps only absolute digits (noise near 1e-16
    for a share near 1e-98 at rho = 1e-100); one Newton step on
    sigma/rho - ln(1 - sigma) = -ln(c*s) gives the last bit there, from
    1 - rho*omega above 1e-5 and from the tangent root rho*(-ln(c*s))/(1 + rho)
    below it, each within 3e-6 relative of the root.
    """
    c = np.asarray(kappa - eps, dtype=float)
    inv_rho = 1.0 / rho
    log_cs = np.log(c, out=np.zeros(c.shape), where=c > 0.0) + np.log(s)
    tau = np.minimum(rho * wrightomega(log_cs - np.log(rho) + inv_rho), 1.0)
    low = tau > 0.9
    gap = np.where(low, np.maximum(-log_cs, 0.0), 0.0)
    sigma = np.where(low, np.where(tau < 1.0 - 1e-5, 1.0 - tau,
                                   gap / (inv_rho + 1.0)), 0.0)
    sigma -= (sigma * inv_rho - np.log1p(-sigma) - gap) / (inv_rho + 1.0 / (1.0 - sigma))
    sigma = np.where(low, sigma, 1.0 - tau)
    full = (c <= 0.0) | (s - 1.0 >= tau * s)        # sigma*s >= 1, off 1 - tau
    return np.where(full, 1.0, sigma * s), np.where(full, s - 1.0, tau * s)


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


def _decay(x_own, x_others, rho, barrier):
    return np.exp(-x_own / (rho * (x_own + x_others + barrier)))


def _utility_ceiling(x0, x1, o0, o1, rho, eps, kappa, barrier):
    """A ceiling on the float |task_utility| over one block of
    estimate_bounds' grid, x_own in [x0, x1] and x_others in [o0, o1]. The
    reward rho*(1 - _decay) rises in x_own and falls in x_others, as
    x_own/(x_own + x_others + barrier) does; the linear part
    (eps - kappa)*x_own + eps*x_others has its extremes at the corners."""
    c = eps - kappa
    top = (rho * (1.0 - _decay(x1, o0, rho, barrier))
           + np.maximum(c * x0, c * x1) + eps * o1)
    bottom = (rho * (1.0 - _decay(x0, o1, rho, barrier))
              + np.minimum(c * x0, c * x1) + eps * o0)
    return (np.maximum(np.abs(top), np.abs(bottom))
            + _CEILING_SLACK * (rho + eps * (x1 + o1) + kappa * x1))


def estimate_bounds(spec: GameSpec) -> Bounds:
    """Estimate (L, U, H) as the largest |kernel| on a uniform grid of (own
    action, others' sum) pairs for every (node, task) index triple: L of
    task_gradient, U of task_utility and H of the two curvatures jointly.

    The others'-sum axis spans [0.5, K-1]: near-empty columns are excluded
    because their sensitivity is pinned by the barrier (gradient magnitude
    grows like 1/(column sum + barrier) there) rather than by the
    competition the learners actually face. Results carry a 1.1 safety
    factor against grid undersampling.

    Each bound is bitwise the full scan's, the kernels being elementwise on
    the same linspace floats and a max exact in any order. With
    b = x_others + barrier >= 1/2 and s = x_own + b:
    - L is read off the edge rows x_own in {0, 1}. The gradient does not
      increase along a row, since the utility is concave in the own action,
      so |gradient| peaks at a row's end. Rounding cannot break that:
      x_own/(rho*s) rises by at least 0.3% per grid step.
    - H is |hessian_own| at the grid's first point, (0, og[0]), taken as an
      array in the grid's layout (numpy's scalar ** rounds differently).
      |hessian_own| falls in x_own, and at x_own = 0, where it is
      (2*rho + 1)/(rho*b**2), it also falls in x_others. That is at least
      9/4 of |hessian_others| anywhere on the grid, as x_own*b <= s**2/4,
      x_own <= 2*s/3 and |2*rho - 1| <= 1.
    - U is scanned by branch and bound, one slab of (node, task) planes at a
      time. The grid is cut into blocks of BOUNDS_BLOCK points per axis, the
      last one shorter where GRID_RESOLUTION is not a multiple of it. Each
      (plane, block) gets _utility_ceiling over the block's box, plus
      _CEILING_SLACK times the summed magnitudes of its terms: that covers
      the rounding of the float kernel and ceiling even where eps - kappa
      cancels the rest. The floor is the largest |utility| evaluated so far.
      Each plane's highest-ceiling block that can still reach it comes first
      and seeds it. Then, round after round, every block not yet evaluated
      whose ceiling is not below the floor is, until none is left, so every
      skipped block holds only values below the floor. A nan floor or
      ceiling skips nothing, and no block is evaluated twice, so the loop
      ends.
    On the 10 x 10 dataset that is 30,300 kernel evaluations of the full
    grid's 3.08 million: 20,000 for L, 10,200 for U and 100 for H.

    The planes come first in every call, and no kernel call sees more than
    BOUNDS_SLAB_ELEMENTS points, so memory does not grow with K*M.
    """
    G, B = GRID_RESOLUTION, BOUNDS_BLOCK
    xg = np.linspace(0.0, 1.0, G)
    og = np.linspace(0.5, max(spec.K - 1.0, 0.5), G)
    d = spec.barrier
    rho, eps, kap = (a.reshape(-1, 1, 1) for a in (spec.rho, spec.eps, spec.kappa))

    def scan(kernel, x, o, indices):
        # the largest |kernel| over x_own x and x_others o on every plane
        width = max(BOUNDS_SLAB_ELEMENTS // (x.size * o.size), 1)   # planes
        return np.max([np.abs(kernel(x, o, *(a[p:p + width] for a in indices),
                                     d)).max()
                       for p in range(0, rho.shape[0], width)])

    first = np.arange(0, G, B)
    # each block's grid indices, the last block padded with its last point
    block = np.minimum(first[:, None] + np.arange(B), G - 1)
    x0, x1 = xg[first, None], xg[block[:, -1], None]
    o0, o1 = og[first], og[block[:, -1]]
    width = max(BOUNDS_SLAB_ELEMENTS // first.size**2, 1)   # planes
    per_call = max(BOUNDS_SLAB_ELEMENTS // B**2, 1)          # blocks
    top = 0.0
    for p in range(0, rho.shape[0], width):
        planes = [a[p:p + width] for a in (rho, eps, kap)]
        ceilings = _utility_ceiling(x0, x1, o0, o1, *planes, d).reshape(
            planes[0].shape[0], -1)
        todo = np.zeros(ceilings.shape, bool)
        todo[np.arange(todo.shape[0]), ceilings.argmax(axis=1)] = True
        done = np.zeros_like(todo)
        while (todo := todo & ~(ceilings < top)).any():
            plane, ij = np.nonzero(todo)
            i, j = np.divmod(ij, first.size)
            for q in range(0, plane.size, per_call):
                at = slice(q, q + per_call)
                # np.maximum keeps a nan
                top = np.maximum(top, np.abs(task_utility(
                    xg[block[i[at]], None], og[block[j[at]]][:, None, :],
                    *(a[plane[at]] for a in planes), d)).max())
            done |= todo
            todo = ~done
    return Bounds(
        L=1.1 * float(scan(task_gradient, xg[[0, -1], None], og, (rho, eps, kap))),
        U=1.1 * float(top),
        H=1.1 * float(scan(hessian_own, xg[:1, None], og[:1], (rho,))))


def utility_range(spec: GameSpec) -> tuple[float, float]:
    """Closed-form envelope [u_min, u_max] of the per-task utility: the
    reward term is at most max(rho), the power term at most max(eps)*K and
    the cost at most max(kappa). Used to map rewards affinely into [0, 1]."""
    u_min = -float(spec.kappa.max())
    u_max = float(spec.rho.max() + spec.eps.max() * spec.K)
    return u_min, u_max
