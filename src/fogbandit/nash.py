"""Equilibrium solving and the unilateral-deviation gap.

The game is concave in each node's own action and the equilibrium is
unique, so synchronous best-response sweeps from independent random starts
all land on the same profile; the spread across starts doubles as a
uniqueness certificate. The sweeps use the closed-form best response
(br_profile); the gap that certifies their end point searches by golden
section instead (epsilon_gap). The starts are swept together as one stacked
(n_starts, K, M) array; deviation_utilities and epsilon_gap likewise take
(..., K, M) stacks and answer each profile on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EquilibriumError, require_integer
from .game import GameSpec, task_utility, utility_matrix
from .strategies.baselines import br_profile, golden_br_profile

DEFAULT_TOL = 1e-6
DEFAULT_STARTS = 20
DEFAULT_SEED = 0
MAX_SWEEPS = 10_000
DAMPING = 0.5


@dataclass
class NashSolution:
    x_star: np.ndarray
    utilities: np.ndarray
    eps_gap: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        """The document `solve-nash` prints and summary.json embeds."""
        return {"x_star": self.x_star.tolist(), "utilities": self.utilities.tolist(),
                "eps_gap": self.eps_gap, "iterations": self.iterations,
                "converged": self.converged}


def deviation_utilities(x, spec: GameSpec, br=None) -> np.ndarray:
    """Per-node utility of unilaterally best-responding to profile x while
    everyone else stays put: shape (..., K) for x of shape (..., K, M).
    `br` is br_profile(x) when the caller has already computed it, or any
    other deviation profile. br_profile is elementwise, so a stack of
    profiles is answered as each profile alone, bit for bit."""
    x = np.asarray(x, dtype=float)
    return task_utility(br_profile(x, spec) if br is None else br,
                        x.sum(axis=-2, keepdims=True) - x,
                        spec.rho, spec.eps, spec.kappa, spec.barrier).sum(axis=-1)


def epsilon_gap(x, spec: GameSpec):
    """Largest utility any single node can gain by deviating unilaterally
    from profile x: 0 at an equilibrium, never negative (staying put is a
    deviation). x of shape (..., K, M) gives shape (...), a float for one
    K x M profile and one gap per profile of a stack.
    The deviations are found by golden-section search (golden_br_profile),
    not by the closed form of br_profile, so the gap certifies a profile
    independently of the formula that solve_nash iterated."""
    x = np.asarray(x, dtype=float)
    u_cur = utility_matrix(x, spec).sum(axis=-1)
    dev = deviation_utilities(x, spec, golden_br_profile(x, spec))
    return np.maximum(0.0, (dev - u_cur).max(axis=-1))


def solve_nash(spec: GameSpec, tol: float = DEFAULT_TOL,
               n_starts: int = DEFAULT_STARTS,
               seed: int = DEFAULT_SEED) -> NashSolution:
    """Iterate damped synchronous best-response sweeps
    x <- (1 - DAMPING) * x + DAMPING * BR(x) from n_starts random profiles
    until the largest per-coordinate change drops below tol, for at most
    MAX_SWEEPS sweeps. The damping suppresses the two-cycles undamped
    simultaneous updates fall into on larger games and does not move the
    fixed points.

    The starts are one (n_starts, K, M) draw, and each sweep is one
    br_profile call on the starts still moving. A start freezes at the
    sweep where it converges, so it ends where it would alone; `iterations`
    is the slowest start's sweep count, `converged` whether all converged.

    Raises EquilibriumError if the starts do not agree within 10 * tol
    (a game outside the proven uniqueness regime, e.g. low efficiency
    indices, can surface here).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be positive and finite, got {tol}")
    require_integer("n_starts", n_starts, 1)
    require_integer("seed", seed, 0)
    x = np.random.default_rng(seed).random((n_starts, spec.K, spec.M))
    active = np.arange(n_starts)
    for sweeps in range(1, MAX_SWEEPS + 1):
        x_act = x[active]
        x_next = (1.0 - DAMPING) * x_act + DAMPING * br_profile(x_act, spec)
        x[active] = x_next
        active = active[np.abs(x_next - x_act).max(axis=(-2, -1)) >= tol]
        if not active.size:
            break
    spread = float(np.abs(x - x[0]).max())
    if spread > 10.0 * tol:
        raise EquilibriumError(
            f"best-response starts disagree by {spread:.3e} (> 10 * tol); "
            "equilibrium uniqueness not certified for this game"
        )
    return NashSolution(x_star=x[0], utilities=utility_matrix(x[0], spec).sum(axis=1),
                        eps_gap=float(epsilon_gap(x[0], spec)),
                        iterations=sweeps, converged=not active.size)
