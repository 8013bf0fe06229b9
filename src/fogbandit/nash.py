"""Equilibrium solving and the unilateral-deviation gap.

The game is concave in each node's own action and the equilibrium is
unique, so synchronous best-response sweeps from independent random starts
all land on the same profile; the spread across starts doubles as a
uniqueness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EquilibriumError
from .game import GameSpec, task_utility, utility_matrix
from .strategies.baselines import br_profile

DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 10_000
DEFAULT_STARTS = 20
DEFAULT_DAMPING = 0.5


@dataclass
class NashSolution:
    x_star: np.ndarray
    utilities: np.ndarray
    eps_gap: float
    iterations: int
    converged: bool


def deviation_utilities(x, spec: GameSpec) -> np.ndarray:
    """Per-node utility of unilaterally best-responding to profile x while
    everyone else stays put (length K)."""
    x = np.asarray(x, dtype=float)
    return task_utility(br_profile(x, spec), x.sum(axis=0) - x, spec.rho,
                        spec.eps, spec.kappa, spec.barrier).sum(axis=1)


def epsilon_gap(x, spec: GameSpec) -> float:
    """Largest utility any single node can gain by deviating unilaterally
    from profile x (0 means x is an equilibrium). Never negative: staying
    put is always an admissible deviation."""
    x = np.asarray(x, dtype=float)
    u_cur = utility_matrix(x, spec).sum(axis=1)
    return max(0.0, float((deviation_utilities(x, spec) - u_cur).max()))


def solve_nash(spec: GameSpec, tol: float = DEFAULT_TOL,
               max_sweeps: int = DEFAULT_MAX_SWEEPS,
               n_starts: int = DEFAULT_STARTS, seed: int = 0,
               damping: float = DEFAULT_DAMPING) -> NashSolution:
    """Iterate damped synchronous best-response sweeps
    x <- (1 - damping) * x + damping * BR(x) from n_starts random profiles
    until the largest per-coordinate change drops below tol. The damping
    suppresses the two-cycles undamped simultaneous updates fall into on
    larger games and does not move the fixed points.

    Raises EquilibriumError if the starts do not agree within 10 * tol
    (a game outside the proven uniqueness regime, e.g. low efficiency
    indices, can surface here).
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError("damping must be in (0, 1]")
    rng = np.random.default_rng(seed)
    finals = []
    sweeps_used = 0
    all_converged = True
    for _ in range(n_starts):
        x = rng.random((spec.K, spec.M))
        converged = False
        for it in range(1, max_sweeps + 1):
            x_next = (1.0 - damping) * x + damping * br_profile(x, spec)
            change = float(np.abs(x_next - x).max())
            x = x_next
            if change < tol:
                converged = True
                break
        finals.append(x)
        sweeps_used = max(sweeps_used, it)
        all_converged &= converged

    spread = max(float(np.abs(f - finals[0]).max()) for f in finals)
    if spread > 10.0 * tol:
        raise EquilibriumError(
            f"best-response starts disagree by {spread:.3e} (> 10 * tol); "
            "equilibrium uniqueness not certified for this game"
        )
    x_star = finals[0]
    utilities = utility_matrix(x_star, spec).sum(axis=1)
    return NashSolution(x_star=x_star, utilities=utilities,
                        eps_gap=epsilon_gap(x_star, spec),
                        iterations=sweeps_used, converged=all_converged)
