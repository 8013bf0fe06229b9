"""Equilibrium solving and the unilateral-deviation gap.

Each task is an aggregative game: a node's utility on it reads its own
request and the column total s, barrier included. So the equilibrium is
found per task from s alone, by the share-function method (Cornes and
Hartley, Economic Theory 2005; Jensen, Economic Theory 2010):
- at each s, every node has exactly one request x_k(s) that best responds
  to the rest of the column, in closed form (game.aggregate_requests);
- no share x_k(s)/s rises with s, so F(s) = sum_k x_k(s)/s + barrier/s - 1
  falls strictly, from F(barrier) >= 0 to F(K + barrier) <= 0;
- a profile is an equilibrium exactly when every request is x_k(s) at its
  column's s, which is then a root of F, so the one root s* gives the one
  equilibrium x_k(s*), for every GameSpec.
solve_nash brackets the root, checks x* against the closed-form best
response (br_profile) and certifies it by golden-section search; epsilon_gap
deviates by the closed form. deviation_utilities and epsilon_gap take
(..., K, M) stacks and answer each profile on its own; each reads one
game.StackedGame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, aggregate_requests, stack_game, utility_matrix
from .strategies.baselines import br_profile, golden_br_profile


@dataclass
class NashSolution:
    x_star: np.ndarray
    aggregate: np.ndarray             # per-task column total s*, barrier included
    utilities: np.ndarray
    eps_gap: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        """The document `solve-nash` prints and summary.json embeds."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in vars(self).items()}


def deviation_utilities(x, game, br=None) -> np.ndarray:
    """Per-node utility of unilaterally best-responding to profile x while
    everyone else stays put: shape (..., K) for x of shape (..., K, M),
    with game a StackedGame as for utility_matrix. `br` is
    br_profile(x, game) when the caller has already computed it, or any
    other deviation profile. br_profile is elementwise, so a stack of
    profiles is answered as each profile alone, bit for bit."""
    x = np.asarray(x, dtype=float)
    others = x.sum(axis=-2, keepdims=True) - x
    return utility_matrix(br_profile(x, game, others) if br is None else br,
                          game, others).sum(axis=-1)


def epsilon_gap(x, spec: GameSpec):
    """Largest utility any single node can gain by deviating unilaterally
    from profile x: 0 at an equilibrium, never negative (staying put is a
    deviation). x of shape (..., K, M) gives shape (...), a float for one
    K x M profile and one gap per profile of a stack.
    Each deviation is br_profile's closed-form best response; solve_nash
    certifies x* apart from it. Both evaluations read one stack_game of spec
    at x's leading shape."""
    x = np.asarray(x, dtype=float)
    game = stack_game(spec, *x.shape[:-2])
    u_cur = utility_matrix(x, game).sum(axis=-1)
    return np.maximum(0.0, (deviation_utilities(x, game) - u_cur).max(axis=-1))


def excess(s, spec: GameSpec) -> np.ndarray:
    """s*F(s) = sum_k x_k(s) + barrier - s per task, for s of shape (..., M),
    summed as barrier + the other nodes' requests - (s - x) of the node
    requesting most: no term near s cancels, which would move the root
    where one node holds nearly all of a column and F's slope is small."""
    x, rest = aggregate_requests(s[..., None, :], spec.rho, spec.eps, spec.kappa)
    top = np.arange(spec.K)[:, None] == x.argmax(axis=-2)[..., None, :]
    return np.where(top, -rest, x).sum(axis=-2) + spec.barrier


def solve_nash(spec: GameSpec) -> NashSolution:
    """The game's one equilibrium, from the root s* of each task's F.

    Each task's bracket starts at [barrier, K + barrier]. Each step
    evaluates F in one call at the 15 points that cut every bracket into 16,
    and keeps the piece where F first drops to <= 0: four bits per step for
    about the cost of one bisection. It stops when every bracket's ends are
    adjacent floats, 14 steps on game1 and on the 10 x 10 dataset. x* is
    x_k(s*) at the right end; `iterations` counts the steps; `converged` is
    whether x* is a fixed point of br_profile to 1e-12; `eps_gap` is x*'s
    gap with golden_br_profile's deviations, which read the utility alone.
    """
    game = stack_game(spec)
    lo = np.full(spec.M, spec.barrier)
    hi = np.full(spec.M, spec.K + spec.barrier)
    cuts, tasks = np.arange(1, 16)[:, None] / 16, np.arange(spec.M)
    steps = 0
    while True:
        s = np.concatenate([lo + (hi - lo) * cuts, hi[None]])
        inside = (s > lo) & (s < hi)
        if not inside.any():
            break
        steps += 1
        # F > 0 at each point; a point that rounds to an end takes its sign
        above = np.where(inside, excess(s, spec) > 0.0, s <= lo)
        first = above.argmin(axis=0)
        lo = np.where(first > 0, s[first - 1, tasks], lo)
        hi = s[first, tasks]
    x = aggregate_requests(hi, spec.rho, spec.eps, spec.kappa)[0]
    # each node's others, summed without the column sum minus its own
    others = np.where(np.eye(spec.K, dtype=bool)[:, :, None], 0.0, x).sum(axis=1)
    utilities = utility_matrix(x, game).sum(axis=1)
    gain = deviation_utilities(x, game, golden_br_profile(x, game)) - utilities
    return NashSolution(x_star=x, aggregate=hi, utilities=utilities,
                        eps_gap=float(np.maximum(0.0, gain.max())), iterations=steps,
                        converged=bool(np.abs(br_profile(x, game, others)
                                              - x).max() <= 1e-12))
