"""Round loop, feedback routing, and regret accounting for all S replicas
of a strategy at once.

Every round the learner bank emits an (S, K, M) stack of action profiles;
the engine computes clean per-(node, task) utilities and routes feedback by
strategy class: bandit learners see only their own noisy utilities,
gradient-play sees the exact gradient at the played profile, best-response
sees the best response to it. Regret is accounted against a fixed reference
(equilibrium utilities by default, or the per-round best-response oracle)
using clean utilities, so the series reflects decisions rather than noise
draws.

The game's index matrices and the best response's game-only terms are
broadcast to (S, K, M) once per run (game.stack_game); every round and
every regret block reads that one game, a block broadcasting it along its
rounds. Each round takes one column sum, whose others' sums the utility,
the gradient and the best response share. The i.i.d. Gaussian observation
noise per entry, from each replica's own noise stream (read ahead in
chunks: the values one draw per round would give, in the same order), and
the allocations are formed only where something reads them: under bandit
feedback, or when a trace sink is attached. Elsewhere a round draws no
noise, and its record's `a` and `observed_utility` are None.

Both regret modes are accounted in blocks of about BR_BLOCK_ELEMENTS
(s, k, m) elements. A block's reference is the equilibrium utilities or one
deviation_utilities call on its (B, S, K, M) stack, and one pass in round
order adds its gains and updates the running sums, the histogram and the
checkpoint profiles. This is bitwise the per-round accounting: the best
response is elementwise (task_best_response answers each (node, task) on
its own), and the additions happen in the same order on the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .game import GameSpec, gradient_matrix, stack_game, utility_matrix
from .nash import NashSolution, deviation_utilities
from .strategies.baselines import br_profile
from .streams import ReadAhead

# The final-window average covers the last FINAL_WINDOW rounds; the post-window
# average and the HIST_BINS-bin histogram the rounds after POST_FRACTION * T.
FINAL_WINDOW = 1000
POST_FRACTION = 0.9
HIST_BINS = 20
# Elements per accounting block, enough rounds to spread numpy's per-call
# cost over a block's one best-response call under per_round_br. Measured
# with closed-form best responses (gp on 10 x 10 at S = 1), blocks of 4096
# to 32768 elements cost the same within noise; 1024 cost about 20% more.
# Under ne_reference it only bounds the pending rounds' memory.
BR_BLOCK_ELEMENTS = 8192
# Regret references, the default first: NE utilities or each round's best response.
REGRET_MODES = ("ne_reference", "per_round_br")


@dataclass
class RoundRecord:
    """One round of every replica, each field (S, K, M). `a` (the
    allocations) and `observed_utility` are None where the round read no
    noise: feedback other than bandit with no trace sink attached."""

    t: int
    x: np.ndarray
    a: np.ndarray
    clean_utility: np.ndarray
    observed_utility: np.ndarray
    br: np.ndarray = None             # br_profile(x) if the round solved it


def regret_slope(cumulative, t) -> float:
    """Least-squares slope of log(cumulative regret) against log(round t)
    over the second half of the horizon; nan where it is undefined, that is
    where the half holds fewer than two logged rounds or a regret <= 0."""
    t = np.asarray(t, dtype=float)
    sel = t >= 0.5 * t[-1]
    ts, ys = t[sel], np.asarray(cumulative, dtype=float)[sel]
    if len(ts) < 2 or not np.all(ys > 0.0):
        return float("nan")
    return float(np.polyfit(np.log(ts), np.log(ys), 1)[0])


def run_round(game, bank, t: int, noise: np.ndarray = None) -> RoundRecord:
    """Play one round of every replica: collect the (S, K, M) actions,
    compute utilities from one column sum, and route each strategy its own
    feedback. `game` is the run's stack_game(spec, S), and the bank must
    emit its shape. With the round's (S, K, M) observation noise the round
    also forms the allocations and the observed utilities; without it both
    are None, and a bandit bank cannot be fed."""
    x = np.asarray(bank.act(), dtype=float)
    if x.shape != game.rho.shape:
        raise ProtocolError(f"round {t}: bank emitted shape {x.shape}, "
                            f"expected {game.rho.shape}")
    # NaN fails both comparisons; the mask is built only to name the culprit
    if not (x.min() >= 0.0 and x.max() <= 1.0):
        s, k, m = np.argwhere(~((x >= 0.0) & (x <= 1.0)))[0]
        raise ProtocolError(
            f"round {t}: seed {s} node {k} emitted action {x[s, k, m]!r} for "
            f"task {m}, outside [0, 1]"
        )
    column = x.sum(axis=-2, keepdims=True)
    others = column - x
    clean = utility_matrix(x, game, others)
    a = observed = None
    if noise is not None:
        a = x / (column + game.barrier)
        # at noise_std 0 every draw is +0.0, so observed equals clean bit for bit
        observed = clean + noise

    kind, br = bank.feedback_kind, None
    if kind == "bandit":
        if observed is None:
            raise ProtocolError(f"round {t}: bandit feedback needs the round's noise")
        bank.observe(observed)
    elif kind == "gradient":
        bank.observe(gradient_matrix(x, game, others))
    elif kind == "best_response":
        br = br_profile(x, game, others)
        bank.observe(br)
    elif kind == "none":
        bank.observe()
    else:
        raise ConfigurationError(f"unknown feedback kind {kind!r}")
    return RoundRecord(t=t, x=x, a=a, clean_utility=clean,
                       observed_utility=observed, br=br)


@dataclass
class SeedResult:
    """Everything one replica reports back to the campaign."""

    seed: int
    log_t: np.ndarray                 # logged round indices
    cum_regret: np.ndarray            # (len(log_t), K)
    final_window_avg: np.ndarray      # (K, M), mean action over last rounds
    post_window_avg: np.ndarray       # (K, M), mean action after 90% of T
    histogram: np.ndarray             # (K, M, bins) action counts after 90%
    avg_profile: dict                 # checkpoint round -> running mean, in order


def checkpoint_rounds(T: int) -> list:
    """The rounds at which run_seed records each replica's running mean
    profile: the quarters of T and eight geometric steps up to T."""
    base = {T // 4, T // 2, (3 * T) // 4, T}
    samples = np.unique(np.geomspace(max(1, T // 100), T, 8).astype(int))
    return sorted(c for c in base | set(samples.tolist()) if c >= 1)


def run_seed(spec: GameSpec, bank, T: int, noise_rngs, reference: NashSolution,
             regret_mode: str = REGRET_MODES[0], trace_sink=None) -> list:
    """Drive a bank of S replicas, one per generator in noise_rngs, for T
    rounds and account each replica's regret along the way; returns one
    SeedResult per replica, in replica order, each holding views into the
    batched (S, ...) arrays.

    Every round waits in a block of max(1, BR_BLOCK_ELEMENTS // (S*K*M))
    rounds, the last one cut at T. The regret mode only chooses the block's
    reference; one pass in round order then does all the accounting. The
    played profiles are copied, since a bank may act from a buffer it
    updates in place. Every result is the per-round one, bit for bit (see
    the module docstring). The noise streams are read only under bandit
    feedback or with a trace sink, the only readers of the noise."""
    if regret_mode not in REGRET_MODES:
        raise ConfigurationError(f"unknown regret mode {regret_mode!r}")
    S, K, M = len(noise_rngs), spec.K, spec.M
    log_every = max(1, T // 1000)
    checkpoints = set(checkpoint_rounds(T))
    final_window = min(FINAL_WINDOW, T)
    post_start = int(POST_FRACTION * T)

    cum = np.zeros((S, K))
    log_t, cum_rows = [], []
    x_running = np.zeros((S, K, M))
    final_sum = np.zeros((S, K, M))
    post_sum = np.zeros((S, K, M))
    hist = np.zeros((S, K, M, HIST_BINS), dtype=np.int64)
    # each (s, k, m) adds one count per round: distinct flat indices
    hist_base = np.arange(S * K * M).reshape(S, K, M) * HIST_BINS
    avg_profile = {}
    block = max(1, BR_BLOCK_ELEMENTS // (S * K * M))
    pending = []                      # (t, x, br, clean utility) not yet accounted

    game = stack_game(spec, S)
    noise = ReadAhead(noise_rngs, lambda g, n: g.normal(0.0, spec.noise_std, n))
    reads_noise = bank.feedback_kind == "bandit" or trace_sink is not None
    for t in range(1, T + 1):
        rec = run_round(game, bank, t, noise.take((K, M)) if reads_noise else None)
        pending.append((t, rec.x.copy(), rec.br, rec.clean_utility))
        if trace_sink is not None:
            trace_sink(rec)
        if len(pending) < block and t < T:
            continue
        (ts, xs, brs, us), pending = zip(*pending), []
        if regret_mode == "ne_reference":
            ref = reference.utilities
        else:
            ref = deviation_utilities(np.stack(xs), game,
                                      None if brs[0] is None else np.stack(brs))
        for tau, x, gain in zip(ts, xs, ref - np.stack(us).sum(axis=-1)):
            cum += gain
            if tau % log_every == 0 or tau == T:
                log_t.append(tau)
                cum_rows.append(cum.copy())
            x_running += x
            if tau > T - final_window:
                final_sum += x
            if tau > post_start:
                post_sum += x
                bins = np.minimum((x * HIST_BINS).astype(int), HIST_BINS - 1)
                hist.reshape(-1)[hist_base + bins] += 1
            if tau in checkpoints:
                avg_profile[tau] = x_running / tau

    log_t = np.array(log_t)
    cum_rows = np.stack(cum_rows, axis=1)               # (S, L, K)
    final_avg = final_sum / final_window
    post_avg = post_sum / (T - post_start)
    return [SeedResult(
        seed=s, log_t=log_t, cum_regret=cum_rows[s], histogram=hist[s],
        final_window_avg=final_avg[s], post_window_avg=post_avg[s],
        avg_profile={t: p[s] for t, p in avg_profile.items()},
    ) for s in range(S)]
