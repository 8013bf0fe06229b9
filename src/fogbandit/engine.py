"""Round loop, feedback routing, and regret accounting for one replica.

Every round each learner bank emits a K x M action profile; the engine
computes allocations and clean per-(node, task) utilities, adds i.i.d.
Gaussian observation noise per entry, and routes feedback by strategy
class: bandit learners see only their own noisy utilities, gradient-play
sees the exact gradient at the played profile, best-response sees the
profile itself. Regret is accounted against a fixed reference (equilibrium
utilities by default, or the per-round best-response oracle) using clean
utilities, so the series reflects decisions rather than noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .game import GameSpec, gradient_matrix, utility_matrix
from .nash import NashSolution, deviation_utilities


@dataclass
class RoundRecord:
    t: int
    x: np.ndarray
    a: np.ndarray
    clean_utility: np.ndarray
    observed_utility: np.ndarray


def regret_slope(cumulative, window=(0.5, 1.0), t=None) -> float:
    """Least-squares slope of log(cumulative regret) against log(round)
    over the given fractional window of the horizon."""
    series = np.asarray(cumulative, dtype=float)
    if t is None:
        t = np.arange(1, len(series) + 1, dtype=float)
    else:
        t = np.asarray(t, dtype=float)
    horizon = t[-1]
    sel = (t >= window[0] * horizon) & (t <= window[1] * horizon)
    if sel.sum() < 2:
        raise ValueError("window holds fewer than two points")
    ts, ys = t[sel], series[sel]
    if np.any(ys <= 0.0):
        raise ValueError(
            "cumulative regret not positive on the window; slope undefined "
            "(report the gap to zero instead)"
        )
    return float(np.polyfit(np.log(ts), np.log(ys), 1)[0])


def run_round(spec: GameSpec, bank, t: int, noise_rng) -> RoundRecord:
    """Play one round: collect actions, allocate, compute utilities, add
    observation noise, and route each strategy its own feedback."""
    x = np.asarray(bank.act(), dtype=float)
    if x.shape != (spec.K, spec.M):
        raise ProtocolError(f"round {t}: bank emitted shape {x.shape}, "
                            f"expected {(spec.K, spec.M)}")
    bad = (x < 0.0) | (x > 1.0) | ~np.isfinite(x)
    if np.any(bad):
        k, m = np.argwhere(bad)[0]
        raise ProtocolError(
            f"round {t}: node {k} emitted action {x[k, m]!r} for task {m}, "
            "outside [0, 1]"
        )
    col = x.sum(axis=0)
    a = x / (col + spec.barrier)[None, :]
    clean = utility_matrix(x, spec)
    if spec.noise_std > 0.0:
        observed = clean + noise_rng.normal(0.0, spec.noise_std, x.shape)
    else:
        observed = clean.copy()

    kind = bank.feedback_kind
    if kind == "bandit":
        bank.observe(observed)
    elif kind == "gradient":
        bank.observe(gradient_matrix(x, spec))
    elif kind == "profile":
        bank.observe(x)
    elif kind == "none":
        bank.observe()
    else:
        raise ConfigurationError(f"unknown feedback kind {kind!r}")
    return RoundRecord(t=t, x=x, a=a, clean_utility=clean,
                       observed_utility=observed)


@dataclass
class SeedResult:
    """Everything one replica reports back to the campaign."""

    seed: int
    log_t: np.ndarray                 # logged round indices
    cum_regret: np.ndarray            # (len(log_t), K)
    avg_regret: np.ndarray            # cum_regret / t
    final_window_avg: np.ndarray      # (K, M), mean action over last rounds
    post_window_avg: np.ndarray       # (K, M), mean action after 90% of T
    histogram: np.ndarray             # (K, M, bins) action counts after 90%
    hist_edges: np.ndarray
    avg_profile: dict                 # round -> running mean profile


def run_seed(spec: GameSpec, bank, T: int, noise_rng, reference: NashSolution,
             seed: int = 0, regret_mode: str = "ne_reference",
             log_every: int = None, final_window: int = 1000,
             post_fraction: float = 0.9, hist_bins: int = 20,
             checkpoints=(), trace_sink=None) -> SeedResult:
    """Drive one bank for T rounds and account regret along the way."""
    if log_every is None:
        log_every = max(1, T // 1000)
    K, M = spec.K, spec.M
    checkpoints = sorted(set(int(c) for c in checkpoints))
    final_window = min(final_window, T)
    post_start = int(post_fraction * T)

    cum = np.zeros(K)
    log_t, cum_rows = [], []
    x_running = np.zeros((K, M))
    final_sum = np.zeros((K, M))
    post_sum = np.zeros((K, M))
    post_n = 0
    hist = np.zeros((K, M, hist_bins), dtype=np.int64)
    edges = np.linspace(0.0, 1.0, hist_bins + 1)
    kk, mm = np.meshgrid(np.arange(K), np.arange(M), indexing="ij")
    avg_profile = {}

    for t in range(1, T + 1):
        rec = run_round(spec, bank, t, noise_rng)
        realized = rec.clean_utility.sum(axis=1)
        if regret_mode == "ne_reference":
            cum += reference.utilities - realized
        elif regret_mode == "per_round_br":
            cum += deviation_utilities(rec.x, spec) - realized
        else:
            raise ConfigurationError(f"unknown regret mode {regret_mode!r}")
        x_running += rec.x
        if t > T - final_window:
            final_sum += rec.x
        if t > post_start:
            post_sum += rec.x
            post_n += 1
            bins = np.minimum((rec.x * hist_bins).astype(int), hist_bins - 1)
            np.add.at(hist, (kk, mm, bins), 1)
        if t % log_every == 0 or t == T:
            log_t.append(t)
            cum_rows.append(cum.copy())
        if t in checkpoints:
            avg_profile[t] = x_running / t
        if trace_sink is not None:
            trace_sink(rec)

    log_t = np.array(log_t)
    cum_rows = np.array(cum_rows)
    return SeedResult(
        seed=seed,
        log_t=log_t,
        cum_regret=cum_rows,
        avg_regret=cum_rows / log_t[:, None],
        final_window_avg=final_sum / final_window,
        post_window_avg=post_sum / max(post_n, 1),
        histogram=hist,
        hist_edges=edges,
        avg_profile=avg_profile,
    )
