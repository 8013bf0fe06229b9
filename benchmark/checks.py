"""Correctness checks on one campaign, and the reference results.

Every replica is checked against invariants that hold for any seed. For a
seed with a checked-in reference, the equilibrium and each replica's final
per-node cumulative regret must also match it within the tolerances below.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The equilibrium solver must certify its solution.
NE_GAP_MAX = 1e-6
# Golden-section tolerance of the best-response maximiser (absolute, in
# action units); per_round_br regret may dip below zero by at most this.
GOLDEN_TOL = 1e-8
# Reference tolerances, calibrated at the commit that added the references.
# Replacing golden_max with a one-probe-per-iteration golden-section search
# (best responses move by ~1e-8) moved x* by 2.2e-8 and the final cumulative
# regret by at most 2.3e-6 on every workload. Raising gp's step size or
# LBWI's gamma by 1% moved it by 0.012 to 0.22, at least 20 times the
# allowance below.
# x* gets the 10 x tol margin solve_nash itself allows between its starts.
XSTAR_ATOL = 1e-5
REGRET_ATOL_PER_ROUND = 2e-6
REGRET_RTOL = 1e-6


def check_nash(nash) -> list:
    errors = []
    if not nash.converged:
        errors.append("solve_nash did not converge")
    if not nash.eps_gap <= NE_GAP_MAX:
        errors.append(f"equilibrium eps_gap {nash.eps_gap:.3g} > {NE_GAP_MAX}")
    return errors


def check_replica(res, config) -> list:
    """Invariants of one SeedResult under the campaign's config."""
    errors = []
    K, M = config.spec.K, config.spec.M
    T = config.T
    if not np.all(np.isfinite(res.cum_regret)):
        errors.append("non-finite cumulative regret")
    post_rounds = T - int(config.post_fraction * T)
    if int(res.histogram.sum()) != post_rounds * K * M:
        errors.append(f"histogram total {int(res.histogram.sum())} != "
                      f"{post_rounds} post-window rounds x {K} x {M}")
    for label, avg in (("final", res.final_window_avg),
                       ("post", res.post_window_avg)):
        if not (np.all(np.isfinite(avg)) and avg.min() >= 0.0
                and avg.max() <= 1.0):
            errors.append(f"{label}-window average action outside [0, 1]")
    if config.regret_mode == "per_round_br" and res.cum_regret.min() < -GOLDEN_TOL:
        errors.append(f"per-round-BR cumulative regret {res.cum_regret.min():.3g} "
                      f"< -{GOLDEN_TOL}")
    return errors


def _count_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def check_outputs(result, written, out_dir: Path) -> list:
    """The expected file set, a summary.json listing every strategy, and
    the row counts of the regret and trace CSVs."""
    config = result.config
    names = [s.name for s in result.strategies]
    K, M = config.spec.K, config.spec.M
    expected = {"summary.json"}
    for n in names:
        expected |= {f"regret_{n}.csv", f"actions_hist_{n}.csv",
                     f"final_actions_{n}.csv"}
    if {Path(p).name for p in written} != expected:
        return [f"write_outputs returned {sorted(Path(p).name for p in written)}"]
    if config.trace:
        expected |= {f"trace_{n}_seed{i}.csv" for n in names
                     for i in range(config.n_seeds)}
    present = {p.name for p in out_dir.iterdir()}
    if present != expected:
        return [f"output files differ: missing {sorted(expected - present)}, "
                f"extra {sorted(present - expected)}"]
    errors = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        listed = set(summary["strategies"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"summary.json unreadable: {exc!r}"]
    if listed != set(names):
        errors.append(f"summary.json lists {sorted(listed)}, ran {sorted(names)}")
    for s in result.strategies:
        rows = _count_rows(out_dir / f"regret_{s.name}.csv")
        if rows != len(s.log_t) * K:
            errors.append(f"regret_{s.name}.csv has {rows} rows, expected "
                          f"{len(s.log_t)} x {K}")
        if config.trace:
            for i in range(config.n_seeds):
                rows = _count_rows(out_dir / f"trace_{s.name}_seed{i}.csv")
                if rows != config.T * K * M:
                    errors.append(f"trace_{s.name}_seed{i}.csv has {rows} rows")
    return errors


def reference_doc(result, workload: str) -> dict:
    config = result.config
    return {
        "workload": workload,
        "seed": config.master_seed,
        "T": config.T,
        "n_seeds": config.n_seeds,
        "x_star": result.nash.x_star.tolist(),
        "final_cum_regret": {
            s.name: [r.cum_regret[-1].tolist() for r in s.seeds]
            for s in result.strategies},
    }


def compare_reference(result, ref: dict):
    """Returns (campaign errors, {(strategy, seed): errors})."""
    config = result.config
    if (ref["T"], ref["n_seeds"], ref["seed"]) != (config.T, config.n_seeds,
                                                   config.master_seed):
        return ([f"reference is for T={ref['T']}, n_seeds={ref['n_seeds']}, "
                 f"seed={ref['seed']}"], {})
    campaign_errors = []
    x_ref = np.asarray(ref["x_star"])
    x = result.nash.x_star
    if x.shape != x_ref.shape or not np.allclose(x, x_ref, rtol=0.0, atol=XSTAR_ATOL):
        campaign_errors.append("x* differs from the reference")
    replica_errors = {}
    atol = REGRET_ATOL_PER_ROUND * config.T
    for s in result.strategies:
        rows = ref["final_cum_regret"].get(s.name)
        if rows is None or len(rows) != len(s.seeds):
            campaign_errors.append(f"reference has no {s.name} replicas")
            continue
        for r, row in zip(s.seeds, rows):
            got = r.cum_regret[-1]
            want = np.asarray(row)
            if got.shape != want.shape:
                replica_errors[(s.name, r.seed)] = [
                    f"final cumulative regret has shape {got.shape}, "
                    f"reference {want.shape}"]
            elif not np.allclose(got, want, rtol=REGRET_RTOL, atol=atol):
                replica_errors[(s.name, r.seed)] = [
                    f"final cumulative regret differs from the reference by "
                    f"up to {np.max(np.abs(got - want)):.3g} (allowed "
                    f"{atol:.3g} + {REGRET_RTOL} x |reference|)"]
    return campaign_errors, replica_errors
