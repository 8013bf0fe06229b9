"""Run one campaign of a benchmark workload, check it, and print one JSON line.

run.py starts this script in a fresh single-threaded process per campaign:

    python3 benchmark/worker.py '{"workload": "...", "seed": 0, "T": 1500,
        "traced": false, "out_dir": "...", "reference": null}'

The campaign is driven the way `fogbandit run` drives it: the CLI's own
parser reads the workload's arguments, then cli.build_spec ->
cli.run_campaign -> cli.write_outputs. Untraced, the only hook is the
public `progress` callback, which marks the end of each replica.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_fogbandit() -> float:
    """Import the package from the checkout's sources; returns seconds."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fogbandit.cli  # noqa: F401
    return time.perf_counter() - t0


def run_job(job: dict) -> dict:
    """One campaign: time it, check it, and (traced) measure its layers.
    Imports happen here, after import_fogbandit has timed the package's
    import in a fresh process."""
    from fogbandit import cli
    import checks
    from tracer import Tracer, instrument
    from workloads import STRATEGIES, WORKLOADS

    wl = WORKLOADS[job["workload"]]
    argv = ["run", *wl.run_args, "--T", str(job["T"]),
            "--master-seed", str(job["seed"]), "--out", job["out_dir"]]
    args = cli.make_parser().parse_args(argv)
    tracer = Tracer() if job["traced"] else None
    marks = []

    with warnings.catch_warnings(), \
            (instrument(tracer) if tracer else nullcontext([])) as missing:
        warnings.simplefilter("ignore")
        t_start = time.monotonic()
        spec = cli.build_spec(args)
        params = json.loads(args.params) if args.params else {}
        config = cli.ExperimentConfig(
            spec=spec, T=args.T, n_seeds=args.seeds,
            strategies=[cli.StrategyConfig(n, params.get(n, {}))
                        for n in args.strategy.split(",")],
            master_seed=args.master_seed, regret_mode=args.regret_mode,
            out_dir=Path(args.out), trace=args.trace)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        result = cli.run_campaign(
            config, progress=lambda _msg: marks.append(time.monotonic()))
        t_run = time.monotonic()
        written = cli.write_outputs(result, config.out_dir)
        t_end = time.monotonic()

    # The replica loops are the only time between setup and the end of
    # run_campaign not covered by StrategyCampaign.runtime, up to a few
    # microseconds of bookkeeping: strategy i starts where i-1's runtime ends.
    runtimes = [s.runtime for s in result.strategies]
    first_start = t_run - sum(runtimes)
    loop_s, start = 0.0, first_start
    for i, s in enumerate(result.strategies):
        last_mark = marks[(i + 1) * config.n_seeds - 1]
        loop_s += last_mark - start
        start += runtimes[i]
    rounds = config.T * config.n_seeds * len(result.strategies)

    failures, failed = _check(result, written, config, job)
    out = {
        "wall_s": t_end - t_start,
        "setup_s": first_start - t_start,
        "rounds_per_s": rounds / loop_s,
        "us_per_round": {s.name: s.runtime / (config.T * config.n_seeds) * 1e6
                         for s in result.strategies},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replicas": len(result.strategies) * config.n_seeds,
        "replicas_failed": failed,
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, result, written, config.out_dir,
                                      rounds, STRATEGIES)
        out["unpatched"] = missing
    if job.get("write_reference"):
        Path(job["write_reference"]).write_text(
            json.dumps(checks.reference_doc(result, job["workload"]), indent=1)
            + "\n")
    return out


def _check(result, written, config, job):
    """Returns (messages, number of failed replicas). A campaign-level
    failure fails every replica of the campaign."""
    import checks
    campaign = checks.check_nash(result.nash)
    campaign += checks.check_outputs(result, written, config.out_dir)
    per_replica = {}
    for s in result.strategies:
        for r in s.seeds:
            errs = checks.check_replica(r, config)
            if errs:
                per_replica[(s.name, r.seed)] = errs
    if job.get("reference"):
        ref = json.loads(Path(job["reference"]).read_text())
        ref_campaign, ref_replica = checks.compare_reference(result, ref)
        campaign += ref_campaign
        for key, errs in ref_replica.items():
            per_replica.setdefault(key, []).extend(errs)
    replicas = len(result.strategies) * config.n_seeds
    messages = [f"campaign: {e}" for e in campaign]
    messages += [f"{name} seed {seed}: {e}"
                 for (name, seed), errs in sorted(per_replica.items()) for e in errs]
    return messages, replicas if campaign else len(per_replica)


def layer_metrics(tr, result, written, out_dir: Path, rounds: int,
                  strategy_names) -> dict:
    """Per-layer figures of one traced campaign: name -> (value, unit),
    named as in BENCHMARK.json."""
    def per_call_us(name):
        n = tr.calls(name)
        return tr.total(name) / n * 1e6 if n else 0.0

    golden_calls = tr.calls("strategies.golden_max")
    traced_rounds = tr.calls("campaign.trace.write")
    m = {
        "engine.run_round.self_us":
            (tr.self_total("engine.run_round") / rounds * 1e6, "us"),
        "engine.run_round.self_p99_us":
            (tr.self_quantile("engine.run_round", 0.99) * 1e6, "us"),
        "engine.accounting.self_us":
            (tr.self_total("engine.run_seed") / rounds * 1e6, "us"),
        "game.estimate_bounds.s": (tr.total("game.estimate_bounds"), "s"),
        "nash.solve_nash.s": (tr.total("nash.solve_nash"), "s"),
        "nash.solve_nash.sweeps":
            (tr.calls("nash.br_profile", "nash.solve_nash"), "count"),
        "nash.epsilon_gap.s":
            (tr.total("nash.epsilon_gap", "campaign.run_campaign"), "s"),
        "strategies.golden_max.evals_per_call": (
            tr.counters.get("strategies.golden_max.evals", 0) / golden_calls
            if golden_calls else 0.0, "count"),
        "strategies.llr.assign_us": (per_call_us("strategies.llr.assign"), "us"),
        "campaign.trace.us_per_round": (
            (tr.total("campaign.trace.write") + tr.total("campaign.trace.file"))
            / traced_rounds * 1e6 if traced_rounds else 0.0, "us"),
        "campaign.trace.bytes": (sum(p.stat().st_size
                                     for p in out_dir.glob("trace_*.csv")), "bytes"),
        "campaign.write_outputs.s": (tr.total("campaign.write_outputs"), "s"),
        "campaign.write_outputs.bytes":
            (sum(Path(p).stat().st_size for p in written), "bytes"),
        "campaign.aggregate.s": (tr.self_total("campaign.run_campaign"), "s"),
        "dataset.load_dataset.s": (tr.total("dataset.load_dataset"), "s"),
    }
    for name in ("game.utility_matrix", "game.gradient_matrix",
                 "nash.deviation_utilities", "strategies.golden_max"):
        m[f"{name}.us"] = (per_call_us(name), "us")
        m[f"{name}.calls"] = (tr.calls(name), "count")
    for name in strategy_names:
        for op in ("act", "observe"):
            m[f"strategies.{name}.{op}_us"] = (
                per_call_us(f"strategies.{name}.{op}"), "us")
    return m


def main(argv) -> int:
    job = json.loads(argv[1])
    import_s = import_fogbandit()
    out = run_job(job)
    out["import_s"] = import_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
