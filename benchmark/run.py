"""fogbandit benchmark: run one workload for a fixed time and report metrics.

    python3 benchmark/run.py --workload dataset10-bandit --seed 0 \
        --seconds 44 --trace 0

Runs campaigns of the workload one after another, each in a fresh
single-threaded process (benchmark/worker.py), as long as the next one is
expected to end within --seconds. It checks every replica, then prints
each metric by name followed by one JSON line: {"correct", "attempted",
"failed", "metrics"}. --trace 0
reports the end-to-end metrics of BENCHMARK.json from untraced campaigns;
--trace 1 alternates untraced and traced campaigns and reports the
per-layer metrics, the tracing overhead and the untraced per-strategy
times. `attempted` and `failed` count replicas.

    python3 benchmark/run.py --workload NAME --seed 0 --write-reference
        regenerates reference/NAME.seed0.json from one campaign.
    python3 benchmark/run.py --record
        prints the run record, including the tier-1 wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

from workloads import STRATEGIES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
RUN_DIR = ROOT / ".bench_run"
# Everything a run starts must have ended by then.
RUN_LIMIT_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}.seed{seed}.json"


def run_worker(job: dict, timeout: float) -> dict:
    """One campaign in a fresh process, writing its output files to a
    temporary directory that is removed afterwards; None if it crashed or
    timed out."""
    env = dict(os.environ, **THREAD_ENV, PYTHONDONTWRITEBYTECODE="1")
    RUN_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="campaign-", dir=RUN_DIR)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             json.dumps(dict(job, out_dir=out_dir))],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"campaign timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slow_quartile(values, higher_is_slower=True):
    """The quartile of the run's campaigns on the slow side. The host this
    was built on switches between two speed modes about 1.7x apart, for
    tens of seconds at a time; every run sees the slow mode, so its quartile
    is steadier from run to run than the median, which moves with the share
    of fast campaigns."""
    if len(values) < 2:
        return values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 if higher_is_slower else q1


def end_to_end(campaigns) -> dict:
    return {
        "setup_s": (slow_quartile([c["setup_s"] for c in campaigns]), "s"),
        "rounds_per_s": (slow_quartile([c["rounds_per_s"] for c in campaigns],
                                       higher_is_slower=False), "1/s"),
        "wall_s": (slow_quartile([c["wall_s"] for c in campaigns]), "s"),
        "peak_rss_mb": (median([c["peak_rss_mb"] for c in campaigns]), "MB"),
        "us_per_round.gp": (slow_quartile([c["us_per_round"]["gp"]
                                           for c in campaigns]), "us"),
    }


def per_layer(untraced, traced) -> dict:
    out = {name: (median([c["layers"][name][0] for c in traced]), unit)
           for name, (_, unit) in traced[0]["layers"].items()}
    out["cli.import_s"] = (
        median([c["import_s"] for c in untraced + traced]), "s")
    out["trace.overhead"] = (median([c["wall_s"] for c in traced])
                             / median([c["wall_s"] for c in untraced]), "ratio")
    for name in STRATEGIES:
        if name != "gp":
            out[f"us_per_round.{name}"] = (
                median([c["us_per_round"].get(name, 0.0) for c in untraced]), "us")
    return out


def run_record(tier1_s=None) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    record = {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "versions": {"python": platform.python_version(),
                     "numpy": metadata.version("numpy"),
                     "scipy": metadata.version("scipy")},
        "threads": THREAD_ENV,
        "src_lines": src_lines,
    }
    if tier1_s is not None:
        record["tier1_wall_s"] = tier1_s
    return record


def tier1_wall_s() -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-m", "pytest", "-q",
                    "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                   cwd=ROOT, env=env, capture_output=True, timeout=600)
    return time.monotonic() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="master seed of every campaign in the run")
    p.add_argument("--seconds", type=float, default=44.0,
                   help="start campaigns while they are expected to end "
                        "within this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--T", type=int, default=None,
                   help="rounds per replica instead of the workload's size "
                        "(for smoke tests; no reference applies)")
    p.add_argument("--reference", default=None,
                   help="reference file to use instead of the checked-in one")
    p.add_argument("--write-reference", action="store_true",
                   help="run one campaign and write its reference file")
    p.add_argument("--record", action="store_true",
                   help="print the run record with the tier-1 wall time")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fogbandit" / "__init__.py").is_file():
        print(f"fogbandit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        print(json.dumps(run_record(tier1_wall_s()), indent=1))
        return 0

    wl = WORKLOADS[args.workload]
    T = args.T or wl.T
    reference = args.reference
    if args.write_reference:
        destination = Path(reference or reference_path(args.workload, args.seed))
        reference = None
    elif reference is None and T == wl.T:
        path = reference_path(args.workload, args.seed)
        reference = str(path) if path.is_file() else None
    t0 = time.monotonic()

    def job(traced: bool) -> dict:
        return {"workload": args.workload, "seed": args.seed, "T": T,
                "traced": traced, "reference": reference}

    if args.write_reference:
        spec = dict(job(False), write_reference=str(destination))
        destination.parent.mkdir(parents=True, exist_ok=True)
        res = run_worker(spec, RUN_LIMIT_S)
        if res is None or res["replicas_failed"]:
            print(json.dumps(res and res["failures"]), file=sys.stderr)
            return 1
        print(f"wrote {destination}")
        return 0

    untraced, traced, durations = [], [], []
    attempted = failed = 0
    while True:
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        started = time.monotonic()
        res = run_worker(job(want_traced), RUN_LIMIT_S - (started - t0))
        durations.append(time.monotonic() - started)
        if res is None:
            attempted += wl.replicas
            failed += wl.replicas
        else:
            attempted += res["replicas"]
            failed += res["replicas_failed"]
            for msg in res["failures"]:
                print(f"FAILED {msg}", file=sys.stderr)
            if res.get("unpatched"):
                print(f"not traced, missing from the package: "
                      f"{', '.join(res['unpatched'])}", file=sys.stderr)
            print(f"campaign {len(untraced) + len(traced) + 1}"
                  f"{' (traced)' if want_traced else ''}: "
                  f"wall {res['wall_s']:.3f} s, setup {res['setup_s']:.3f} s, "
                  f"{res['rounds_per_s']:.1f} rounds/s, "
                  f"gp {res['us_per_round']['gp']:.1f} us/round")
            (traced if want_traced else untraced).append(res)
        # Start no campaign that would, at the median duration so far, end
        # after --seconds, once the run has the campaigns it reports on.
        elapsed = time.monotonic() - t0
        ends_late = elapsed + median(durations) > args.seconds
        enough = untraced and (traced or not args.trace)
        if elapsed >= RUN_LIMIT_S - 10 or (ends_late and (enough or res is None)):
            break
    if not untraced or (args.trace and not traced):
        print("no campaign completed", file=sys.stderr)
        return 1

    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    print(f"workload {args.workload}, seed {args.seed}, T {T}, "
          f"{len(untraced)} untraced + {len(traced)} traced campaigns, "
          f"reference {'checked' if reference else 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    print(json.dumps({"run_record": run_record()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
