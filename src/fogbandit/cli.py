"""Command-line front end.

Verbs:
  run            run a learning campaign and write plot-ready CSV/JSON files
  solve-nash     solve the game's equilibrium and print it as JSON
  validate-spec  check a game parameterization and report warnings
  bench-slope    fit the log-log regret growth exponent from a regret CSV

Any module error exits nonzero after printing a machine-readable error JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .campaign import (ExperimentConfig, StrategyConfig, run_campaign,
                       write_outputs, STRATEGY_NAMES)
from .dataset import builtin_game1, load_dataset, select_subgame
from .engine import REGRET_MODES, regret_slope
from .errors import ConfigurationError
from .game import GameSpec
from .nash import DEFAULT_SEED, DEFAULT_STARTS, DEFAULT_TOL, solve_nash


def _add_game_args(p):
    p.add_argument("--game", choices=["game1", "dataset"], default="game1",
                   help="built-in two-node game or the bundled index dataset")
    p.add_argument("--dataset", default=None,
                   help="dataset path (defaults to the bundled file)")
    p.add_argument("--nodes", type=int, default=None,
                   help="use the first N nodes of the dataset")
    p.add_argument("--tasks", type=int, default=None,
                   help="use the first N tasks of the dataset")
    p.add_argument("--noise-std", type=float, default=None,
                   help=f"feedback noise std (default {GameSpec.noise_std})")
    p.add_argument("--spec-json", default=None,
                   help="load the game from a GameSpec JSON document instead")


def _reject_given(flags: dict, reason: str) -> None:
    for flag, value in flags.items():
        if value is not None:
            raise ConfigurationError(f"{flag} cannot be combined with {reason}")


def build_spec(args) -> GameSpec:
    dataset_flags = {"--nodes": args.nodes, "--tasks": args.tasks,
                     "--dataset": args.dataset}
    if args.spec_json:
        _reject_given({"--noise-std": args.noise_std, **dataset_flags},
                      "--spec-json, which sets the whole game")
        return GameSpec.from_json(Path(args.spec_json).read_text())
    noise = {} if args.noise_std is None else {"noise_std": args.noise_std}
    if args.game == "game1":
        _reject_given(dataset_flags, "--game game1, which uses no dataset")
        return builtin_game1(**noise)
    ds = load_dataset(args.dataset)
    nodes = range(ds.K if args.nodes is None else args.nodes)
    tasks = range(ds.M if args.tasks is None else args.tasks)
    return select_subgame(ds, nodes, tasks, **noise)


def cmd_run(args) -> int:
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ConfigurationError(f"--params must be a JSON object, got {args.params}")
    names = args.strategy.split(",")
    unlisted = sorted(set(params) - set(names))
    if unlisted:
        raise ConfigurationError(
            f"--params names {', '.join(unlisted)}, which --strategy does not list")
    strategies = [StrategyConfig(name, params.get(name, {})) for name in names]
    spec = build_spec(args)
    config = ExperimentConfig(
        spec=spec, strategies=strategies, T=args.T, n_seeds=args.seeds,
        master_seed=args.master_seed, regret_mode=args.regret_mode,
        out_dir=Path(args.out), trace=args.trace,
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_campaign(config, progress=print if args.verbose else None)
    written = write_outputs(result, config.out_dir)
    for s in result.strategies:
        print(f"{s.name}: final average regret (node mean) = "
              f"{s.final_avg_regret_node_mean():.6g}, slope = {s.slope:.3f}, "
              f"{s.runtime:.1f}s")
    print(f"wrote {len(written)} files to {config.out_dir}")
    return 0


def cmd_solve_nash(args) -> int:
    spec = build_spec(args)
    sol = solve_nash(spec, tol=args.tol, n_starts=args.starts,
                     seed=args.master_seed)
    text = json.dumps(sol.to_dict(), indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "nash.json").write_text(text)
    return 0


def cmd_validate_spec(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = build_spec(args)
    print(json.dumps({
        "valid": True,
        "K": spec.K,
        "M": spec.M,
        "warnings": [str(w.message) for w in caught],
    }, indent=2))
    return 0


def cmd_bench_slope(args) -> int:
    if not 0.0 <= args.window < 1.0:          # nan fails too
        raise ConfigurationError(f"--window must lie in [0, 1), got {args.window}")
    rows = np.genfromtxt(args.input, delimiter=",", names=True, ndmin=1)
    K = len(np.unique(rows["node"]))
    if len(rows) % K or np.any(rows["node"] != np.tile(np.arange(K), len(rows) // K)):
        raise ConfigurationError(f"{args.input}: the node column must repeat "
                                 f"0..{K - 1} per logged round as `run` writes it")
    cum = rows["cumulative_regret"].reshape(-1, K)       # (L, K)
    t, window = rows["t"][::K], (args.window, 1.0)

    def slope(series):
        try:
            return regret_slope(series, window=window, t=t)
        except ValueError:            # undefined: null, as summary.json has it
            return None
    slopes = {str(k): slope(cum[:, k]) for k in range(K)}
    slopes["node_mean"] = slope(cum.mean(axis=1))
    print(json.dumps({"slopes": slopes, "window": [args.window, 1.0]}, indent=2))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fogbandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a learning campaign")
    _add_game_args(p)
    p.add_argument("--strategy", default="bgam",
                   help=f"comma-separated names from {{{','.join(STRATEGY_NAMES)}}}")
    p.add_argument("--T", type=int, default=ExperimentConfig.T)
    p.add_argument("--seeds", type=int, default=ExperimentConfig.n_seeds)
    p.add_argument("--master-seed", type=int, default=ExperimentConfig.master_seed)
    p.add_argument("--regret-mode", choices=REGRET_MODES,
                   default=ExperimentConfig.regret_mode)
    p.add_argument("--out", default="results")
    p.add_argument("--trace", action="store_true",
                   help="also stream per-round traces (large files)")
    p.add_argument("--params", default=None,
                   help='JSON dict of per-strategy parameter overrides, e.g. '
                        '\'{"bgam": {"nu": 0.05}}\'')
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("solve-nash", help="solve the equilibrium")
    _add_game_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    p.add_argument("--master-seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve_nash)

    p = sub.add_parser("validate-spec", help="validate a game parameterization")
    _add_game_args(p)
    p.set_defaults(func=cmd_validate_spec)

    p = sub.add_parser("bench-slope", help="fit regret growth exponent")
    p.add_argument("--input", required=True, help="regret CSV from `run`")
    p.add_argument("--window", type=float, default=0.5,
                   help="fit from this fraction of the horizon onward")
    p.set_defaults(func=cmd_bench_slope)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
