"""Command-line front end.

Verbs:
  run            run a learning campaign and write plot-ready CSV/JSON files
  solve-nash     solve the game's equilibrium and print it as JSON
  validate-spec  check a game parameterization and report warnings

Every verb takes the same game flags: --game is game1, dataset or the path
of a game document (see fogbandit.dataset), and --nodes, --tasks and
--noise-std apply to any of them.

Any module error exits nonzero after printing a machine-readable error JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .campaign import (ExperimentConfig, StrategyConfig, run_campaign,
                       write_outputs, STRATEGY_NAMES)
from .dataset import GAME1, load_dataset, select_subgame
from .engine import REGRET_MODES
from .errors import ConfigurationError, require_integer
from .game import GameSpec
from .nash import DEFAULT_SEED, DEFAULT_STARTS, DEFAULT_TOL, solve_nash


def _add_game_args(p):
    p.add_argument("--game", default="game1",
                   help="game1 (the built-in 2 x 2 game), dataset (the bundled "
                        "10 x 10 network) or the path of a game document: a JSON "
                        "object with rho, eps and kappa and optional barrier and "
                        "noise_std, as GameSpec.to_json writes it")
    p.add_argument("--nodes", type=int, default=None,
                   help="use the first N nodes of the game")
    p.add_argument("--tasks", type=int, default=None,
                   help="use the first N tasks of the game")
    p.add_argument("--noise-std", type=float, default=None,
                   help="feedback noise std (default: the document's, else "
                        f"{GameSpec.noise_std})")


def build_spec(args) -> GameSpec:
    """The GameSpec the game flags describe: --nodes and --tasks keep the
    first N >= 1 rows and columns of any game, --noise-std sets its noise."""
    if args.game == "game1":
        doc = GAME1
    else:
        doc = load_dataset(None if args.game == "dataset" else args.game)
    nodes, tasks = (None if n is None else range(require_integer(flag, n, 1))
                    for flag, n in (("--nodes", args.nodes), ("--tasks", args.tasks)))
    return select_subgame(doc, nodes, tasks, args.noise_std)


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
