"""Multi-seed campaign orchestration and plot-ready result files.

A campaign runs one or more strategies on the same game, each as an
independent set of replicas (every node plays the strategy under test),
all held by one bank and played by one engine loop. Replica randomness
derives from (master_seed, strategy name, replica index), so results are
reproducible and independent of strategy order and seed count. The
equilibrium is solved once per game and serves as the regret reference.
"""

from __future__ import annotations

import json
import numbers
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import POST_FRACTION, REGRET_MODES, regret_slope, run_seed
from .errors import ConfigurationError, require_integer
from .game import Bounds, GameSpec, estimate_bounds, utility_range
from .nash import NashSolution, epsilon_gap, solve_nash
from .strategies.baselines import BrBank, GpBank, RsBank
from .strategies.bgam import BgamBank
from .strategies.lbwi import LbwiBank
from .strategies.llr import LlrBank
from .text import csv_rows

# Parameter keys each strategy accepts; make_bank rejects any other key.
STRATEGY_PARAMS = {
    "bgam": ("xi", "beta", "nu"), "bgd": ("xi", "nu"),
    "lbwi": ("N", "gamma", "pulls_per_interval"),
    "lb": ("N", "gamma", "pulls_per_interval"),
    "llr": (), "gp": ("eta",), "br": (), "rs": (),
}
STRATEGY_NAMES = tuple(STRATEGY_PARAMS)
# Rows formatted per block of a result CSV, and per replica of a trace: the
# trace's 4 float columns then make kernel calls of at most 4096 floats. On
# the 10 x 10 result files, blocks of 256 rows took 1.5-1.9x as long, and
# of 2048 or 4096 rows 0.7-0.9x at up to four times the memory.
ROWS_PER_WRITE = 1024


def make_bank(name: str, spec: GameSpec, T: int, rngs, params: dict,
              bounds: Bounds):
    """Instantiate the learner bank for a strategy name, one replica per
    generator in `rngs`: the one place a strategy's settings are checked.
    Raises ConfigurationError for an unknown strategy, a parameter block
    that is not a dict, an unknown parameter key, or a parameter value that
    is not a real number (bools included), not finite or out of range,
    naming the strategy. The bank's `params` holds the settings as checked,
    in Python numbers."""
    if name not in STRATEGY_PARAMS:
        raise ConfigurationError(f"unknown strategy {name!r}; "
                                 f"supported: {', '.join(STRATEGY_NAMES)}")
    if not isinstance(params, dict):
        raise ConfigurationError(f"strategy {name!r}: parameters must be a JSON "
                                 f"object, got {params!r}")
    unknown = sorted(set(params) - set(STRATEGY_PARAMS[name]))
    if unknown:
        raise ConfigurationError(
            f"strategy {name!r} has no parameter {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(STRATEGY_PARAMS[name]) or 'none'}")
    checked = {}
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"strategy {name!r}: {key} must be a number, "
                                     f"got {value!r}")
        if not np.isfinite(value):
            raise ConfigurationError(f"strategy {name!r}: {key} must be finite, "
                                     f"got {value!r}")
        # a Python number, numpy's included, so that summary.json can hold it
        checked[key] = int(value) if isinstance(value, numbers.Integral) else float(value)
    params = dict(checked, beta=0.0) if name == "bgd" else checked
    try:
        if name in ("bgam", "bgd"):
            bank = BgamBank(spec, T, bounds, rngs, **params)
        elif name in ("lbwi", "lb"):
            bank = LbwiBank(spec, T, rngs, with_init=(name == "lbwi"), **params)
        else:
            bank = {"llr": LlrBank, "gp": GpBank, "br": BrBank,
                    "rs": RsBank}[name](spec, T, rngs, **params)
    except ConfigurationError as exc:
        raise ConfigurationError(f"strategy {name!r}: {exc}") from None
    if isinstance(bank, LbwiBank) and bank.N < 8.0 * bounds.H / bounds.L:
        warnings.warn(f"coarse interval count N={bank.N} is below 8*H/L~="
                      f"{8.0 * bounds.H / bounds.L:.1f}; the refinement guarantee "
                      "may not hold", stacklevel=2)
    bank.params = checked             # what summary.json records
    return bank


@dataclass
class StrategyConfig:
    name: str
    params: dict = field(default_factory=dict)    # checked by make_bank


@dataclass
class ExperimentConfig:
    spec: GameSpec
    strategies: list
    T: int = 50_000
    n_seeds: int = 10
    master_seed: int = 0
    regret_mode: str = REGRET_MODES[0]
    out_dir: Path = None
    trace: bool = False
    post_fraction = POST_FRACTION     # the engine's constant, not a field

    def __post_init__(self):
        for name, least in (("T", 1), ("n_seeds", 1), ("master_seed", 0)):
            setattr(self, name, require_integer(name, getattr(self, name), least))
        if self.regret_mode not in REGRET_MODES:
            raise ConfigurationError(f"unknown regret mode {self.regret_mode!r}")
        if self.trace and self.out_dir is None:
            raise ConfigurationError("trace needs an out_dir to write the traces to")
        if not self.strategies:
            raise ConfigurationError("strategies must list at least one strategy")
        self.strategies = [
            s if isinstance(s, StrategyConfig) else StrategyConfig(**s)
            for s in self.strategies
        ]
        names = [s.name for s in self.strategies]
        for name in names:
            if names.count(name) > 1:
                # a strategy's result files are named after it alone
                raise ConfigurationError(f"strategy {name!r} is listed more than once")


def replica_streams(master_seed: int, strategy: str, seed: int):
    """Two independent generators (strategy, noise) for one replica,
    derived only from the identifying triple."""
    entropy = (master_seed, zlib.crc32(strategy.encode()), seed)
    # the two children SeedSequence(entropy).spawn(2) would make
    return tuple(np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
                 for i in (0, 1))


@dataclass
class StrategyCampaign:
    name: str
    params: dict
    seeds: list                       # SeedResult per replica
    log_t: np.ndarray
    mean_cum_regret: np.ndarray       # (L, K) over seeds
    std_cum_regret: np.ndarray
    mean_avg_regret: np.ndarray
    std_avg_regret: np.ndarray
    slope: float                      # regret_slope of the node-mean series
    node_slopes: list                 # of each node's seed-mean series
    seed_slopes: list                 # of each replica's node-mean series
    eps_gap_trajectory: dict          # round -> mean eps-gap of averaged profile
    runtime: float

    def final_avg_regret_node_mean(self) -> float:
        return float(self.mean_avg_regret[-1].mean())


@dataclass
class CampaignResult:
    spec: GameSpec
    nash: NashSolution
    config: ExperimentConfig
    strategies: list
    metadata: dict


def run_campaign(config: ExperimentConfig, progress=None) -> CampaignResult:
    """Build every strategy's bank, which checks its settings, then solve the
    equilibrium and play the banks. Each bank draws only from its own replica
    streams, so building them all first moves no result."""
    spec = config.spec
    bounds = estimate_bounds(spec)
    seeds = range(config.n_seeds)
    banks = []
    for sc in config.strategies:
        t0 = time.monotonic()
        streams = [replica_streams(config.master_seed, sc.name, seed)
                   for seed in seeds]
        bank = make_bank(sc.name, spec, config.T, [g for g, _ in streams],
                         sc.params, bounds)
        banks.append((bank, [g for _, g in streams], time.monotonic() - t0))
    nash = solve_nash(spec)
    u_lo, u_hi = utility_range(spec)

    strategies = []
    for sc, (bank, noise_rngs, build_s) in zip(config.strategies, banks):
        t0 = time.monotonic()
        trace_sink = None
        if config.trace:
            trace_sink = _TraceWriter([
                Path(config.out_dir) / f"trace_{sc.name}_seed{seed}.csv"
                for seed in seeds])
        try:
            seed_results = run_seed(spec, bank, config.T, noise_rngs, nash,
                                    config.regret_mode, trace_sink)
        finally:
            if trace_sink is not None:
                trace_sink.close()
        if progress:
            for seed in seeds:
                progress(f"{sc.name}: seed {seed} done")

        log_t = seed_results[0].log_t
        cum = np.stack([r.cum_regret for r in seed_results])    # (S, L, K)
        avg = cum / log_t[:, None]
        mean_cum = cum.mean(axis=0)
        ddof = 1 if config.n_seeds > 1 else 0
        checkpoints = list(seed_results[0].avg_profile)     # in round order
        gaps = epsilon_gap(np.array([[r.avg_profile[t] for r in seed_results]
                                     for t in checkpoints]), spec)
        gap_traj = {t: float(g) for t, g in zip(checkpoints, gaps.mean(axis=1))}
        strategies.append(StrategyCampaign(
            name=sc.name, params=bank.params, seeds=seed_results, log_t=log_t,
            mean_cum_regret=mean_cum, std_cum_regret=cum.std(axis=0, ddof=ddof),
            mean_avg_regret=avg.mean(axis=0), std_avg_regret=avg.std(axis=0, ddof=ddof),
            slope=regret_slope(mean_cum.mean(axis=1), log_t),
            node_slopes=[regret_slope(series, log_t) for series in mean_cum.T],
            seed_slopes=[regret_slope(c.mean(axis=1), log_t) for c in cum],
            eps_gap_trajectory=gap_traj,
            runtime=build_s + time.monotonic() - t0))   # its build counts too

    metadata = {
        "reward_normalization": {"u_min": u_lo, "u_max": u_hi,
                                 "note": "observed utilities are mapped affinely "
                                         "onto [0,1] before entering exponential "
                                         "weights"},
        "noise_model": "independent zero-mean Gaussian per (node, task) "
                       "observation with the configured std",
        "bounds": {"L": bounds.L, "U": bounds.U, "H": bounds.H},
        "regret_mode": config.regret_mode,
    }
    return CampaignResult(spec=spec, nash=nash, config=config,
                          strategies=strategies, metadata=metadata)


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

class _TraceWriter:
    """Per-round traces, one file per replica. Each round is copied when it
    is handed over, since a bank may update its profile in place, and
    written once a replica has ROWS_PER_WRITE rows waiting, or at close."""

    HEADER = b"t,node,task,x,a,clean_utility,observed_utility\n"

    def __init__(self, paths):
        self._fhs, self._t, self._rounds = [], [], []
        try:
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                self._fhs.append(open(path, "wb"))
                self._fhs[-1].write(self.HEADER)
        except BaseException:
            self.close()
            raise

    def __call__(self, rec):
        self._t.append(rec.t)
        self._rounds.append(np.array([rec.x, rec.a, rec.clean_utility,
                                      rec.observed_utility]))
        if len(self._rounds) >= max(1, ROWS_PER_WRITE // rec.x[0].size):
            self._flush()

    def _flush(self):
        if not self._rounds:
            return
        t = np.array(self._t)[:, None, None]
        rounds = np.array(self._rounds)                  # (R, 4, S, K, M)
        self._t, self._rounds = [], []
        K, M = rounds.shape[-2:]
        for s, fh in enumerate(self._fhs):
            _write_rows(fh, t, np.arange(K)[:, None], np.arange(M),
                        *rounds[:, :, s].swapaxes(0, 1))

    def close(self):
        try:
            self._flush()
        finally:
            for fh in self._fhs:
                fh.close()


def _write_rows(fh, *columns) -> None:
    """Write one CSV row per element of the broadcast columns, in C order,
    "%d" for integer columns and "%.17g" for float ones. Rows go out in
    blocks of at most ROWS_PER_WRITE (or one row), each cut along one axis
    so that every column is formatted at its own shape: a column broadcast
    along an axis is formatted once per block, not once per row."""
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    axis = next(a for a in range(len(shape))
                if np.prod(shape[a + 1:]) <= ROWS_PER_WRITE)
    step = max(1, ROWS_PER_WRITE // int(np.prod(shape[axis + 1:])))
    for outer in np.ndindex(shape[:axis]):
        for lo in range(0, shape[axis], step):
            cut = slice(lo, lo + step)
            block = [c[tuple(i if n > 1 else 0 for i, n in zip(outer, c.shape))
                       + ((cut if c.shape[axis] > 1 else slice(None)),)]
                     for c in columns]
            rows = (min(step, shape[axis] - lo),) + shape[axis + 1:]
            fh.write(csv_rows(rows, block))


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write `header`, then the rows of `columns` as _write_rows writes
    them, so no file's whole text is ever held."""
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_rows(fh, *columns)


def write_regret_csv(result: StrategyCampaign, path: Path) -> None:
    """Seed-mean regret series: one row per (logged round, node)."""
    K = result.mean_cum_regret.shape[1]
    _write_csv(path, "t,node,cumulative_regret,average_regret\n",
               result.log_t[:, None], np.arange(K),
               result.mean_cum_regret, result.mean_avg_regret)


def write_histogram_csv(result: StrategyCampaign, path: Path) -> None:
    """Post-window action-selection counts, one row per (seed, node, task, bin)."""
    hist = np.stack([r.histogram for r in result.seeds])    # (S, K, M, B)
    seed = np.array([r.seed for r in result.seeds])[:, None, None, None]
    K, M, B = hist.shape[1:]
    edges = np.linspace(0.0, 1.0, B + 1)
    _write_csv(path, "seed,node,task,bin_lo,bin_hi,count\n",
               seed, np.arange(K)[:, None, None], np.arange(M)[:, None],
               edges[:-1], edges[1:], hist)


def write_final_actions_csv(result: StrategyCampaign, path: Path) -> None:
    """Seed-mean of the final-window and post-window average actions."""
    final = np.mean([r.final_window_avg for r in result.seeds], axis=0)
    post = np.mean([r.post_window_avg for r in result.seeds], axis=0)
    K, M = final.shape
    _write_csv(path, "node,task,final_window_avg,post_window_avg\n",
               np.arange(K)[:, None], np.arange(M),
               final, post)


def _finite_or_null(slope: float):
    return slope if np.isfinite(slope) else None


def summary_dict(result: CampaignResult) -> dict:
    cfg = result.config
    out = {
        "game": {"K": result.spec.K, "M": result.spec.M,
                 "barrier": result.spec.barrier,
                 "noise_std": result.spec.noise_std},
        "T": cfg.T,
        "n_seeds": cfg.n_seeds,
        "master_seed": cfg.master_seed,
        "regret_mode": cfg.regret_mode,
        "nash": result.nash.to_dict(),
        "metadata": result.metadata,
        "strategies": {},
    }
    for s in result.strategies:
        out["strategies"][s.name] = {
            "params": s.params,
            "final_cumulative_regret_mean": s.mean_cum_regret[-1].tolist(),
            "final_cumulative_regret_std": s.std_cum_regret[-1].tolist(),
            "final_average_regret_mean": s.mean_avg_regret[-1].tolist(),
            "final_average_regret_std": s.std_avg_regret[-1].tolist(),
            "final_average_regret_node_mean": s.final_avg_regret_node_mean(),
            "regret_slope": _finite_or_null(s.slope),
            "regret_slope_per_node": [_finite_or_null(v) for v in s.node_slopes],
            "regret_slope_per_seed": [_finite_or_null(v) for v in s.seed_slopes],
            "eps_gap_trajectory": {str(t): g for t, g in
                                   s.eps_gap_trajectory.items()},
            "runtime_seconds": s.runtime,
        }
    return out


def write_outputs(result: CampaignResult, out_dir) -> list:
    """Write the regret, histogram, final-actions CSVs and the summary JSON;
    returns the paths written. The summary's text is built before any file
    is written, so a value it cannot hold leaves no file behind."""
    summary = json.dumps(summary_dict(result), indent=2, sort_keys=True,
                         allow_nan=False)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for s in result.strategies:
        for prefix, writer in (("regret", write_regret_csv),
                               ("actions_hist", write_histogram_csv),
                               ("final_actions", write_final_actions_csv)):
            written.append(out_dir / f"{prefix}_{s.name}.csv")
            writer(s, written[-1])
    written.append(out_dir / "summary.json")
    written[-1].write_text(summary)
    return written
