"""Multi-seed campaign orchestration and plot-ready result files.

A campaign runs one or more strategies on the same game, each as an
independent set of replicas (every node plays the strategy under test).
Replica randomness derives from (master_seed, strategy name, replica
index), so results are reproducible and independent of the order in which
strategies or seeds are listed. The equilibrium is solved once per game
and serves as the regret reference.
"""

from __future__ import annotations

import json
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import regret_slope, run_seed
from .errors import ConfigurationError
from .game import Bounds, GameSpec, estimate_bounds, utility_range
from .nash import NashSolution, epsilon_gap, solve_nash
from .strategies.baselines import BrBank, GpBank, RsBank
from .strategies.bgam import BgamBank
from .strategies.lbwi import LbwiBank
from .strategies.llr import LlrBank

# Parameter keys each strategy accepts; make_bank rejects any other key.
STRATEGY_PARAMS = {
    "bgam": ("xi", "beta", "nu"), "bgd": ("xi", "nu"),
    "lbwi": ("N", "gamma", "pulls_per_interval"),
    "lb": ("N", "gamma", "pulls_per_interval"),
    "llr": (), "gp": ("eta",), "br": (), "rs": (),
}
STRATEGY_NAMES = tuple(STRATEGY_PARAMS)
FMT = "{:.17g}"


def check_params(name: str, params: dict) -> None:
    """Raise ConfigurationError for an unknown strategy or parameter key."""
    if name not in STRATEGY_PARAMS:
        raise ConfigurationError(f"unknown strategy {name!r}; "
                                 f"supported: {', '.join(STRATEGY_NAMES)}")
    unknown = sorted(set(params) - set(STRATEGY_PARAMS[name]))
    if unknown:
        raise ConfigurationError(
            f"strategy {name!r} has no parameter {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(STRATEGY_PARAMS[name]) or 'none'}")


def make_bank(name: str, spec: GameSpec, T: int, rng, params: dict,
              bounds: Bounds):
    """Instantiate the learner bank for a strategy name. Raises
    ConfigurationError for an unknown strategy or parameter key, and the
    bank's own ConfigurationError for an out-of-range parameter value."""
    check_params(name, params)
    if name in ("bgam", "bgd"):
        if name == "bgd":
            params = dict(params, beta=0.0)
        return BgamBank(spec, T, bounds, rng, **params)
    if name in ("lbwi", "lb"):
        bank = LbwiBank(spec, T, rng, with_init=(name == "lbwi"), **params)
        if bank.N < 8.0 * bounds.H / bounds.L:
            warnings.warn(
                f"coarse interval count N={bank.N} is below 8*H/L~="
                f"{8.0 * bounds.H / bounds.L:.1f}; the refinement guarantee "
                "may not hold", stacklevel=2)
        return bank
    if name == "gp":
        return GpBank(spec, T, rng, **params)
    return {"llr": LlrBank, "br": BrBank, "rs": RsBank}[name](spec, T, rng)


@dataclass
class StrategyConfig:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = dict(self.params or {})
        check_params(self.name, self.params)


@dataclass
class ExperimentConfig:
    spec: GameSpec
    strategies: list
    T: int = 50_000
    n_seeds: int = 10
    master_seed: int = 0
    regret_mode: str = "ne_reference"
    out_dir: Path = None
    trace: bool = False
    log_every: int = None
    final_window: int = 1000
    post_fraction: float = 0.9
    hist_bins: int = 20

    def __post_init__(self):
        if self.T < 1 or self.n_seeds < 1:
            raise ConfigurationError("T and n_seeds must be >= 1")
        if self.regret_mode not in ("ne_reference", "per_round_br"):
            raise ConfigurationError(f"unknown regret mode {self.regret_mode!r}")
        self.strategies = [
            s if isinstance(s, StrategyConfig) else StrategyConfig(**s)
            for s in self.strategies
        ]

    def checkpoints(self):
        base = {self.T // 4, self.T // 2, (3 * self.T) // 4, self.T}
        samples = np.unique(np.geomspace(max(1, self.T // 100), self.T, 8)
                            .astype(int))
        return sorted(c for c in base | set(samples.tolist()) if c >= 1)


def replica_streams(master_seed: int, strategy: str, seed: int):
    """Two independent generators (strategy, noise) for one replica,
    derived only from the identifying triple."""
    root = np.random.SeedSequence((master_seed, zlib.crc32(strategy.encode()), seed))
    strat_ss, noise_ss = root.spawn(2)
    return np.random.default_rng(strat_ss), np.random.default_rng(noise_ss)


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
    slope: float
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

    def by_name(self, name: str) -> StrategyCampaign:
        for s in self.strategies:
            if s.name == name:
                return s
        raise KeyError(name)


def run_campaign(config: ExperimentConfig, nash: NashSolution = None,
                 progress=None) -> CampaignResult:
    spec = config.spec
    if nash is None:
        nash = solve_nash(spec)
    bounds = estimate_bounds(spec)
    checkpoints = config.checkpoints()
    u_lo, u_hi = utility_range(spec)

    strategies = []
    for sc in config.strategies:
        t0 = time.monotonic()
        seed_results = []
        for seed in range(config.n_seeds):
            strat_rng, noise_rng = replica_streams(config.master_seed, sc.name, seed)
            bank = make_bank(sc.name, spec, config.T, strat_rng, sc.params, bounds)
            trace_sink = None
            if config.trace and config.out_dir is not None:
                trace_sink = _TraceWriter(
                    Path(config.out_dir) / f"trace_{sc.name}_seed{seed}.csv")
            res = run_seed(spec, bank, config.T, noise_rng, nash, seed=seed,
                           regret_mode=config.regret_mode,
                           log_every=config.log_every,
                           final_window=config.final_window,
                           post_fraction=config.post_fraction,
                           hist_bins=config.hist_bins,
                           checkpoints=checkpoints,
                           trace_sink=trace_sink)
            if trace_sink is not None:
                trace_sink.close()
            seed_results.append(res)
            if progress:
                progress(f"{sc.name}: seed {seed} done")

        cum = np.stack([r.cum_regret for r in seed_results])    # (S, L, K)
        avg = np.stack([r.avg_regret for r in seed_results])
        log_t = seed_results[0].log_t
        mean_cum = cum.mean(axis=0)
        ddof = 1 if config.n_seeds > 1 else 0
        gaps = epsilon_gap(np.array([[r.avg_profile[t] for r in seed_results]
                                     for t in checkpoints]), spec)
        gap_traj = {t: float(g) for t, g in zip(checkpoints, gaps.mean(axis=1))}
        node_mean_cum = mean_cum.mean(axis=1)
        try:
            slope = regret_slope(node_mean_cum, t=log_t)
        except ValueError:
            slope = float("nan")
        strategies.append(StrategyCampaign(
            name=sc.name, params=sc.params, seeds=seed_results, log_t=log_t,
            mean_cum_regret=mean_cum, std_cum_regret=cum.std(axis=0, ddof=ddof),
            mean_avg_regret=avg.mean(axis=0), std_avg_regret=avg.std(axis=0, ddof=ddof),
            slope=slope, eps_gap_trajectory=gap_traj,
            runtime=time.monotonic() - t0))

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
    HEADER = "t,node,task,x,a,clean_utility,observed_utility\n"

    def __init__(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "w")
        self._fh.write(self.HEADER)

    def __call__(self, rec):
        K, M = rec.x.shape
        rows = []
        for k in range(K):
            for m in range(M):
                rows.append(",".join([str(rec.t), str(k), str(m)] + [
                    FMT.format(v) for v in
                    (rec.x[k, m], rec.a[k, m], rec.clean_utility[k, m],
                     rec.observed_utility[k, m])
                ]))
        self._fh.write("\n".join(rows) + "\n")

    def close(self):
        self._fh.close()


def write_regret_csv(result: StrategyCampaign, path: Path) -> None:
    """Seed-mean regret series: one row per (logged round, node)."""
    with open(path, "w") as fh:
        fh.write("t,node,cumulative_regret,average_regret\n")
        for i, t in enumerate(result.log_t):
            for k in range(result.mean_cum_regret.shape[1]):
                fh.write(f"{t},{k},{FMT.format(result.mean_cum_regret[i, k])},"
                         f"{FMT.format(result.mean_avg_regret[i, k])}\n")


def write_histogram_csv(result: StrategyCampaign, path: Path) -> None:
    """Post-window action-selection counts, one row per (seed, node, task, bin)."""
    edges = result.seeds[0].hist_edges
    with open(path, "w") as fh:
        fh.write("seed,node,task,bin_lo,bin_hi,count\n")
        for res in result.seeds:
            K, M, B = res.histogram.shape
            for k in range(K):
                for m in range(M):
                    for b in range(B):
                        fh.write(f"{res.seed},{k},{m},{FMT.format(edges[b])},"
                                 f"{FMT.format(edges[b + 1])},{res.histogram[k, m, b]}\n")


def write_final_actions_csv(result: StrategyCampaign, path: Path) -> None:
    """Seed-mean of the final-window and post-window average actions."""
    final = np.mean([r.final_window_avg for r in result.seeds], axis=0)
    post = np.mean([r.post_window_avg for r in result.seeds], axis=0)
    with open(path, "w") as fh:
        fh.write("node,task,final_window_avg,post_window_avg\n")
        K, M = final.shape
        for k in range(K):
            for m in range(M):
                fh.write(f"{k},{m},{FMT.format(final[k, m])},"
                         f"{FMT.format(post[k, m])}\n")


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
        "nash": {
            "x_star": result.nash.x_star.tolist(),
            "utilities": result.nash.utilities.tolist(),
            "eps_gap": result.nash.eps_gap,
            "iterations": result.nash.iterations,
            "converged": result.nash.converged,
        },
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
            "regret_slope": s.slope,
            "eps_gap_trajectory": {str(t): g for t, g in
                                   s.eps_gap_trajectory.items()},
            "runtime_seconds": s.runtime,
        }
    return out


def write_outputs(result: CampaignResult, out_dir) -> list:
    """Write the regret, histogram, final-actions CSVs and the summary JSON;
    returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for s in result.strategies:
        p = out_dir / f"regret_{s.name}.csv"
        write_regret_csv(s, p)
        written.append(p)
        p = out_dir / f"actions_hist_{s.name}.csv"
        write_histogram_csv(s, p)
        written.append(p)
        p = out_dir / f"final_actions_{s.name}.csv"
        write_final_actions_csv(s, p)
        written.append(p)
    p = out_dir / "summary.json"
    with open(p, "w") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
    written.append(p)
    return written
