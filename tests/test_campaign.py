"""Bank construction from strategy configs, the config's checks, the
campaign's checks before its first round, the CLI's check of per-strategy
parameter overrides, traces, checkpoint rounds, every strategy at the noise
ceiling, and replica streams that depend on neither strategy order nor seed
count."""

import json
import zlib

import numpy as np
import pytest

from fogbandit import campaign, cli, load_dataset, select_subgame
from fogbandit.campaign import (STRATEGY_NAMES, ExperimentConfig, make_bank,
                                run_campaign, write_outputs)
from fogbandit.engine import checkpoint_rounds, regret_slope
from fogbandit.errors import ConfigurationError, ProtocolError
from fogbandit.game import GameSpec, estimate_bounds


@pytest.fixture(scope="module")
def bounds(game1):
    return estimate_bounds(game1)


def build(name, params, spec, bounds):
    return make_bank(name, spec, 1000, [np.random.default_rng(0)], params, bounds)


@pytest.mark.filterwarnings("ignore:coarse interval count")
class TestMakeBank:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_defaults_build(self, name, game1, bounds):
        bank = build(name, {}, game1, bounds)
        assert bank.act().shape == (1, game1.K, game1.M)

    def test_accepts_known_keys(self, game1, bounds):
        bank = build("bgam", {"xi": 0.4, "beta": 0.5, "nu": 0.1}, game1, bounds)
        assert (bank.xi, bank.beta, bank.nu) == (0.4, 0.5, 0.1)
        assert build("bgd", {"nu": 0.1}, game1, bounds).beta == 0.0
        assert build("gp", {"eta": 0.3}, game1, bounds).eta == 0.3
        assert build("lb", {"N": 12, "gamma": 0.1}, game1, bounds).N == 12

    @pytest.mark.parametrize("name,params,key", [
        ("bgam", {"nuu": 5}, "nuu"),
        ("bgd", {"beta": 0.9}, "beta"),
        ("lbwi", {"eta": 0.1}, "eta"),
        ("rs", {"seed": 1}, "seed"),
        ("bgam", {"bounds_grid": 50}, "bounds_grid"),
    ])
    def test_rejects_unknown_key(self, name, params, key, game1, bounds):
        with pytest.raises(ConfigurationError, match=f"'{name}'.*'{key}'"):
            build(name, params, game1, bounds)

    def test_rejects_unknown_strategy(self, game1, bounds):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            build("ucb", {}, game1, bounds)

    @pytest.mark.parametrize("name,params,message", [
        ("gp", {"eta": -1}, "eta must be > 0, got -1"),
        ("bgam", {"nu": 0.0}, "step size nu must be > 0"),
        ("bgd", {"xi": 0.7}, "xi must lie in (0, 0.5]"),
        ("lb", {"gamma": 2.0}, "gamma must lie in (0, 1]"),
        # inf passed every range that is open above, into summary.json
        ("gp", {"eta": float("inf")}, "eta must be finite, got inf"),
        ("bgam", {"nu": float("inf")}, "nu must be finite, got inf"),
        ("bgd", {"nu": np.float64("inf")}, "nu must be finite, got "),
        ("lbwi", {"gamma": float("nan")}, "gamma must be finite, got nan"),
        ("lb", {"N": float("-inf")}, "N must be finite, got -inf"),
    ])
    def test_out_of_range_value_names_the_strategy(self, name, params, message,
                                                    game1, bounds):
        with pytest.raises(ConfigurationError) as info:
            build(name, params, game1, bounds)
        assert str(info.value).startswith(f"strategy {name!r}: {message}")

    @pytest.mark.parametrize("name,params,message", [
        ("gp", {"eta": "x"}, "eta must be a number, got 'x'"),
        ("lbwi", {"gamma": None}, "gamma must be a number, got None"),
        ("lb", {"pulls_per_interval": None}, "pulls_per_interval must be a number, "
                                             "got None"),
        ("gp", {"eta": True}, "eta must be a number, got True"),
        ("bgam", {"nu": np.bool_(True)}, "nu must be a number, got "),
        ("bgam", {"xi": 0.4, "beta": [0.5]}, "beta must be a number, got [0.5]"),
        ("gp", 5, "parameters must be a JSON object, got 5"),
        ("rs", None, "parameters must be a JSON object, got None"),
        ("lbwi", [("N", 4)], "parameters must be a JSON object, got [('N', 4)]"),
    ])
    def test_wrong_type_names_the_strategy_and_key(self, name, params, message,
                                                   game1, bounds):
        with pytest.raises(ConfigurationError) as info:
            build(name, params, game1, bounds)
        assert str(info.value).startswith(f"strategy {name!r}: {message}")

    def test_accepts_numpy_numbers(self, game1, bounds):
        bank = build("lbwi", {"N": np.int64(12), "gamma": np.float64(0.1),
                              "pulls_per_interval": np.int32(3)}, game1, bounds)
        assert (bank.N, bank.gamma, bank.A) == (12, 0.1, 3)
        assert build("gp", {"eta": np.float32(0.5)}, game1, bounds).eta == 0.5
        assert build("bgam", {"nu": 1}, game1, bounds).nu == 1

    @pytest.mark.parametrize("name", ["bgam", "bgd"])
    def test_horizon_one_names_the_strategy(self, game1, bounds, name):
        # the perturbation radius of bgam and bgd needs T >= 2
        rngs = [np.random.default_rng(0)]
        with pytest.raises(ConfigurationError,
                           match=f"strategy '{name}': horizon must be >= 2, got 1"):
            make_bank(name, game1, 1, rngs, {}, bounds)
        assert make_bank(name, game1, 2, rngs, {}, bounds).act().shape == (1, 2, 2)
        assert make_bank("rs", game1, 1, rngs, {}, bounds).act().shape == (1, 2, 2)


class TestExperimentConfig:
    def test_rejects_a_repeated_strategy(self, game1):
        # both runs would write the same result files
        with pytest.raises(ConfigurationError,
                           match="strategy 'rs' is listed more than once"):
            ExperimentConfig(game1, [{"name": "rs"}, {"name": "gp"}, {"name": "rs"}])

    @pytest.mark.parametrize("field,value,message", [
        ("T", 50.5, "an integer >= 1, got 50.5"),
        ("T", True, "an integer >= 1, got True"), ("T", 0, "an integer >= 1, got 0"),
        ("n_seeds", 2.5, "an integer >= 1, got 2.5"),
        ("n_seeds", 0, "an integer >= 1, got 0"),
        ("master_seed", 1.5, "an integer >= 0, got 1.5"),
        ("master_seed", -1, "an integer >= 0, got -1"),
    ])
    def test_rejects_counts_that_are_not_integers_in_range(self, game1, field,
                                                            value, message):
        # T = 50.5 failed with a TypeError in run_seed, after the solve, and
        # T = True ran one round
        with pytest.raises(ConfigurationError, match=rf"^{field} must be {message}$"):
            ExperimentConfig(game1, [{"name": "rs"}], **{field: value})
        config = ExperimentConfig(game1, [{"name": "rs"}], **{field: np.int64(3)})
        assert getattr(config, field) == 3

    def test_rejects_an_empty_strategy_list(self, game1):
        # it solved the equilibrium and wrote a summary.json with no strategy
        with pytest.raises(ConfigurationError,
                           match="^strategies must list at least one strategy$"):
            ExperimentConfig(game1, [])

    def test_rejects_an_unknown_regret_mode(self, game1):
        with pytest.raises(ConfigurationError,
                           match=r"^unknown regret mode 'best'$"):
            ExperimentConfig(game1, [{"name": "rs"}], regret_mode="best")

    def test_trace_needs_an_out_dir(self, game1, tmp_path):
        # without one the campaign wrote no trace and raised nothing
        with pytest.raises(ConfigurationError, match="out_dir"):
            ExperimentConfig(game1, [{"name": "rs"}], trace=True)
        ExperimentConfig(game1, [{"name": "rs"}], out_dir=tmp_path, trace=True)


class TestRunCampaign:
    """A campaign builds every bank, and so checks every strategy's
    settings, before it solves the equilibrium or plays a round."""

    @pytest.fixture(autouse=True)
    def no_solve_no_round(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the campaign went past its checks")
        monkeypatch.setattr(campaign, "solve_nash", fail)
        monkeypatch.setattr(campaign, "run_seed", fail)

    def test_rejects_unknown_key_before_the_solve(self, game1):
        config = ExperimentConfig(game1, [{"name": "rs"},
                                          {"name": "bgam", "params": {"nuu": 5}}])
        with pytest.raises(ConfigurationError, match="'bgam'.*'nuu'"):
            run_campaign(config)

    def test_rejects_unknown_strategy_before_the_solve(self, game1):
        config = ExperimentConfig(game1, [{"name": "rs"}, {"name": "ucb"}])
        with pytest.raises(ConfigurationError, match="unknown strategy 'ucb'"):
            run_campaign(config)


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
class TestRunParams:
    def run(self, tmp_path, params, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--strategy", "gp,rs", "--T", "20", "--seeds", "1",
                         "--params", json.dumps(params), "--out", str(out)])
        return code, capsys.readouterr().out, out

    def test_rejects_params_for_unlisted_strategy(self, tmp_path, capsys):
        code, printed, out = self.run(tmp_path, {"gp": {"eta": 0.3},
                                                 "bgam": {"nu": 0.1}}, capsys)
        assert code == 1
        error = json.loads(printed)
        assert error["error"] == "ConfigurationError"
        assert "bgam" in error["message"] and "gp" not in error["message"]
        assert not out.exists()

    def test_accepts_params_for_listed_strategy(self, tmp_path, capsys):
        code, _, out = self.run(tmp_path, {"gp": {"eta": 0.3}}, capsys)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["gp"]["params"] == {"eta": 0.3}


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
class TestTrace:
    def test_allocation_column_is_proportional_share(self, game1, tmp_path,
                                                     allocate):
        # the trace's a column must be the engine's allocation of its x
        out = tmp_path / "out"
        code = cli.main(["run", "--strategy", "rs", "--T", "5", "--seeds", "1",
                         "--trace", "--out", str(out)])
        assert code == 0
        rows = np.genfromtxt(out / "trace_rs_seed0.csv", delimiter=",",
                             names=True)
        for t in range(1, 6):
            r = rows[rows["t"] == t]
            k, m = r["node"].astype(int), r["task"].astype(int)
            x = np.zeros((game1.K, game1.M))
            x[k, m] = r["x"]
            assert np.array_equal(r["a"], allocate(x, game1)[k, m])

    def test_a_failing_run_closes_its_trace_files(self, game1, tmp_path,
                                                  monkeypatch):
        # every round played before the failure is on disk when it raises
        class FailsAtRound150:
            def __init__(self, bank):
                self.bank, self.t = bank, 0
                self.feedback_kind = bank.feedback_kind

            def act(self):
                self.t += 1
                x = self.bank.act()
                if self.t == 150:
                    x[0, 0, 0] = 2.0
                return x

            def observe(self, *feedback):
                self.bank.observe(*feedback)

        writers = []

        class RecordedWriter(campaign._TraceWriter):
            def __init__(self, paths):
                super().__init__(paths)
                writers.append(self)

        make = campaign.make_bank
        monkeypatch.setattr(campaign, "make_bank",
                            lambda *args: FailsAtRound150(make(*args)))
        monkeypatch.setattr(campaign, "_TraceWriter", RecordedWriter)
        config = ExperimentConfig(game1, [{"name": "rs"}], T=200, n_seeds=3,
                                  out_dir=tmp_path, trace=True)
        with pytest.raises(ProtocolError, match="^round 150: seed 0 "):
            run_campaign(config)
        assert all(fh.closed for fh in writers[0]._fhs)
        for seed in range(3):
            lines = (tmp_path / f"trace_rs_seed{seed}.csv").read_text().splitlines()
            assert len(lines) == 1 + 149 * game1.K * game1.M
            assert lines[-1].startswith("149,1,1,")

    def test_a_failed_open_closes_the_files_already_open(self, tmp_path,
                                                         monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(campaign, "open", recording_open, raising=False)
        (tmp_path / "b.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            campaign._TraceWriter([tmp_path / name
                                   for name in ("a.csv", "b.csv", "c.csv")])
        assert len(opened) == 1 and opened[0].closed


class TemplateTraceWriter:
    """The per-round trace writer that the block writer replaced, kept as
    the oracle for its bytes: one "%.17g" template per round."""

    HEADER = "t,node,task,x,a,clean_utility,observed_utility\n"

    def __init__(self, paths):
        self._fhs = []
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fhs.append(open(path, "w"))
            self._fhs[-1].write(self.HEADER)

    def __call__(self, rec):
        S, K, M = rec.x.shape
        template = "".join(f"{rec.t},{k},{m},%.17g,%.17g,%.17g,%.17g\n"
                           for k, m in np.ndindex(K, M))
        values = np.stack([rec.x, rec.a, rec.clean_utility,
                           rec.observed_utility], axis=-1).reshape(S, -1)
        for fh, row in zip(self._fhs, values.tolist()):
            fh.write(template % tuple(row))

    def close(self):
        for fh in self._fhs:
            fh.close()


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
@pytest.mark.filterwarnings("ignore:coarse interval count")
class TestTraceBytes:
    """The block trace writer writes the per-round template's bytes."""

    def assert_traces_equal_the_template(self, spec, strategies, T, tmp_path,
                                         monkeypatch):
        def traces(out):
            run_campaign(ExperimentConfig(spec, [{"name": n} for n in strategies],
                                          T=T, n_seeds=2, out_dir=out, trace=True))
            return {p.name: p.read_bytes() for p in sorted(out.glob("trace_*"))}

        blocks = traces(tmp_path / "blocks")
        monkeypatch.setattr(campaign, "_TraceWriter", TemplateTraceWriter)
        assert blocks == traces(tmp_path / "template")
        assert len(blocks) == 2 * len(strategies)

    @pytest.mark.parametrize("rows_per_write", [None, 7, 10**9])
    def test_subgame(self, rows_per_write, tmp_path, monkeypatch):
        # T = 150 rounds of 9 rows: 113 rounds per block at the default
        if rows_per_write is not None:
            monkeypatch.setattr(campaign, "ROWS_PER_WRITE", rows_per_write)
        spec = select_subgame(load_dataset(), range(3), range(3))
        self.assert_traces_equal_the_template(spec, STRATEGY_NAMES, 150,
                                              tmp_path, monkeypatch)

    def test_noise_ceiling(self, game1, tmp_path, monkeypatch):
        # every observed utility near 1e100 takes the "%.17g" fallback
        spec = GameSpec(rho=game1.rho, eps=game1.eps, kappa=game1.kappa,
                        noise_std=1e100)
        self.assert_traces_equal_the_template(spec, ["rs"], 300, tmp_path,
                                              monkeypatch)


class TestCheckpoints:
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_every_checkpoint_is_a_played_round(self, T):
        cps = checkpoint_rounds(T)
        assert cps[-1] == T
        assert all(1 <= c <= T for c in cps)

    @pytest.mark.parametrize("T,expected", [
        (200, [2, 3, 7, 14, 27, 50, 53, 100, 103, 150, 200]),
        (600, [6, 11, 22, 43, 83, 150, 160, 300, 310, 450, 600]),
        (1000, [10, 19, 37, 71, 138, 250, 268, 500, 517, 750, 1000]),
    ])
    def test_long_horizons_keep_their_checkpoints(self, T, expected):
        assert checkpoint_rounds(T) == expected


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
@pytest.mark.filterwarnings("ignore:coarse interval count")
def test_every_strategy_runs_at_the_noise_ceiling(game1):
    spec = GameSpec(rho=game1.rho, eps=game1.eps, kappa=game1.kappa,
                    noise_std=1e100)
    config = ExperimentConfig(spec, [{"name": n} for n in STRATEGY_NAMES],
                              T=400, n_seeds=3)
    for s in run_campaign(config).strategies:
        assert np.all(np.isfinite(s.mean_cum_regret)), s.name
        # the gaps are taken at the rounds run_seed recorded
        assert list(s.eps_gap_trajectory) == checkpoint_rounds(400)


@pytest.mark.filterwarnings("ignore:coarse interval count")
@pytest.mark.parametrize("field", ["T", "n_seeds", "master_seed", "N"])
def test_numpy_integers_write_the_summary_of_python_ones(game1, tmp_path, field):
    # each passed its check, then json.dump raised after the CSVs were written
    def summary(cast, out):
        settings = {"T": 20, "n_seeds": 2, "master_seed": 1, "N": 4}
        settings[field] = cast(settings[field])
        N = settings.pop("N")
        config = ExperimentConfig(game1, [{"name": "lbwi", "params": {"N": N}}],
                                  **settings)
        write_outputs(run_campaign(config), out)
        written = json.loads((out / "summary.json").read_text())
        del written["strategies"]["lbwi"]["runtime_seconds"]
        return written

    assert summary(np.int64, tmp_path / "numpy") == summary(int, tmp_path / "python")


def test_a_summary_json_cannot_hold_leaves_no_file(game1, tmp_path):
    # the summary's text is built before the first CSV is written
    result = run_campaign(ExperimentConfig(game1, [{"name": "rs"}], T=20, n_seeds=2))
    result.metadata["bad"] = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_outputs(result, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    del result.metadata["bad"]
    assert [p.name for p in write_outputs(result, tmp_path / "out")] == [
        "regret_rs.csv", "actions_hist_rs.csv", "final_actions_rs.csv",
        "summary.json"]


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
def test_per_seed_slopes_fit_each_replica(game1):
    config = ExperimentConfig(game1, [{"name": "bgam"}, {"name": "gp"}],
                              T=2000, n_seeds=3)
    for s in run_campaign(config).strategies:
        assert s.seed_slopes == [regret_slope(r.cum_regret.mean(axis=1), r.log_t)
                                 for r in s.seeds]
        assert np.all(np.isfinite(s.seed_slopes)), s.name


def test_row_blocks_leave_the_result_files_unchanged(game1, tmp_path, monkeypatch):
    config = ExperimentConfig(game1, [{"name": "bgam"}, {"name": "rs"}], T=60,
                              n_seeds=3)
    result = run_campaign(config)
    monkeypatch.setattr(campaign, "ROWS_PER_WRITE", 10**9)
    whole = campaign.write_outputs(result, tmp_path / "whole")
    monkeypatch.setattr(campaign, "ROWS_PER_WRITE", 7)    # divides no row count
    blocks = campaign.write_outputs(result, tmp_path / "blocks")
    for one, split in zip(whole, blocks):
        if one.suffix == ".csv":
            assert split.read_bytes() == one.read_bytes(), one.name


class TestReplicaStreams:
    """The module's claim: a replica's randomness derives from (master seed,
    strategy, replica index) alone."""

    def cum_regret(self, game1, strategies, n_seeds):
        config = ExperimentConfig(game1, [{"name": n} for n in strategies],
                                  T=60, n_seeds=n_seeds, master_seed=3)
        result = run_campaign(config)
        return {s.name: [r.cum_regret for r in s.seeds] for s in result.strategies}

    def test_independent_of_strategy_order(self, game1):
        forward = self.cum_regret(game1, ["bgam", "rs"], 2)
        backward = self.cum_regret(game1, ["rs", "bgam"], 2)
        for name in ("bgam", "rs"):
            for a, b in zip(forward[name], backward[name]):
                assert np.array_equal(a, b)

    def test_average_regret_is_seed_mean_of_cumulative_over_rounds(self, game1):
        config = ExperimentConfig(game1, [{"name": "bgam"}, {"name": "rs"}],
                                  T=60, n_seeds=3, master_seed=3)
        for s in run_campaign(config).strategies:
            avg = [r.cum_regret / s.log_t[:, None] for r in s.seeds]
            assert np.array_equal(s.mean_avg_regret, np.mean(avg, axis=0))
            assert np.array_equal(s.std_avg_regret, np.std(avg, axis=0, ddof=1))

    def test_independent_of_seed_count(self, game1):
        two = self.cum_regret(game1, ["bgam", "rs"], 2)
        three = self.cum_regret(game1, ["bgam", "rs"], 3)
        for name in ("bgam", "rs"):
            assert np.array_equal(two[name][1], three[name][1])

    @pytest.mark.parametrize("master_seed,strategy,seed", [
        (0, "bgam", 0), (1, "rs", 1), (3, "lbwi", 9), (2**32 - 1, "gp", 2**31),
        (12345, "llr", 7)])
    def test_streams_are_the_children_a_root_would_spawn(self, master_seed,
                                                         strategy, seed):
        root = np.random.SeedSequence(
            (master_seed, zlib.crc32(strategy.encode()), seed))
        spawned = [np.random.default_rng(child) for child in root.spawn(2)]
        built = campaign.replica_streams(master_seed, strategy, seed)
        assert len(built) == 2
        for a, b in zip(built, spawned):
            assert a.bit_generator.state == b.bit_generator.state
            assert a.random(4).tobytes() == b.random(4).tobytes()
