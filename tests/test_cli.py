"""Command-line verbs, driven through cli.main."""

import inspect
import json
import re

import numpy as np
import pytest

from fogbandit import campaign, cli
from fogbandit.campaign import ExperimentConfig
from fogbandit.engine import regret_slope
from fogbandit.game import GameSpec
from fogbandit.nash import DEFAULT_SEED, DEFAULT_STARTS, DEFAULT_TOL, solve_nash


class TestSolveNash:
    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_game1_prints_certified_equilibrium(self, capsys):
        assert cli.main(["solve-nash", "--game", "game1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc["eps_gap"], float)
        assert 0.0 <= doc["eps_gap"] < 1e-6
        assert doc["converged"] is True
        assert len(doc["x_star"]) == 2 and len(doc["x_star"][0]) == 2

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_out_writes_what_it_prints(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["solve-nash", "--out", str(out)]) == 0
        assert (out / "nash.json").read_text() + "\n" == capsys.readouterr().out


class TestDefaults:
    """Every flag left out takes the library's own default."""

    def test_run(self, game1):
        args = cli.make_parser().parse_args(["run"])
        config = ExperimentConfig(game1, [])
        assert ((args.T, args.seeds, args.master_seed, args.regret_mode)
                == (config.T, config.n_seeds, config.master_seed, config.regret_mode))

    def test_solve_nash(self):
        args = cli.make_parser().parse_args(["solve-nash"])
        defaults = inspect.signature(solve_nash).parameters
        assert ((args.tol, args.starts, args.master_seed)
                == tuple(defaults[p].default for p in ("tol", "n_starts", "seed")))
        assert (args.tol, args.starts, args.master_seed) == (DEFAULT_TOL, DEFAULT_STARTS,
                                                             DEFAULT_SEED)

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    @pytest.mark.parametrize("game", ["game1", "dataset"])
    def test_noise_and_barrier(self, game):
        spec = cli.build_spec(cli.make_parser().parse_args(["run", "--game", game]))
        assert (spec.noise_std, spec.barrier) == (GameSpec.noise_std, GameSpec.barrier)


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
@pytest.mark.filterwarnings("ignore:coarse interval count")
class TestRun:
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_short_horizons_run(self, T, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--strategy", "lbwi,llr,gp,br,rs", "--T", str(T),
                         "--seeds", "2", "--out", str(out)])
        assert code == 0, capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T"] == T
        assert str(T) in summary["strategies"]["rs"]["eps_gap_trajectory"]

    def test_horizon_one_fails_before_the_equilibrium_solve(self, tmp_path,
                                                            capsys, monkeypatch):
        def solve_nash(*args, **kwargs):
            raise AssertionError("solve_nash ran")

        monkeypatch.setattr(campaign, "solve_nash", solve_nash)
        code = cli.main(["run", "--T", "1", "--seeds", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        error = json.loads(capsys.readouterr().out)
        assert error["error"] == "ConfigurationError"
        assert "'bgam'" in error["message"]

    @pytest.mark.parametrize("params,named", [
        ({"gp": {"eta": -1}}, ["strategy 'gp': eta must be > 0, got -1"]),
        ({"bgam": {"nuu": 5}}, ["'bgam'", "'nuu'"]),
    ])
    def test_any_bad_setting_fails_before_the_solve_and_the_first_round(
            self, params, named, tmp_path, capsys, monkeypatch):
        # gp comes second: its bank is checked before bgam plays a round
        def fail(*args, **kwargs):
            raise AssertionError("the campaign went past its checks")

        monkeypatch.setattr(campaign, "solve_nash", fail)
        monkeypatch.setattr(campaign, "run_seed", fail)
        error = error_of(["run", "--game", "dataset", "--strategy", "bgam,gp",
                          "--params", json.dumps(params), "--T", "100",
                          "--seeds", "1", "--out", str(tmp_path / "out")], capsys)
        assert error["error"] == "ConfigurationError"
        for part in named:
            assert part in error["message"]


def went_past_the_checks(*args, **kwargs):
    raise AssertionError("the campaign went past its checks")


def error_of(argv, capsys) -> dict:
    """The error JSON a verb prints when it exits 1."""
    assert cli.main(argv) == 1
    error = json.loads(capsys.readouterr().out)
    assert set(error) == {"error", "message"}
    return error


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
class TestBadInput:
    @pytest.mark.parametrize("argv,message", [
        (["run", "--strategy", "ucb", "--T", "10"], "unknown strategy 'ucb'"),
        (["solve-nash", "--tol", "0"], "tol must be positive"),
        (["validate-spec", "--game", "dataset", "--nodes", "0"], "rho is empty"),
        (["bench-slope", "--input", "regret.csv"], "node column must repeat"),
        (["validate-spec", "--spec-json", "spec.json"],
         "rho must be a matrix of numbers: could not convert string to float: 'a'"),
        (["run", "--strategy", "gp", "--params", '{"gp": {"eta": "x"}}'],
         "strategy 'gp': eta must be a number, got 'x'"),
        (["run", "--strategy", "lbwi", "--params", '{"lbwi": {"gamma": null}}'],
         "strategy 'lbwi': gamma must be a number, got None"),
        (["run", "--strategy", "gp", "--params", '{"gp": {"eta": true}}'],
         "strategy 'gp': eta must be a number, got True"),
        (["run", "--strategy", "gp", "--params", '{"gp": 5}'],
         "strategy 'gp': parameters must be a JSON object, got 5"),
        (["run", "--strategy", "gp", "--params", '[5]'],
         "--params must be a JSON object, got [5]"),
        (["run", "--spec-json", "game.json", "--noise-std", "0.5"],
         "--noise-std cannot be combined with --spec-json"),
        (["run", "--noise-std", "nan"], "noise_std must be finite and >= 0, got nan"),
        (["run", "--noise-std", "inf"], "noise_std must be finite and >= 0, got inf"),
        (["validate-spec", "--noise-std", "nan"], "noise_std must be finite"),
        (["validate-spec", "--spec-json", "nan_barrier.json"],
         "barrier must be finite and > 0, got nan"),
        (["run", "--strategy", "gp", "--params", '{"gp": {"eta": Infinity}}'],
         "strategy 'gp': eta must be finite, got inf"),
        (["run", "--strategy", "bgam", "--params", '{"bgam": {"nu": Infinity}}'],
         "strategy 'bgam': nu must be finite, got inf"),
        (["solve-nash", "--tol", "nan"], "tol must be positive and finite, got nan"),
        (["solve-nash", "--tol", "inf"], "tol must be positive and finite, got inf"),
        (["solve-nash", "--starts", "0"], "n_starts must be an integer >= 1, got 0"),
        (["solve-nash", "--starts", "-2"], "n_starts must be an integer >= 1, got -2"),
        (["solve-nash", "--master-seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["run", "--master-seed", "-1"], "master_seed must be an integer >= 0, got -1"),
        (["bench-slope", "--input", "regret.csv", "--window", "2"],
         "--window must lie in [0, 1), got 2.0"),
        (["bench-slope", "--input", "regret.csv", "--window", "nan"],
         "--window must lie in [0, 1), got nan"),
        (["bench-slope", "--input", "regret.csv", "--window", "-0.5"],
         "--window must lie in [0, 1), got -0.5"),
        (["validate-spec", "--spec-json", "null_barrier.json"],
         "barrier must be a number, got None"),
        (["run", "--spec-json", "text_noise.json"],
         "noise_std must be a number, got 'abc'"),
        (["run", "--noise-std", "1e308"], "noise_std must be <= 1e100, got 1e+308"),
    ])
    def test_each_verb_prints_the_error_and_exits_one(self, argv, message,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(campaign, "solve_nash", went_past_the_checks)
        monkeypatch.chdir(tmp_path)
        # node-major rows: not the round-major layout `run` writes
        (tmp_path / "regret.csv").write_text(
            "t,node,cumulative_regret,average_regret\n"
            "1,0,1,1\n2,0,2,1\n1,1,1,1\n2,1,2,1\n")
        (tmp_path / "spec.json").write_text(json.dumps(
            {"rho": [["a"]], "eps": [[0.1]], "kappa": [[0.1]]}))
        (tmp_path / "game.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]]}))
        (tmp_path / "nan_barrier.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]], "barrier": float("nan")}))
        (tmp_path / "null_barrier.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]], "barrier": None}))
        (tmp_path / "text_noise.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]], "noise_std": "abc"}))
        error = error_of(argv, capsys)
        assert error["error"] == "ConfigurationError"
        assert message in error["message"]


class TestBuildSpec:
    @pytest.mark.parametrize("flag,value", [
        ("--nodes", "0"), ("--tasks", "0"), ("--nodes", "-1")])
    def test_empty_game_is_rejected(self, flag, value, capsys):
        # 0 must not select the whole dataset, nor -1 a game with K = 0
        error = error_of(["validate-spec", "--game", "dataset", flag, value], capsys)
        assert error["error"] == "ConfigurationError"
        assert "is empty" in error["message"]

    def test_dataset_warns_of_low_efficiency_pairs(self, capsys):
        assert cli.main(["validate-spec", "--game", "dataset"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["valid"], doc["K"], doc["M"]) == (True, 10, 10)
        [warning] = doc["warnings"]
        assert warning.startswith("rho <= 0.5 at (node, task) pairs")
        assert len(re.findall(r"\(\d+, \d+\)", warning)) == 44

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_spec_json_round_trip(self, game1, tmp_path, capsys):
        path = tmp_path / "game1.json"
        path.write_text(game1.to_json())
        assert cli.main(["solve-nash", "--spec-json", str(path)]) == 0
        from_json = capsys.readouterr().out
        assert cli.main(["solve-nash", "--game", "game1"]) == 0
        assert from_json == capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["run", "validate-spec", "solve-nash"])
    @pytest.mark.parametrize("flag,value", [
        ("--noise-std", "0.5"), ("--nodes", "1"), ("--tasks", "1"),
        ("--dataset", "other.txt"), ("--noise-std", "0.01")])
    def test_spec_json_takes_no_other_game_flag(self, verb, flag, value, game1,
                                                tmp_path, capsys, monkeypatch):
        # the spec document sets the whole game: these flags used to be
        # dropped silently, and an explicit default is rejected too
        monkeypatch.setattr(cli, "solve_nash", went_past_the_checks)
        monkeypatch.setattr(campaign, "solve_nash", went_past_the_checks)
        path = tmp_path / "game1.json"
        path.write_text(game1.to_json())
        error = error_of([verb, "--spec-json", str(path), flag, value,
                          *(["--out", str(tmp_path / "out")] if verb == "run" else [])],
                         capsys)
        assert error == {"error": "ConfigurationError",
                         "message": f"{flag} cannot be combined with --spec-json, "
                                    "which sets the whole game"}

    @pytest.mark.parametrize("verb", ["run", "validate-spec", "solve-nash"])
    @pytest.mark.parametrize("flag,value", [
        ("--nodes", "1"), ("--tasks", "1"), ("--dataset", "nope.txt")])
    def test_game1_takes_no_dataset_flag(self, verb, flag, value, tmp_path,
                                         capsys, monkeypatch):
        # these flags select from the dataset and were dropped silently
        monkeypatch.setattr(cli, "solve_nash", went_past_the_checks)
        monkeypatch.setattr(campaign, "solve_nash", went_past_the_checks)
        error = error_of([verb, "--game", "game1", flag, value,
                          *(["--out", str(tmp_path / "out")] if verb == "run" else [])],
                         capsys)
        assert error == {"error": "ConfigurationError",
                         "message": f"{flag} cannot be combined with --game game1, "
                                    "which uses no dataset"}

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_noise_std_defaults_to_one_hundredth(self, capsys):
        args = cli.make_parser().parse_args(["validate-spec"])
        assert args.noise_std is None
        assert cli.build_spec(args).noise_std == 0.01
        args = cli.make_parser().parse_args(["validate-spec", "--game", "dataset",
                                             "--nodes", "2"])
        assert cli.build_spec(args).noise_std == 0.01
        args = cli.make_parser().parse_args(["validate-spec", "--noise-std", "0.5"])
        assert cli.build_spec(args).noise_std == 0.5

    def test_spec_json_names_a_missing_field(self, game1, tmp_path, capsys):
        doc = json.loads(game1.to_json())
        del doc["rho"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        error = error_of(["validate-spec", "--spec-json", str(path)], capsys)
        assert error == {"error": "ConfigurationError",
                         "message": "game spec lacks rho"}


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
class TestResultFiles:
    def test_summary_and_solve_nash_print_the_same_equilibrium(self, tmp_path,
                                                               capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--strategy", "rs", "--T", "5", "--seeds", "1",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["solve-nash", "--game", "game1"]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert json.loads((out / "summary.json").read_text())["nash"] == solved

    def test_bench_slope_reads_the_regret_csv_of_run(self, tmp_path, capsys):
        # on the 10 x 10 dataset a node mean summed in order would round
        # differently from the campaign's at one of the 1000 logged rounds
        for game, K in (("game1", 2), ("dataset", 10)):
            out = tmp_path / game
            assert cli.main(["run", "--game", game, "--strategy", "bgam",
                             "--T", "2000", "--seeds", "3", "--out", str(out)]) == 0
            capsys.readouterr()
            assert cli.main(["bench-slope", "--input",
                             str(out / "regret_bgam.csv")]) == 0
            slopes = json.loads(capsys.readouterr().out)["slopes"]
            summary = json.loads((out / "summary.json").read_text())
            assert slopes["node_mean"] == summary["strategies"]["bgam"]["regret_slope"]
            assert sorted(slopes) == sorted([str(k) for k in range(K)] + ["node_mean"])

    def test_bench_slope_writes_null_where_a_slope_is_undefined(self, tmp_path,
                                                                capsys):
        # gp's regret on this 3 x 3 game is not positive on the window for
        # nodes 0 and 2: bench-slope exited 1 where run wrote null
        out = tmp_path / "out"
        assert cli.main(["run", "--game", "dataset", "--nodes", "3", "--tasks",
                         "3", "--strategy", "gp", "--T", "1200", "--seeds", "2",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        csv = out / "regret_gp.csv"
        assert cli.main(["bench-slope", "--input", str(csv)]) == 0
        slopes = json.loads(capsys.readouterr().out)["slopes"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["gp"]["regret_slope"] is None
        assert [slopes[k] for k in ("0", "2", "node_mean")] == [None] * 3
        rows = np.genfromtxt(csv, delimiter=",", names=True)
        node1 = rows[rows["node"] == 1]
        assert slopes["1"] == regret_slope(node1["cumulative_regret"], t=node1["t"])
