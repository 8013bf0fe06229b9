"""Command-line verbs, driven through cli.main."""

import json
import re

import numpy as np
import pytest

from fogbandit import GAME1, campaign, cli
from fogbandit.campaign import ExperimentConfig
from fogbandit.engine import regret_slope
from fogbandit.game import GameSpec


class TestSolveNash:
    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_game1_prints_certified_equilibrium(self, capsys):
        assert cli.main(["solve-nash", "--game", "game1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc["eps_gap"], float)
        assert 0.0 <= doc["eps_gap"] < 1e-6
        assert doc["converged"] is True
        assert len(doc["x_star"]) == 2 and len(doc["x_star"][0]) == 2
        assert len(doc["aggregate"]) == 2

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_out_writes_what_it_prints(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["solve-nash", "--out", str(out)]) == 0
        assert (out / "nash.json").read_text() + "\n" == capsys.readouterr().out


class TestDefaults:
    """Every flag left out takes the library's own default."""

    def test_run(self, game1):
        args = cli.make_parser().parse_args(["run"])
        config = ExperimentConfig(game1, [{"name": "bgam"}])
        assert ((args.T, args.seeds, args.master_seed, args.regret_mode)
                == (config.T, config.n_seeds, config.master_seed, config.regret_mode))

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

    def test_best_response_strategies_under_per_round_br(self, tmp_path, capsys):
        # br's feedback, the per-round-BR reference and every checkpoint gap
        # go through the closed-form best response
        out = tmp_path / "out"
        code = cli.main(["run", "--game", "game1", "--strategy", "br,gp",
                         "--regret-mode", "per_round_br", "--T", "60",
                         "--seeds", "2", "--out", str(out)])
        assert code == 0, capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())["strategies"]
        assert sorted(summary) == ["br", "gp"]
        for s in summary.values():
            gaps = list(s["eps_gap_trajectory"].values())
            assert gaps and all(np.isfinite(g) and g >= 0.0 for g in gaps)

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


def case(n, argv, message):
    """A bad-input case with the id it had when ids were positional, so
    that removing a case renames no other."""
    return pytest.param(argv, message, id=f"argv{n}-{message}")


@pytest.mark.filterwarnings("ignore:rho <= 0.5")
class TestBadInput:
    @pytest.mark.parametrize("argv,message", [
        case(0, ["run", "--strategy", "ucb", "--T", "10"], "unknown strategy 'ucb'"),
        case(2, ["validate-spec", "--game", "dataset", "--nodes", "0"],
             "--nodes must be an integer >= 1, got 0"),
        case(3, ["run", "--strategy", "gp,rs,gp"],
             "strategy 'gp' is listed more than once"),
        case(4, ["validate-spec", "--game", "spec.json"],
             "rho must be a matrix of numbers: could not convert string to float: 'a'"),
        case(5, ["run", "--strategy", "gp", "--params", '{"gp": {"eta": "x"}}'],
             "strategy 'gp': eta must be a number, got 'x'"),
        case(6, ["run", "--strategy", "lbwi", "--params", '{"lbwi": {"gamma": null}}'],
             "strategy 'lbwi': gamma must be a number, got None"),
        case(7, ["run", "--strategy", "gp", "--params", '{"gp": {"eta": true}}'],
             "strategy 'gp': eta must be a number, got True"),
        case(8, ["run", "--strategy", "gp", "--params", '{"gp": 5}'],
             "strategy 'gp': parameters must be a JSON object, got 5"),
        case(9, ["run", "--strategy", "gp", "--params", "[5]"],
             "--params must be a JSON object, got [5]"),
        case(11, ["run", "--noise-std", "nan"],
             "noise_std must be finite and >= 0, got nan"),
        case(12, ["run", "--noise-std", "inf"],
             "noise_std must be finite and >= 0, got inf"),
        case(13, ["validate-spec", "--noise-std", "nan"], "noise_std must be finite"),
        case(14, ["validate-spec", "--game", "nan_barrier.json"],
             "barrier must be finite and > 0, got nan"),
        case(15, ["run", "--strategy", "gp", "--params", '{"gp": {"eta": Infinity}}'],
             "strategy 'gp': eta must be finite, got inf"),
        case(16, ["run", "--strategy", "bgam", "--params", '{"bgam": {"nu": Infinity}}'],
             "strategy 'bgam': nu must be finite, got inf"),
        case(22, ["run", "--master-seed", "-1"],
             "master_seed must be an integer >= 0, got -1"),
        case(23, ["run", "--T", "0"], "T must be an integer >= 1, got 0"),
        case(24, ["run", "--seeds", "0"], "n_seeds must be an integer >= 1, got 0"),
        case(25, ["run", "--params", '{"gp": {"eta": 0.1}}'],
             "--params names gp, which --strategy does not list"),
        case(26, ["validate-spec", "--game", "null_barrier.json"],
             "barrier must be a number, got None"),
        case(27, ["run", "--game", "text_noise.json"],
             "noise_std must be a number, got 'abc'"),
        case(28, ["run", "--noise-std", "1e308"],
             "noise_std must be <= 1e100, got 1e+308"),
        case(29, ["run", "--game", "absent.json"],
             "cannot read game document absent.json"),
        case(30, ["solve-nash", "--game", "game.csv"], "game.csv is not a JSON document"),
    ])
    def test_each_verb_prints_the_error_and_exits_one(self, argv, message,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(campaign, "solve_nash", went_past_the_checks)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps(
            {"rho": [["a"]], "eps": [[0.1]], "kappa": [[0.1]]}))
        (tmp_path / "nan_barrier.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]], "barrier": float("nan")}))
        (tmp_path / "null_barrier.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]], "barrier": None}))
        (tmp_path / "text_noise.json").write_text(json.dumps(
            {"rho": [[0.9]], "eps": [[0.1]], "kappa": [[0.1]], "noise_std": "abc"}))
        (tmp_path / "game.csv").write_text("rho\ntask_0\n0.9\n")
        error = error_of(argv, capsys)
        assert error["error"] == "ConfigurationError"
        assert message in error["message"]


class TestBuildSpec:
    @pytest.mark.parametrize("flag,value", [
        ("--nodes", "0"), ("--tasks", "0"), ("--nodes", "-1"), ("--nodes", "-2"),
        ("--tasks", "-2")])
    def test_empty_game_is_rejected(self, flag, value, capsys):
        # 0 must not select the whole dataset, nor -1 a game with K = 0;
        # the error names the flag, not the empty matrix it would select
        error = error_of(["validate-spec", "--game", "dataset", flag, value], capsys)
        assert error["error"] == "ConfigurationError"
        assert error["message"] == f"{flag} must be an integer >= 1, got {value}"

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
        assert cli.main(["solve-nash", "--game", str(path)]) == 0
        from_json = capsys.readouterr().out
        assert cli.main(["solve-nash", "--game", "game1"]) == 0
        assert from_json == capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_nodes_and_tasks_select_from_any_game(self, game2, tmp_path):
        path = tmp_path / "game2.json"
        path.write_text(game2.to_json())
        for game, full in (("game1", GAME1), (str(path), json.loads(path.read_text()))):
            for flags, sel in ((["--nodes", "1"], np.s_[:1]),
                               (["--tasks", "1"], np.s_[:, :1]),
                               (["--nodes", "2", "--tasks", "1"], np.s_[:2, :1])):
                args = cli.make_parser().parse_args(["validate-spec", "--game", game,
                                                     *flags])
                spec = cli.build_spec(args)
                for name in ("rho", "eps", "kappa"):
                    assert np.array_equal(getattr(spec, name),
                                          np.asarray(full[name])[sel])

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_noise_std_overrides_a_document(self, game1, tmp_path):
        path = tmp_path / "game1.json"
        path.write_text(json.dumps({**json.loads(game1.to_json()), "noise_std": 0.2}))
        parse = cli.make_parser().parse_args
        assert cli.build_spec(parse(["run", "--game", str(path)])).noise_std == 0.2
        spec = cli.build_spec(parse(["run", "--game", str(path), "--noise-std", "0.5"]))
        assert spec.noise_std == 0.5

    @pytest.mark.parametrize("flags", [[], ["--nodes", "1"], ["--tasks", "1"]])
    def test_matrices_that_disagree_in_shape(self, flags, tmp_path, capsys):
        # a selection must not cut the matrices down to one shape first
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"rho": [[0.9, 0.8], [0.7, 0.6]],
                                    "eps": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                                    "kappa": [[0.5, 0.5], [0.25, 0.75]]}))
        error = error_of(["validate-spec", "--game", str(path), *flags], capsys)
        assert error == {"error": "ConfigurationError",
                         "message": "index matrices disagree in shape: rho (2, 2), "
                                    "eps (3, 2), kappa (2, 2)"}

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
        error = error_of(["validate-spec", "--game", str(path)], capsys)
        assert error == {"error": "ConfigurationError",
                         "message": f"{path}: game document lacks rho"}


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

    def test_per_node_slopes_fit_the_regret_csv_of_run(self, tmp_path):
        # on the 10 x 10 dataset a node mean summed in order would round
        # differently from the campaign's at one of the 1000 logged rounds
        for game, K in (("game1", 2), ("dataset", 10)):
            out = tmp_path / game
            assert cli.main(["run", "--game", game, "--strategy", "bgam",
                             "--T", "2000", "--seeds", "3", "--out", str(out)]) == 0
            rows = np.genfromtxt(out / "regret_bgam.csv", delimiter=",", names=True)
            summary = json.loads((out / "summary.json").read_text())["strategies"]
            nodes = [rows[rows["node"] == k] for k in range(K)]
            assert summary["bgam"]["regret_slope_per_node"] == [
                regret_slope(node["cumulative_regret"], node["t"]) for node in nodes]
            cum = rows["cumulative_regret"].reshape(-1, K)
            assert summary["bgam"]["regret_slope"] == regret_slope(cum.mean(axis=1),
                                                                   rows["t"][::K])

    def test_per_node_slopes_are_null_where_undefined(self, tmp_path):
        # gp's regret on this 3 x 3 game is not positive on the window for
        # nodes 0 and 2, nor is its node mean
        out = tmp_path / "out"
        assert cli.main(["run", "--game", "dataset", "--nodes", "3", "--tasks",
                         "3", "--strategy", "gp", "--T", "1200", "--seeds", "2",
                         "--out", str(out)]) == 0
        gp = json.loads((out / "summary.json").read_text())["strategies"]["gp"]
        assert gp["regret_slope"] is None
        rows = np.genfromtxt(out / "regret_gp.csv", delimiter=",", names=True)
        node1 = rows[rows["node"] == 1]
        assert gp["regret_slope_per_node"] == [
            None, regret_slope(node1["cumulative_regret"], node1["t"]), None]
