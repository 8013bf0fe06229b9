"""Bank construction from strategy configs, and the CLI's check of
per-strategy parameter overrides."""

import json

import numpy as np
import pytest

from fogbandit import cli
from fogbandit.campaign import STRATEGY_NAMES, StrategyConfig, make_bank
from fogbandit.errors import ConfigurationError
from fogbandit.game import allocate, estimate_bounds


@pytest.fixture(scope="module")
def bounds(game1):
    return estimate_bounds(game1)


def build(name, params, spec, bounds):
    return make_bank(name, spec, 1000, np.random.default_rng(0), params, bounds)


@pytest.mark.filterwarnings("ignore:coarse interval count")
class TestMakeBank:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_defaults_build(self, name, game1, bounds):
        bank = build(name, {}, game1, bounds)
        assert bank.act().shape == (game1.K, game1.M)

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


class TestStrategyConfig:
    def test_rejects_unknown_key_when_built(self):
        with pytest.raises(ConfigurationError, match="'bgam'.*'nuu'"):
            StrategyConfig("bgam", {"nuu": 5})

    def test_rejects_unknown_strategy_when_built(self):
        with pytest.raises(ConfigurationError, match="unknown strategy 'ucb'"):
            StrategyConfig("ucb")


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
    def test_allocation_column_is_proportional_share(self, game1, tmp_path):
        # the trace writer derives a from x; it must equal game.allocate
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
