"""Bank construction from strategy configs, the config's checks, the CLI's
check of per-strategy parameter overrides, checkpoint rounds, and replica
streams that depend on neither strategy order nor seed count."""

import json

import numpy as np
import pytest

from fogbandit import cli
from fogbandit.campaign import (STRATEGY_NAMES, ExperimentConfig,
                                StrategyConfig, make_bank, run_campaign)
from fogbandit.errors import ConfigurationError
from fogbandit.game import estimate_bounds
from fogbandit.nash import solve_nash


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


class TestStrategyConfig:
    def test_rejects_unknown_key_when_built(self):
        with pytest.raises(ConfigurationError, match="'bgam'.*'nuu'"):
            StrategyConfig("bgam", {"nuu": 5})

    def test_rejects_unknown_strategy_when_built(self):
        with pytest.raises(ConfigurationError, match="unknown strategy 'ucb'"):
            StrategyConfig("ucb")


class TestExperimentConfig:
    @pytest.mark.parametrize("name", ["bgam", "bgd"])
    def test_horizon_one_names_the_strategy(self, game1, name):
        # the perturbation radius of bgam and bgd needs T >= 2
        with pytest.raises(ConfigurationError, match=f"'{name}' needs T >= 2"):
            ExperimentConfig(game1, [{"name": "rs"}, {"name": name}], T=1)
        ExperimentConfig(game1, [{"name": "rs"}, {"name": name}], T=2)


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


class TestCheckpoints:
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_every_checkpoint_is_a_played_round(self, game1, T):
        cps = ExperimentConfig(game1, [], T=T).checkpoints()
        assert cps[-1] == T
        assert all(1 <= c <= T for c in cps)

    @pytest.mark.parametrize("T,expected", [
        (200, [2, 3, 7, 14, 27, 50, 53, 100, 103, 150, 200]),
        (600, [6, 11, 22, 43, 83, 150, 160, 300, 310, 450, 600]),
        (1000, [10, 19, 37, 71, 138, 250, 268, 500, 517, 750, 1000]),
    ])
    def test_long_horizons_keep_their_checkpoints(self, game1, T, expected):
        assert ExperimentConfig(game1, [], T=T).checkpoints() == expected


class TestReplicaStreams:
    """The module's claim: a replica's randomness derives from (master seed,
    strategy, replica index) alone."""

    @pytest.fixture(scope="class")
    def nash(self, game1):
        return solve_nash(game1)

    def cum_regret(self, game1, nash, strategies, n_seeds):
        config = ExperimentConfig(game1, [{"name": n} for n in strategies],
                                  T=60, n_seeds=n_seeds, master_seed=3)
        result = run_campaign(config, nash=nash)
        return {s.name: [r.cum_regret for r in s.seeds] for s in result.strategies}

    def test_independent_of_strategy_order(self, game1, nash):
        forward = self.cum_regret(game1, nash, ["bgam", "rs"], 2)
        backward = self.cum_regret(game1, nash, ["rs", "bgam"], 2)
        for name in ("bgam", "rs"):
            for a, b in zip(forward[name], backward[name]):
                assert np.array_equal(a, b)

    def test_average_regret_is_seed_mean_of_cumulative_over_rounds(self, game1,
                                                                    nash):
        config = ExperimentConfig(game1, [{"name": "bgam"}, {"name": "rs"}],
                                  T=60, n_seeds=3, master_seed=3)
        for s in run_campaign(config, nash=nash).strategies:
            avg = [r.cum_regret / s.log_t[:, None] for r in s.seeds]
            assert np.array_equal(s.mean_avg_regret, np.mean(avg, axis=0))
            assert np.array_equal(s.std_avg_regret, np.std(avg, axis=0, ddof=1))

    def test_independent_of_seed_count(self, game1, nash):
        two = self.cum_regret(game1, nash, ["bgam", "rs"], 2)
        three = self.cum_regret(game1, nash, ["bgam", "rs"], 3)
        for name in ("bgam", "rs"):
            assert np.array_equal(two[name][1], three[name][1])
