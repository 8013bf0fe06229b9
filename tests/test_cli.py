"""Command-line verbs, driven through cli.main."""

import json

import pytest

from fogbandit import cli


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
