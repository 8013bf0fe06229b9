"""Game documents: load_dataset's checks of a document and of the matrix
blocks it holds, the bundled 10 x 10 document, and select_subgame's
selection, index checks and warning."""

import hashlib
import json
import re
import warnings
from importlib import resources

import numpy as np
import pytest

from fogbandit import GAME1, load_dataset, select_subgame
from fogbandit.errors import ConfigurationError
from fogbandit.nash import solve_nash

# SHA-256 of the bundled rho, eps and kappa as little-endian float64, in that
# order: the matrices the earlier CSV form of the network held.
BUNDLED_SHA256 = "f3855eedf14d81b5e4fb1e75c45a10287948bdb2218cac6b90394dc138a6fdfb"


class TestDocument:
    @pytest.mark.filterwarnings("ignore:utility not convex in others")
    def test_bundled_document_is_the_pinned_ten_by_ten(self):
        # the golden campaigns read only its 3 x 3 corner
        spec = select_subgame(load_dataset())
        assert (spec.K, spec.M) == (10, 10)
        digest = hashlib.sha256(b"".join(
            np.ascontiguousarray(m, dtype="<f8").tobytes()
            for m in (spec.rho, spec.eps, spec.kappa))).hexdigest()
        assert digest == BUNDLED_SHA256

    def test_missing_path_is_named(self, tmp_path):
        # a directory too: the three-file directory form is no game format
        for path in (tmp_path / "absent.json", tmp_path):
            with pytest.raises(ConfigurationError,
                               match=f"^cannot read game document {re.escape(str(path))}: "):
                load_dataset(path)


class TestBlockFile:
    """The three matrix blocks a game document must hold: rho, eps and kappa."""

    def test_missing_block(self, tmp_path):
        # the bundled document with its kappa block taken out
        doc = json.loads(resources.files("fogbandit")
                         .joinpath("data/cloud_fog_indices.json").read_text())
        del doc["kappa"]
        path = tmp_path / "indices.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}: game document lacks kappa$"):
            load_dataset(path)


class TestSelectSubgame:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset()

    @pytest.mark.filterwarnings("ignore:utility not convex in others")
    def test_selects_rows_and_columns(self, dataset):
        spec = select_subgame(dataset, [2, 0], [1], noise_std=0.0)
        assert np.array_equal(spec.rho, np.asarray(dataset["rho"])[[2, 0]][:, [1]])
        assert np.array_equal(spec.kappa, np.asarray(dataset["kappa"])[[2, 0]][:, [1]])
        assert spec.noise_std == 0.0

    @pytest.mark.parametrize("nodes,tasks,name", [
        ([0, 1, 0], [0, 1], "node"), ([0, 1], [2, 2], "task")])
    def test_rejects_duplicate_indices(self, dataset, nodes, tasks, name):
        with pytest.raises(ConfigurationError, match=f"duplicate {name} indices"):
            select_subgame(dataset, nodes, tasks)

    @pytest.mark.parametrize("nodes,tasks,name", [
        ([0, 10], [0], "node"), ([-1], [0], "node"), ([0], [0, 10], "task")])
    def test_rejects_out_of_range_indices(self, dataset, nodes, tasks, name):
        with pytest.raises(ConfigurationError,
                           match=f"{name} index out of range 0..9"):
            select_subgame(dataset, nodes, tasks)

    def test_warns_once_naming_only_the_selected_pairs(self, dataset):
        # row 0 has rho 0.40 and 0.65 in columns 1 and 2; the full game
        # has 40 pairs where 2*rho*(1 + barrier) < 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            select_subgame(dataset, [0], [1, 2])
        assert [str(w.message) for w in caught] == [
            "utility not convex in others' actions where 2*rho*(1 + barrier) < 1, "
            "at (node, task) pairs [(0, 0)]"]

    @pytest.mark.filterwarnings("ignore:utility not convex in others")
    def test_settings_absent_from_the_document_take_the_defaults(self):
        spec = select_subgame(GAME1)
        assert (spec.barrier, spec.noise_std) == (1e-6, 0.01)
        spec = select_subgame({**GAME1, "barrier": 1e-3, "noise_std": 0.5})
        assert (spec.barrier, spec.noise_std) == (1e-3, 0.5)
        assert select_subgame({**GAME1, "noise_std": 0.5}, noise_std=0.0).noise_std == 0.0

    @pytest.mark.filterwarnings("ignore:utility not convex in others")
    def test_game1_equilibrium_is_the_one_described(self):
        # node 0 requests about 0.0687 of task 1 and node 1 about 0.1046
        # of task 0; each requests all of its strong task
        x = solve_nash(select_subgame(GAME1)).x_star
        assert x[0, 1] == pytest.approx(0.0687, abs=5e-5)
        assert x[1, 0] == pytest.approx(0.1046, abs=5e-5)
        assert x[0, 0] > 0.999 and x[1, 1] > 0.999
