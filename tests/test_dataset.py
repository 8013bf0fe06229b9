"""Index datasets: the block file and directory forms of load_dataset, the
row and column each IngestionError names, and select_subgame's index
checks."""

import numpy as np
import pytest

from fogbandit import load_dataset, select_subgame
from fogbandit.errors import ConfigurationError, IngestionError

RHO = "task_0,task_1\n0.9,0.8\n0.7,0.6\n"
EPS = "task_0,task_1\n0.1,0.2\n0.3,0.4\n"
KAPPA = "task_0,task_1\n0.5,0.5\n0.25,0.75\n"


def block_file(tmp_path, rho=RHO, eps=EPS, kappa=KAPPA):
    path = tmp_path / "indices.csv"
    path.write_text(f"rho\n{rho}eps\n{eps}kappa\n{kappa}")
    return path


class TestBlockFile:
    def test_reads_three_blocks(self, tmp_path):
        ds = load_dataset(block_file(tmp_path))
        assert (ds.K, ds.M) == (2, 2)
        assert np.array_equal(ds.rho, [[0.9, 0.8], [0.7, 0.6]])
        assert np.array_equal(ds.eps, [[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(ds.kappa, [[0.5, 0.5], [0.25, 0.75]])

    def test_bundled_dataset_is_ten_by_ten(self):
        ds = load_dataset()
        assert (ds.K, ds.M) == (10, 10)

    def test_missing_block(self, tmp_path):
        path = tmp_path / "indices.csv"
        path.write_text(f"rho\n{RHO}eps\n{EPS}")
        with pytest.raises(IngestionError, match=r"missing blocks \['kappa'\]"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = block_file(tmp_path, eps="node_0,node_1\n0.1,0.2\n0.3,0.4\n")
        # rho's label, header and rows take rows 1-4; eps's header is row 6
        with pytest.raises(IngestionError,
                           match=r"row 6: expected task_\* header for 'eps'"):
            load_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = block_file(tmp_path, rho="task_0,task_1\n0.9,0.8\n0.7,0.6,0.5\n")
        with pytest.raises(IngestionError, match="row 4: expected 2 columns, got 3"):
            load_dataset(path)

    def test_non_number(self, tmp_path):
        # a row with more than one filled cell is data, not a label
        for blocks, where in (({"kappa": "task_0,task_1\n0.5,0.5\n0.25,high\n"},
                               "row 12, column 2: 'high'"),
                              ({"eps": "task_0,task_1\n0.1,0.2\nlow,0.4\n"},
                               "row 8, column 1: 'low'")):
            path = block_file(tmp_path, **blocks)
            with pytest.raises(IngestionError, match=f"{where} is not a number"):
                load_dataset(path)

    @pytest.mark.parametrize("value", ["0.0", "1.5", "-0.2"])
    def test_value_outside_unit_interval(self, tmp_path, value):
        path = block_file(tmp_path, rho=f"task_0,task_1\n0.9,0.8\n{value},0.6\n")
        with pytest.raises(IngestionError, match=r"row 4, column 1: value "
                                                 r"\S+ outside \(0, 1\]"):
            load_dataset(path)

    def test_unknown_block_label(self, tmp_path):
        path = tmp_path / "indices.csv"
        # a blank line ends a block, and so does a label right after its
        # last row; either way the label is the next row read
        for text, row in ((f"rho\n{RHO}\npower\n{EPS}", 6),
                          (f"rho\n{RHO}power\n{EPS}", 5)):
            path.write_text(text)
            with pytest.raises(IngestionError,
                               match=f"row {row}: unknown block label 'power'"):
                load_dataset(path)

    def test_repeated_block_label(self, tmp_path):
        # a second rho block used to replace the first without a word
        path = block_file(tmp_path)
        path.write_text(path.read_text() + f"rho\n{RHO}")
        with pytest.raises(IngestionError,
                           match=r"indices\.csv: row 13: repeated block label 'rho'"):
            load_dataset(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(IngestionError, match="does not exist"):
            load_dataset(tmp_path / "absent.csv")


class TestDirectory:
    def write(self, folder, names=("rho", "eps", "kappa")):
        blocks = {"rho": RHO, "eps": EPS, "kappa": KAPPA}
        for name in names:
            (folder / f"{name}.csv").write_text(blocks[name])
        return folder

    def test_reads_one_file_per_matrix(self, tmp_path):
        ds = load_dataset(self.write(tmp_path))
        flat = load_dataset(block_file(tmp_path))
        for name in ("rho", "eps", "kappa"):
            assert np.array_equal(getattr(ds, name), getattr(flat, name))
        assert ds.provenance == str(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="missing kappa.csv"):
            load_dataset(self.write(tmp_path, names=("rho", "eps")))

    @pytest.mark.parametrize("tail,row", [
        ("power\n", 4), ("\npower\n", 5), ("\n0.5,0.5\n", 5)])
    def test_rejects_a_row_after_the_matrix(self, tmp_path, tail, row):
        self.write(tmp_path)
        (tmp_path / "rho.csv").write_text(RHO + tail)
        with pytest.raises(IngestionError, match=rf"rho\.csv: row {row}: "):
            load_dataset(tmp_path)

    def test_error_names_the_file_and_row(self, tmp_path):
        self.write(tmp_path)
        (tmp_path / "eps.csv").write_text("task_0,task_1\n0.1,0.2\n0.3,2.0\n")
        with pytest.raises(IngestionError, match=r"eps\.csv: row 3, column 2"):
            load_dataset(tmp_path)


class TestSelectSubgame:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset()

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_selects_rows_and_columns(self, dataset):
        spec = select_subgame(dataset, [2, 0], [1], noise_std=0.0)
        assert np.array_equal(spec.rho, dataset.rho[[2, 0]][:, [1]])
        assert np.array_equal(spec.kappa, dataset.kappa[[2, 0]][:, [1]])
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
