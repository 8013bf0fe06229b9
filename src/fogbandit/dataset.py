"""Index datasets and built-in game parameterizations.

The bundled cloud_fog_indices.csv carries per-(node, task) efficiency,
power and cost indices for a 10-node / 10-task network derived from the
public Cloud-Fog Computing dataset. The file holds three labelled CSV
blocks (rho, eps, kappa), each with a task_0..task_{M-1} header row and
one row per node; the three matrices can also live in separate files
named rho.csv / eps.csv / kappa.csv inside a directory.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError
from .game import GameSpec

_BLOCKS = ("rho", "eps", "kappa")


@dataclass
class IndexDataset:
    rho: np.ndarray
    eps: np.ndarray
    kappa: np.ndarray
    provenance: str = ""

    @property
    def K(self) -> int:
        return self.rho.shape[0]

    @property
    def M(self) -> int:
        return self.rho.shape[1]


def bundled_dataset_path() -> Path:
    return Path(resources.files("fogbandit").joinpath("data/cloud_fog_indices.csv"))


def _is_label(row) -> bool:
    """A block label: one cell that is not a number, any further cells empty."""
    try:
        float(row[0])
    except ValueError:
        return not any(cell.strip() for cell in row[1:])
    return False


def _parse_block(rows, start, name, path):
    """Parse one header + matrix block, which ends at a blank row or a label;
    returns (matrix, next_row_index)."""
    if start >= len(rows):
        raise IngestionError(f"{path}: missing '{name}' block")
    header = rows[start]
    if not header or not header[0].startswith("task_"):
        raise IngestionError(f"{path}: row {start + 1}: expected task_* header for '{name}'")
    m = len(header)
    data = []
    i = start + 1
    while i < len(rows) and rows[i] and not _is_label(rows[i]):
        row = rows[i]
        if len(row) != m:
            raise IngestionError(
                f"{path}: row {i + 1}: expected {m} columns, got {len(row)}"
            )
        values = []
        for j, v in enumerate(row):
            try:
                values.append(float(v))
            except ValueError:
                raise IngestionError(
                    f"{path}: row {i + 1}, column {j + 1}: {v!r} is not a number"
                ) from None
            if not 0.0 < values[-1] <= 1.0:
                raise IngestionError(f"{path}: row {i + 1}, column {j + 1}: "
                                     f"value {values[-1]} outside (0, 1]")
        data.append(values)
        i += 1
    if not data:
        raise IngestionError(f"{path}: block '{name}' has no data rows")
    return np.array(data), i


def _read_rows(path: Path):
    with open(path, newline="") as f:
        return [row for row in csv.reader(f)]


def load_dataset(path=None) -> IndexDataset:
    """Load the three index matrices from a block file or a directory of
    rho.csv / eps.csv / kappa.csv; defaults to the bundled dataset."""
    path = bundled_dataset_path() if path is None else Path(path)
    if not path.exists():
        raise IngestionError(f"dataset path does not exist: {path}")

    blocks = {}
    if path.is_dir():
        for name in _BLOCKS:
            sub = path / f"{name}.csv"
            if not sub.exists():
                raise IngestionError(f"{path}: missing {name}.csv")
            rows = _read_rows(sub)
            blocks[name], end = _parse_block(rows, 0, name, sub)
            extra = [j for j in range(end, len(rows)) if rows[j]]
            if extra:
                raise IngestionError(f"{sub}: row {extra[0] + 1}: unexpected row "
                                     f"after the '{name}' matrix")
    else:
        rows = _read_rows(path)
        i = 0
        while i < len(rows):
            if not rows[i]:
                i += 1
                continue
            label = rows[i][0].strip()
            if label not in _BLOCKS:
                raise IngestionError(f"{path}: row {i + 1}: unknown block label {label!r}")
            if label in blocks:
                raise IngestionError(f"{path}: row {i + 1}: repeated block label {label!r}")
            blocks[label], i = _parse_block(rows, i + 1, label, path)

    missing = [b for b in _BLOCKS if b not in blocks]
    if missing:
        raise IngestionError(f"{path}: missing blocks {missing}")
    rho, eps, kappa = blocks["rho"], blocks["eps"], blocks["kappa"]
    if not (rho.shape == eps.shape == kappa.shape):
        raise IngestionError(
            f"{path}: block shapes disagree: rho {rho.shape}, eps {eps.shape}, "
            f"kappa {kappa.shape}"
        )
    return IndexDataset(rho=rho, eps=eps, kappa=kappa, provenance=str(path))


def select_subgame(dataset: IndexDataset, nodes, tasks,
                   noise_std: float = 0.01) -> GameSpec:
    """Build a GameSpec from row/column selections of a dataset."""
    nodes = list(nodes)
    tasks = list(tasks)
    for name, idx, n in (("node", nodes, dataset.K), ("task", tasks, dataset.M)):
        if len(set(idx)) != len(idx):
            raise ConfigurationError(f"duplicate {name} indices: {idx}")
        if any(i < 0 or i >= n for i in idx):
            raise ConfigurationError(f"{name} index out of range 0..{n - 1}: {idx}")
    sel = np.ix_(nodes, tasks)
    return GameSpec(rho=dataset.rho[sel], eps=dataset.eps[sel],
                    kappa=dataset.kappa[sel], noise_std=noise_std)


def builtin_game1(noise_std: float = 0.01) -> GameSpec:
    """Two-node, two-task demonstration game: each node is strong on one
    task and keeps a small interior request on the other (at the Nash
    equilibrium node 0 requests about 0.0687 of task 1 and node 1 about
    0.1046 of task 0)."""
    return GameSpec(
        rho=[[0.9, 0.5], [0.6, 0.85]],
        eps=[[0.1, 0.03], [0.05, 0.2]],
        kappa=[[0.1, 0.8], [0.75, 0.05]],
        noise_std=noise_std,
    )
