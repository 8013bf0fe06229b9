"""Game documents: the one format a game is read from.

A game document is a JSON object holding the K x M index matrices rho, eps
and kappa as nested lists, and optionally barrier, noise_std and the
declared sizes K and M; GameSpec.to_json writes one. The bundled
cloud_fog_indices.json is the document of a 10-node / 10-task network
derived from the public Cloud-Fog Computing dataset, and GAME1 is a
two-node demonstration game held as a document in this module.
select_subgame builds the GameSpec of any document's selected nodes and
tasks; GameSpec is where the matrix values are checked.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .game import GameSpec, _as_index_matrix

MATRICES = ("rho", "eps", "kappa")

# Each node is strong on one task and keeps a small interior request on the
# other: at the Nash equilibrium node 0 requests about 0.0687 of task 1 and
# node 1 about 0.1046 of task 0.
GAME1 = {
    "rho": [[0.9, 0.5], [0.6, 0.85]],
    "eps": [[0.1, 0.03], [0.05, 0.2]],
    "kappa": [[0.1, 0.8], [0.75, 0.05]],
}


def load_dataset(path=None) -> dict:
    """Read a game document; defaults to the bundled 10 x 10 one. Checks
    that it is an object with all three matrices, and that a declared K or
    M matches the full matrices."""
    if path is None:
        path = Path(resources.files("fogbandit").joinpath("data/cloud_fog_indices.json"))
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read game document {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: a game document must be a JSON object, "
                                 f"got a JSON {type(doc).__name__}")
    missing = [name for name in MATRICES if name not in doc]
    if missing:
        raise ConfigurationError(f"{path}: game document lacks {', '.join(missing)}")
    for axis, key in enumerate("KM"):
        if key in doc and doc[key] != _as_index_matrix(doc["rho"], "rho").shape[axis]:
            raise ConfigurationError(
                f"{path}: declared {key}={doc[key]} does not match matrix shape")
    return doc


def select_subgame(doc: dict, nodes=None, tasks=None, noise_std=None) -> GameSpec:
    """Build the GameSpec of a document's selected nodes (rows) and tasks
    (columns), every one of them where None. `noise_std` overrides the
    document's; each absent setting takes GameSpec's default."""
    mats = [_as_index_matrix(doc[name], name) for name in MATRICES]
    if len({m.shape for m in mats}) == 1:  # else GameSpec names the disagreement
        picks = []
        for name, idx, n in (("node", nodes, mats[0].shape[0]),
                             ("task", tasks, mats[0].shape[1])):
            idx = range(n) if idx is None else list(idx)
            if len(set(idx)) != len(idx):
                raise ConfigurationError(f"duplicate {name} indices: {idx}")
            if any(i < 0 or i >= n for i in idx):
                raise ConfigurationError(f"{name} index out of range 0..{n - 1}: {idx}")
            picks.append(idx)
        mats = [m[np.ix_(*picks)] for m in mats]
    if noise_std is None:
        noise_std = doc.get("noise_std", GameSpec.noise_std)
    return GameSpec(*mats, barrier=doc.get("barrier", GameSpec.barrier),
                    noise_std=noise_std)
