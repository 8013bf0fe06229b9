"""Golden campaigns: three fixed `fogbandit run` campaigns whose outputs must
stay byte-identical. Each test reruns one campaign and compares it with the
files under tests/golden/<name>/: summary.json as written, minus the
`runtime_seconds` entries, and sha256.json, a SHA-256 hash of every CSV the
campaign writes (traces included).

A change that moves any of these numbers regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and declares each changed number.
"""

import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import pytest

from fogbandit import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
ALL = "bgam,bgd,lbwi,lb,llr,gp,br,rs"
SUBGAME = ("--game", "dataset", "--nodes", "3", "--tasks", "3")
CAMPAIGNS = {
    # the 2 x 2 game with per-round traces
    "game1": ("--game", "game1", "--strategy", ALL, "--T", "300",
              "--seeds", "3", "--trace"),
    # long enough for LBWI's Phase II (Phase I ends at round 120)
    "subgame3": (*SUBGAME, "--strategy", ALL, "--T", "1200", "--seeds", "2"),
    "subgame3-per-round-br": (*SUBGAME, "--strategy", "br,gp,llr", "--T", "200",
                              "--seeds", "2", "--regret-mode", "per_round_br"),
}


def run(name: str, out: Path) -> tuple:
    """Run one campaign into `out`; returns (summary text, CSV hashes)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["run", *CAMPAIGNS[name], "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"campaign {name} exited {code}")
    summary = json.loads((out / "summary.json").read_text())
    for strategy in summary["strategies"].values():
        del strategy["runtime_seconds"]
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.glob("*.csv"))}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n", hashes


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_campaign_matches_golden_files(name, tmp_path):
    summary, hashes = run(name, tmp_path)
    assert summary == (GOLDEN / name / "summary.json").read_text()
    assert hashes == json.loads((GOLDEN / name / "sha256.json").read_text())


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_summary_is_strict_json(name):
    # a slope that is undefined is written as null, not NaN
    json.loads((GOLDEN / name / "summary.json").read_text(), parse_constant=reject)


if __name__ == "__main__":
    for name in CAMPAIGNS:
        with tempfile.TemporaryDirectory() as tmp:
            summary, hashes = run(name, Path(tmp))
        folder = GOLDEN / name
        folder.mkdir(parents=True, exist_ok=True)
        (folder / "summary.json").write_text(summary)
        (folder / "sha256.json").write_text(
            json.dumps(hashes, indent=2, sort_keys=True) + "\n")
