"""The benchmark's workloads: `fogbandit run` argument lists at a fixed size.

Each workload is a closed loop: one campaign at a time, each in a fresh
single-threaded process, with the master seed taken from the benchmark's
--seed. Why each one exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

STRATEGIES = ("bgam", "bgd", "lbwi", "lb", "llr", "gp", "br", "rs")
BANDIT_AND_GP = "bgam,bgd,lbwi,lb,llr,gp,rs"


@dataclass(frozen=True)
class Workload:
    run_args: tuple      # `fogbandit run` flags, without --T/--master-seed/--out
    T: int               # rounds per replica at the benchmark's size

    def arg(self, flag: str) -> str:
        return self.run_args[self.run_args.index(flag) + 1]

    @property
    def strategies(self) -> list:
        return self.arg("--strategy").split(",")

    @property
    def n_seeds(self) -> int:
        return int(self.arg("--seeds"))

    @property
    def replicas(self) -> int:
        return len(self.strategies) * self.n_seeds


WORKLOADS = {
    "dataset10-bandit": Workload(
        run_args=("--game", "dataset", "--strategy", BANDIT_AND_GP,
                  "--seeds", "2", "--regret-mode", "ne_reference"),
        T=1000),
    "dataset10-br-oracle": Workload(
        run_args=("--game", "dataset", "--strategy", "br,gp",
                  "--seeds", "1", "--regret-mode", "per_round_br"),
        T=600),
    "game1-replicas-trace": Workload(
        run_args=("--game", "game1", "--strategy", BANDIT_AND_GP,
                  "--seeds", "10", "--regret-mode", "ne_reference", "--trace"),
        T=200),
}
