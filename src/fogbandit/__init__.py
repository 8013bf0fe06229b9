"""Simulation library for a distributed task-allocation game among
heterogeneous fog nodes, with no-regret bandit learning strategies and
equilibrium verification."""

from .game import (Bounds, GameSpec, estimate_bounds, gradient_matrix,
                   hessian_others, hessian_own, stack_game, task_utility,
                   utility_matrix, utility_range)
from .dataset import GAME1, load_dataset, select_subgame
from .nash import NashSolution, epsilon_gap, solve_nash
from .engine import RoundRecord, SeedResult, regret_slope, run_round, run_seed
from .campaign import (CampaignResult, ExperimentConfig, StrategyConfig,
                       make_bank, replica_streams, run_campaign, write_outputs)

__version__ = "0.1.0"
