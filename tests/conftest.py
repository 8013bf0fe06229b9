import warnings

import numpy as np
import pytest

from fogbandit import GAME1, load_dataset, select_subgame
from fogbandit.engine import run_round
from fogbandit.game import stack_game


@pytest.fixture(scope="session")
def game1():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_subgame(GAME1)


@pytest.fixture(scope="session")
def game2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_subgame(load_dataset())


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def allocate():
    """The engine's proportional allocation of one K x M profile: the `a`
    of a run_round whose single replica plays that profile."""
    class Fixed:
        feedback_kind = "none"

        def __init__(self, x):
            self.x = np.asarray(x, dtype=float)[None]

        def act(self):
            return self.x

        def observe(self):
            pass

    return lambda x, spec: run_round(stack_game(spec, 1), Fixed(x), 1,
                                     np.zeros((1, spec.K, spec.M))).a[0]
