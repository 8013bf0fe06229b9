import warnings

import numpy as np
import pytest

from fogbandit import builtin_game1, load_dataset, select_subgame
from fogbandit.engine import run_round


@pytest.fixture(scope="session")
def game1():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builtin_game1()


@pytest.fixture(scope="session")
def game2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_subgame(load_dataset(), range(10), range(10))


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

    return lambda x, spec: run_round(spec, Fixed(x), 1,
                                     [np.random.default_rng(0)]).a[0]
