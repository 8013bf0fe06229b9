"""Read-ahead over the replicas' random streams: every round's values are
bit for bit those of one generator call per replica per round, across
several refills, for every kind of draw the engine and the banks make."""

import math

import numpy as np
import pytest

from fogbandit.streams import CHUNK_ELEMENTS, ReadAhead

DRAWS = {
    "random": lambda g, n: g.random(n),
    "integers(0, 2)": lambda g, n: g.integers(0, 2, n),
    "normal(0, 0)": lambda g, n: g.normal(0.0, 0.0, n),
    "normal(0, 0.01)": lambda g, n: g.normal(0.0, 0.01, n),
}


def streams(S):
    return [np.random.default_rng([7, s]) for s in range(S)]


@pytest.mark.parametrize("kind", DRAWS)
@pytest.mark.parametrize("S,shape", [
    (1, (1, 1)), (2, (2, 2)), (3, (3, 3)), (10, (10, 10)),
    (10, (10, 10, 10)),     # an LBWI sweep: more values than one refill fetches
])
def test_takes_match_one_call_per_replica_per_round(kind, S, shape):
    draw = DRAWS[kind]
    # enough rounds to run through at least 3 refills
    rounds = 3 * max(1, (CHUNK_ELEMENTS // S) // math.prod(shape)) + 1
    ahead = ReadAhead(streams(S), draw)
    per_round = streams(S)
    for _ in range(rounds):
        got = ahead.take(shape)
        want = np.array([draw(g, shape) for g in per_round])
        assert got.shape == (S,) + shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_each_refill_is_one_call_per_replica():
    calls = []

    def draw(g, n):
        calls.append(n)
        return g.random(n)

    ahead = ReadAhead(streams(4), draw)
    assert calls == []                  # building one draws nothing
    for _ in range(CHUNK_ELEMENTS // 4 // 9):
        ahead.take((3, 3))
    assert calls == [CHUNK_ELEMENTS // 4] * 4
    ahead.take((3, 3))
    assert calls == [CHUNK_ELEMENTS // 4] * 8
