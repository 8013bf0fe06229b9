"""Read-ahead over the replicas' random streams.

numpy's generators fill an array in C order from one bit stream, so one
call for n values returns the values that calls for n1, n2, ... values
(n1 + n2 + ... = n) would return, in the same order. A ReadAhead fetches a
chunk per replica with one generator call and hands each round its next
values as one (S, ...) array: the per-round draws, at one generator call
per replica per chunk. It may read past the last round; every stream it is
given has no other reader.
"""

from __future__ import annotations

import math

import numpy as np

# Values fetched by one refill, summed over the replicas.
CHUNK_ELEMENTS = 2048


class ReadAhead:
    """The values `draw(g, n)` returns, n at a time from each generator g
    in `rngs`, served per round in replica order."""

    def __init__(self, rngs, draw):
        self.rngs, self.draw = rngs, draw
        # (S, values fetched); bool, the dtype every draw's dtype absorbs
        self.buf = np.empty((len(rngs), 0), dtype=bool)
        self.pos = 0                    # values served from the buffer

    def take(self, shape: tuple) -> np.ndarray:
        """Each replica's next prod(shape) values as an (S,) + shape view."""
        n = math.prod(shape)
        if self.pos + n > self.buf.shape[1]:
            size = max(CHUNK_ELEMENTS // len(self.rngs), n)
            fresh = np.array([self.draw(g, size) for g in self.rngs])
            self.buf = np.concatenate([self.buf[:, self.pos:], fresh], axis=1)
            self.pos = 0
        self.pos += n
        return self.buf[:, self.pos - n:self.pos].reshape((len(self.rngs),) + shape)
