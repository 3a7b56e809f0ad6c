"""Named, reproducible uniform-random streams.

Every stochastic input to a run is drawn from a stream identified by
(master seed, replication index, stream name). The same triple always yields
the same draw sequence, on any platform, which is what makes replications
repeatable and lets swept scenarios share common random numbers.
"""

from __future__ import annotations

import hashlib
from itertools import chain

import numpy as np

_BLOCK = 512


def _name_key(name: str) -> int:
    """Stable 64-bit key for a stream name (not Python's salted hash)."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


class RngStream:
    """Uniform [0, 1) stream backed by PCG64.

    ``draws`` is the stream's one position: an iterator over the generator's
    doubles, filled a block at a time. Hot loops call ``next(stream.draws)``;
    ``uniform()`` is the same step as a method, so the two can be mixed and
    the n-th draw is the same value either way.
    """

    __slots__ = ("name", "draws")

    def __init__(self, master_seed: int, replication: int, name: str):
        if master_seed < 0 or replication < 0:
            raise ValueError("master_seed and replication must be non-negative")
        self.name = name
        seq = np.random.SeedSequence([int(master_seed), int(replication), _name_key(name)])
        self.draws = chain.from_iterable(_blocks(np.random.Generator(np.random.PCG64(seq))))

    def uniform(self) -> float:
        """Next draw in [0, 1)."""
        return next(self.draws)


def _blocks(gen: np.random.Generator):
    # PCG64 doubles do not depend on the block size, so neither does the
    # draw sequence.
    while True:
        yield gen.random(_BLOCK).tolist()
