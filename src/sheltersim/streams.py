"""Named, reproducible uniform-random streams.

Every stochastic input to a run is drawn from a stream identified by
(master seed, replication index, stream name). The same triple always yields
the same draw sequence, on any platform, which is what makes replications
repeatable and lets swept scenarios share common random numbers.
"""

from __future__ import annotations

import hashlib
from itertools import chain, islice

import numpy as np

_BLOCK = 512


def _name_key(name: str) -> int:
    """Stable 64-bit key for a stream name (not Python's salted hash)."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


class RngStream:
    """Uniform [0, 1) stream backed by PCG64.

    The stream has one position, shared by three ways of reading it: hot
    loops call ``next(stream.draws)``, an iterator filled a block at a time;
    ``uniform()`` is the same step as a method; ``take(n)`` hands out the
    next n draws as one array. They can be mixed, and the n-th draw is the
    same value whichever way it is read.
    """

    __slots__ = ("name", "draws", "_gen", "_block")

    def __init__(self, master_seed: int, replication: int, name: str):
        if master_seed < 0 or replication < 0:
            raise ValueError("master_seed and replication must be non-negative")
        self.name = name
        seq = np.random.SeedSequence([int(master_seed), int(replication), _name_key(name)])
        self._gen = np.random.Generator(np.random.PCG64(seq))
        # The iterator over the block ``draws`` is reading, for ``take``.
        self._block = [iter(())]
        self.draws = chain.from_iterable(_blocks(self._gen, self._block))

    def uniform(self) -> float:
        """Next draw in [0, 1)."""
        return next(self.draws)

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws as a float64 array: the rest of the block
        ``draws`` is reading, then fresh draws from the generator."""
        rest = list(islice(self._block[0], n))
        # PCG64 doubles do not depend on how many are drawn at once, so the
        # block ``draws`` fills next starts where this array ends.
        return np.concatenate((rest, self._gen.random(n - len(rest))))


def _blocks(gen: np.random.Generator, current: list):
    # PCG64 doubles do not depend on the block size, so neither does the
    # draw sequence.
    while True:
        current[0] = block = iter(gen.random(_BLOCK).tolist())
        yield block
