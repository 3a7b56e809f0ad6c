"""Named, reproducible uniform-random streams.

Every stochastic input to a run is drawn from a stream identified by
(master seed, replication index, stream name). The same triple always yields
the same draw sequence, on any platform, which is what makes replications
repeatable and lets swept scenarios share common random numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> int:
    """Stable 64-bit key for a stream name (not Python's salted hash)."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


class RngStream:
    """Uniform [0, 1) stream backed by PCG64.

    ``uniform()`` reads the next draw and ``take(n)`` the next n as one
    array, both straight from the generator. PCG64 doubles do not depend on
    how many are drawn at once, so the two can be mixed and the n-th draw is
    the same value whichever way it is read.
    """

    __slots__ = ("name", "_gen")

    def __init__(self, master_seed: int, replication: int, name: str):
        if master_seed < 0 or replication < 0:
            raise ValueError("master_seed and replication must be non-negative")
        self.name = name
        seq = np.random.SeedSequence([int(master_seed), int(replication), _name_key(name)])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """Next draw in [0, 1)."""
        return self._gen.random()

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws as a float64 array."""
        return self._gen.random(n)
