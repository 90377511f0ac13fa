"""Deterministic counter-based random generator.

The value stream for a 64-bit seed ``s`` is

    x_i = mix64((s + (i + 1) * GAMMA) mod 2**64),    i = 0, 1, 2, ...

where ``mix64`` is the SplitMix64 output function and GAMMA is the usual
golden-ratio increment.  Field residues are produced by rejection sampling,
so draws are exactly uniform on [0, p).  The scheme is frozen: golden
outputs depend on it, so it must not change between releases.  Only the
vectorised draws use numpy, imported on first call: ``trees`` and
``hackbusch`` load this module for the pure-Python draws, which a
process that never samples a tensor makes without numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4B7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finaliser on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Stable sub-seed: element ``index`` of the stream for ``seed``."""
    return mix64((seed + (index + 1) * GAMMA) & MASK64)


class CounterRng:
    """Counter-based SplitMix64 stream with uniform field residues."""

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._counter = 0

    def next_u64(self) -> int:
        value = derive_seed(self._seed, self._counter)
        self._counter += 1
        return value

    def u64_block(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit values, vectorised."""
        import numpy as np
        start = self._counter + 1
        self._counter += count
        idx = np.arange(start, start + count, dtype=np.uint64)
        z = np.uint64(self._seed) + idx * np.uint64(GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        return z ^ (z >> np.uint64(31))

    def residues(self, count: int, p: int) -> np.ndarray:
        """Exactly uniform residues in [0, p) as int64, via rejection."""
        import numpy as np
        limit = np.uint64((1 << 64) - ((1 << 64) % p))
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            block = self.u64_block(count - filled)
            good = block[block < limit] % np.uint64(p)
            out[filled : filled + good.size] = good.astype(np.int64)
            filled += good.size
        return out

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), for 1 <= bound <= 2**64."""
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"randbelow bound must be in [1, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
