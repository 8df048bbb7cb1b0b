"""Deterministic random streams.

Every randomized routine in this package draws from a RandomStream.  Streams
are derived from a master seed plus a purpose tag (and optionally a trial
index), so an experiment is reproducible run-to-run, across platforms, and
regardless of how trials are scheduled over workers.  The core generator is
PCG32 (Melissa O'Neill's pcg32_random_r), which is tiny, fast enough in pure
Python, and has a well-defined bit-exact output sequence.
"""

from __future__ import annotations

import hashlib

__all__ = ["RandomStream", "derive_seed"]

_MASK64 = (1 << 64) - 1
_PCG_MULT = 6364136223846793005


def derive_seed(master_seed: int, purpose: str, index: int = 0) -> tuple[int, int]:
    """Map (master seed, purpose tag, index) to a (state, stream) pair.

    SHA-256 keeps the derivation platform-independent and makes unrelated
    purpose tags statistically independent.
    """
    material = f"{master_seed}:{purpose}:{index}".encode()
    digest = hashlib.sha256(material).digest()
    state = int.from_bytes(digest[:8], "little")
    stream = int.from_bytes(digest[8:16], "little")
    return state, stream


class RandomStream:
    """PCG32 generator with stream derivation and sampling helpers."""

    __slots__ = ("_state", "_inc", "seed", "purpose", "index")

    def __init__(self, seed: int, purpose: str = "main", index: int = 0):
        self.seed = seed
        self.purpose = purpose
        self.index = index
        state, stream = derive_seed(seed, purpose, index)
        # pcg32_srandom_r initialization sequence.
        self._inc = ((stream << 1) | 1) & _MASK64
        self._state = 0
        self.next_u32()
        self._state = (self._state + state) & _MASK64
        self.next_u32()

    def derive(self, purpose: str, index: int = 0) -> "RandomStream":
        """Child stream; independent of this stream's current position."""
        return RandomStream(self.seed, f"{self.purpose}/{purpose}", index)

    # ------------------------------------------------------------------
    # core output
    # ------------------------------------------------------------------

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * _PCG_MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        high = self.next_u32() >> 6   # 26 bits
        low = self.next_u32() >> 5    # 27 bits
        return (high * 134217728.0 + low) / 9007199254740992.0

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound). Rejection sampling, no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Largest multiple of bound that fits in 32 bits.
        threshold = (1 << 32) - ((1 << 32) % bound)
        while True:
            value = self.next_u32()
            if value < threshold:
                return value % bound

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return low + self.randrange(high - low + 1)

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    # ------------------------------------------------------------------
    # sampling helpers
    # ------------------------------------------------------------------

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def numpy_generator(self):
        """A numpy Generator seeded from this stream's identity.

        A pure derivation: repeated calls return identical generators.  Used
        by laboratory code that wants one bulk source per stream.
        """
        import numpy as np

        state, stream = derive_seed(self.seed, self.purpose + "/numpy", self.index)
        return np.random.Generator(np.random.PCG64(seed=(state << 64) | stream))

    def numpy_child(self):
        """A numpy Generator whose seed consumes draws from this stream.

        Unlike numpy_generator(), successive calls yield fresh generators,
        so bulk randomness stays decorrelated when one stream drives several
        runs in sequence.
        """
        import numpy as np

        material = 0
        for _ in range(4):
            material = (material << 32) | self.next_u32()
        return np.random.Generator(np.random.PCG64(seed=material))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, purpose={self.purpose!r}, index={self.index})"
