"""Deterministic splittable randomness.

All sampling in the test suites flows from one seed through this generator.
It is counter-based (word i is a pure function of (key, i), SplitMix64-style)
so any sample of a range can be drawn on its own, in any order, and it is
splittable: `split(label)` derives an independent stream whose key depends
only on the parent key and the label, never on how much of the parent
stream was consumed. Reports built from these streams are
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Weights are drawn on the grid of multiples of 1/_WEIGHT_GRID.
_WEIGHT_GRID = 16


def _mix(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _label_word(label) -> int:
    data = repr(label).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class SplitStream:
    """Counter-based PRNG stream with derived substreams."""

    def __init__(self, key: int):
        self._key = key & _MASK
        self._counter = 0

    def split(self, *labels) -> "SplitStream":
        key = self._key
        for label in labels:
            key = _mix(key ^ _label_word(label))
        return SplitStream(key)

    def next_word(self) -> int:
        self._counter += 1
        return _mix((self._key + self._counter * _GOLDEN) & _MASK)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to kill modulo bias."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (_MASK + 1) - ((_MASK + 1) % span)
        while True:
            w = self.next_word()
            if w < limit:
                return lo + (w % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def sign(self) -> int:
        return 1 if self.randint(0, 1) else -1

    def fraction(self, lo, hi, denominator: int = 4) -> Fraction:
        """Uniform point of the denominator-grid inside [lo, hi] (ints or Fractions)."""
        if hi < lo:
            raise ValueError(f"empty interval [{Fraction(lo)}, {Fraction(hi)}]")
        d = self.randint(1, denominator)
        lo_num = -((-lo.numerator * d) // lo.denominator)  # ceil(lo*d)
        hi_num = (hi.numerator * d) // hi.denominator  # floor(hi*d)
        if hi_num < lo_num:
            return Fraction(lo)  # interval thinner than the grid
        return Fraction(self.randint(lo_num, hi_num), d)

    def convex_weights(self, count: int, total=1) -> list[Fraction]:
        """Nonnegative rationals summing exactly to `total` (an int or a Fraction)."""
        raw = [self.randint(0, _WEIGHT_GRID) for _ in range(count)]
        if sum(raw) == 0:
            raw[self.randint(0, count - 1)] = 1
        s = sum(raw) * total.denominator
        return [Fraction(r * total.numerator, s) for r in raw]

    def balanced_weights(self, count: int, ceiling=1) -> list[Fraction]:
        """Signed rationals with sum of absolute values <= ceiling (often <)."""
        mass = Fraction(self.randint(0, _WEIGHT_GRID) * ceiling.numerator,
                        _WEIGHT_GRID * ceiling.denominator)
        if mass == 0:
            return [Fraction(0)] * count
        return [w * self.sign() for w in self.convex_weights(count, total=mass)]
