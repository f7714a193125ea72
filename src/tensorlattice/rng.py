"""Deterministic splittable randomness.

All sampling in the test suites flows from one seed through this generator.
It is counter-based (word i is a pure function of (key, i), SplitMix64-style)
so any sample of a range can be drawn on its own, in any order, and it is
splittable: `split(label)` derives an independent stream whose key depends
only on the parent key and the label, never on how much of the parent
stream was consumed. Reports built from these streams are
byte-identical across runs and worker counts.

The draws come in two forms. `grid`, `convex_grid` and `balanced_grid` return
the raw integers of a draw; `fraction` and `balanced_weights` are the same
draws read as Fractions, so the samplers that work on integer numerators and
the ones that want Fractions consume the stream identically. The blake2b
words of the last 1,024 labels are memoized, keyed by the label's `repr` (so
`1`, `True` and `"1"` stay three labels); the memo changes no word of any
stream.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache

_MASK = (1 << 64) - 1
_WORDS = 1 << 64  # the number of distinct words
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


@lru_cache(maxsize=1024)  # the suite's labels are its names and sample indices
def _text_word(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def _label_word(label) -> int:
    return _text_word(repr(label))


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

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to kill modulo bias.

        Each attempt takes the next word of the stream; for a span wider than
        2**64, the fewest next words that reach it, first word most significant.
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > _WORDS:
            words = ((span - 1).bit_length() + 63) // 64
            size = 1 << 64 * words
            while True:
                w = 0
                for _ in range(words):
                    w = w << 64 | self.randint(0, _MASK)  # the next word, always taken
                if w < size - size % span:
                    return lo + w % span
        limit = _WORDS - _WORDS % span  # a word below it maps to [lo, hi] uniformly
        key, counter = self._key, self._counter
        while True:
            counter += 1
            w = _mix(key + counter * _GOLDEN)
            if w < limit:
                self._counter = counter
                return lo + w % span

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def sign(self) -> int:
        return 1 if self.randint(0, 1) else -1

    def grid(self, lo, hi, denominator: int = 4) -> tuple[int, int]:
        """`fraction(lo, hi, denominator)` as integers (k, d): the point is k/d.

        d is the drawn grid, so k/d need not be in lowest terms; an interval
        thinner than the grid gives lo as (numerator, denominator).
        """
        if hi < lo:
            raise ValueError(f"empty interval [{Fraction(lo)}, {Fraction(hi)}]")
        d = self.randint(1, denominator)
        lo_num = -((-lo.numerator * d) // lo.denominator)  # ceil(lo*d)
        hi_num = (hi.numerator * d) // hi.denominator  # floor(hi*d)
        if hi_num < lo_num:
            return lo.numerator, lo.denominator  # interval thinner than the grid
        return self.randint(lo_num, hi_num), d

    def fraction(self, lo, hi, denominator: int = 4) -> Fraction:
        """Uniform point of the denominator-grid inside [lo, hi] (ints or Fractions)."""
        return Fraction(*self.grid(lo, hi, denominator))

    def convex_grid(self, count: int) -> list[int]:
        """Integers r_k in 0.._WEIGHT_GRID, not all 0: convex weights r_k / sum(r)."""
        raw = [self.randint(0, _WEIGHT_GRID) for _ in range(count)]
        if sum(raw) == 0:
            raw[self.randint(0, count - 1)] = 1
        return raw

    def balanced_grid(self, count: int, ceiling=1) -> tuple[int, list[int]]:
        """The integers (m, r) behind `balanced_weights(count, ceiling)`.

        m is the mass in 0.._WEIGHT_GRID and r the signed `convex_grid`
        integers: weight k is ceiling * m r_k / (_WEIGHT_GRID sum |r|). When m
        or the ceiling is 0 nothing more is drawn and every r_k is 0.
        """
        m = self.randint(0, _WEIGHT_GRID)
        if m == 0 or ceiling == 0:
            return 0, [0] * count
        return m, [r * self.sign() for r in self.convex_grid(count)]

    def balanced_weights(self, count: int, ceiling=1) -> list[Fraction]:
        """Signed rationals with sum of absolute values <= ceiling (often <)."""
        m, raw = self.balanced_grid(count, ceiling)
        if m == 0:
            return [Fraction(0)] * count
        s = sum(map(abs, raw)) * _WEIGHT_GRID * ceiling.denominator
        return [Fraction(r * m * ceiling.numerator, s) for r in raw]
