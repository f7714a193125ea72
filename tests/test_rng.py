import random
from fractions import Fraction

import pytest

import oracles
from tensorlattice import rng as rng_module
from tensorlattice.rng import SplitStream


def test_same_seed_same_stream():
    a = SplitStream(42)
    b = SplitStream(42)
    assert [oracles.next_word(a) for _ in range(8)] == [oracles.next_word(b) for _ in range(8)]


def test_different_seeds_differ():
    a = SplitStream(1)
    b = SplitStream(2)
    assert [oracles.next_word(a) for _ in range(4)] != [oracles.next_word(b) for _ in range(4)]


def test_split_by_label_is_stable():
    def head(stream):
        return [oracles.next_word(stream) for _ in range(4)]

    assert head(SplitStream(7).split("laws", 3)) == head(SplitStream(7).split("laws", 3))
    assert head(SplitStream(7).split("laws", 3)) != head(SplitStream(7).split("laws", 4))
    assert head(SplitStream(7).split("laws")) != head(SplitStream(7).split("gauge"))


def test_split_does_not_disturb_parent():
    a = SplitStream(5)
    b = SplitStream(5)
    a.split("child")
    # deriving a child stream must not advance the parent
    assert oracles.next_word(a) == oracles.next_word(b)


def test_children_are_independent_of_sibling_consumption():
    parent = SplitStream(9)
    c1 = parent.split(0)
    burned = [oracles.next_word(c1) for _ in range(100)]
    assert len(set(burned)) > 90
    c2 = parent.split(1)
    fresh = SplitStream(9).split(1)
    assert [oracles.next_word(c2) for _ in range(8)] == [oracles.next_word(fresh) for _ in range(8)]


def test_randint_bounds_and_spread():
    r = SplitStream(11)
    draws = [r.randint(3, 9) for _ in range(500)]
    assert all(3 <= d <= 9 for d in draws)
    assert set(draws) == set(range(3, 10))


def test_fraction_bounds_and_denominator():
    r = SplitStream(13)
    for _ in range(300):
        f = r.fraction(-2, 3, 8)
        assert Fraction(-2) <= f <= Fraction(3)
        # the draw picks a grid density up to the requested cap
        assert f.denominator <= 8


def test_sign_and_choice():
    r = SplitStream(17)
    signs = {r.sign() for _ in range(50)}
    assert signs == {-1, 1}
    picks = {r.choice("abc") for _ in range(60)}
    assert picks == {"a", "b", "c"}


def test_convex_weights_sum_exactly():
    for count in (1, 2, 5):
        a, b = twins(19 + count)
        raw = a.convex_grid(count)
        w = oracles.convex_weights(b, count)
        assert sum(w) == 1
        assert all(x >= 0 for x in w)
        assert w == [Fraction(r, sum(raw)) for r in raw]
        assert a._counter == b._counter


def test_balanced_weights_bounded_total():
    r = SplitStream(23)
    for _ in range(20):
        w = r.balanced_weights(4)
        assert sum(abs(x) for x in w) <= 1


def test_index_keyed_split_matches_any_iteration_order():
    # the worker-sharding contract: stream for item i depends only on i
    base = SplitStream(42).split("suite")
    forward = [oracles.next_word(base.split(i)) for i in range(10)]
    backward = [oracles.next_word(base.split(i)) for i in reversed(range(10))]
    assert forward == list(reversed(backward))


# ---------------------------------------------------------------------------
# Draw for draw against the reference bodies: the same value, and the streams
# end at the same word.
# ---------------------------------------------------------------------------


def twins(seed):
    return SplitStream(seed), SplitStream(seed)


def test_randint_against_the_next_word_loop():
    r = random.Random(31)
    spans = [1, 2, 3, 16, 17, 1000, 2**32 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 5, 2**64]
    rejected = 0
    for t in range(3000):
        span = spans[t % len(spans)] if t % 2 else r.randint(1, 2**64)
        lo = r.randint(-10**20, 10**20)
        a, b = twins(r.getrandbits(64))
        for _ in range(4):
            before = b._counter
            assert a.randint(lo, lo + span - 1) == oracles.randint(b, lo, lo + span - 1)
            rejected += b._counter - before - 1
            assert a._counter == b._counter
        assert oracles.next_word(a) == oracles.next_word(b)
    # about half the words are rejected on a span just above 2**63
    a, b = twins(5)
    for _ in range(400):
        assert a.randint(0, 2**63) == oracles.randint(b, 0, 2**63)
    assert a._counter == b._counter
    assert 600 < a._counter < 1000
    assert rejected > 0
    with pytest.raises(ValueError, match="empty range"):
        SplitStream(1).randint(3, 2)


def test_randint_on_spans_wider_than_a_word():
    # 2**64 + 1 values: an attempt reads two words, the first most
    # significant, and 2**128 % (2**64 + 1) == 1 rejects only the all-ones pair
    a, b = twins(1)
    first, second = oracles.next_word(b), oracles.next_word(b)
    assert a.randint(0, 2**64) == (first << 64 | second) % (2**64 + 1)
    assert a._counter == b._counter == 2
    # the fewest words whose bits reach the span, per attempt
    for span, words in ((2**64 + 1, 2), (2**128, 2), (2**128 + 1, 3), (3**100, 3), (2**300, 5)):
        a, b = twins(span % 1000)
        lo = -(span // 3)
        for _ in range(20):
            v = a.randint(lo, lo + span - 1)
            assert lo <= v < lo + span
            assert v == oracles.randint(b, lo, lo + span - 1)
            assert a._counter == b._counter and a._counter % words == 0
        assert oracles.next_word(a) == oracles.next_word(b)
    # about half the word pairs are rejected just above 2**127
    a, b = twins(6)
    for _ in range(400):
        assert a.randint(0, 2**127) == oracles.randint(b, 0, 2**127)
    assert a._counter == b._counter
    assert 1200 < a._counter < 2000


def test_grid_against_the_fraction_oracle():
    r = random.Random(32)
    thin = 0
    for _ in range(3000):
        lo = Fraction(r.randint(-40, 40), r.randint(1, 12))
        hi = lo + r.choice((0, Fraction(1, r.randint(5, 10**6)), Fraction(r.randint(0, 30), r.randint(1, 7))))
        if lo.denominator == 1 and hi.denominator == 1 and r.randrange(2):
            lo, hi = int(lo), int(hi)
        denominator = r.randint(1, 8)
        a, b = twins(r.getrandbits(64))
        k, d = a.grid(lo, hi, denominator)
        assert type(k) is int and type(d) is int and d > 0
        expected = oracles.grid_fraction(b, lo, hi, denominator)
        assert Fraction(k, d) == expected
        thin += d > denominator  # only lo itself, off the grid, comes back so
        assert oracles.next_word(a) == oracles.next_word(b)
    assert thin > 20
    a, b = twins(9)  # no grid point of 1/1 .. 1/4 lies in [2/7, 2/7 + 10^-6]
    lo = Fraction(2, 7)
    assert a.grid(lo, lo + Fraction(1, 10**6), 4) == (2, 7)
    assert oracles.grid_fraction(b, lo, lo + Fraction(1, 10**6), 4) == lo
    assert oracles.next_word(a) == oracles.next_word(b)
    with pytest.raises(ValueError, match="empty interval"):
        SplitStream(1).grid(1, 0)


def test_label_word_against_uncached_blake2b():
    labels = [1, True, "1", (1,), (True,), ("1",), (1, "x"), "suite", 0, False, None, 2**70]
    words = [rng_module._label_word(label) for label in labels]
    assert words == [oracles.label_word(label) for label in labels]
    assert len(set(words)) == len(labels)
    # a second read comes from the memo and agrees
    hits = rng_module._text_word.cache_info().hits
    assert [rng_module._label_word(label) for label in labels] == words
    assert rng_module._text_word.cache_info().hits == hits + len(labels)
    parent = SplitStream(3)
    assert oracles.next_word(parent.split(1)) != oracles.next_word(parent.split(True))
    assert oracles.next_word(parent.split(1)) != oracles.next_word(parent.split("1"))
