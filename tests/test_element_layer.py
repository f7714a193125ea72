"""The integer element layer against the Fraction-tuple oracles.

`LatticeElement` and `TensorElement` hold integer numerators over one
denominator; `tests/oracles.py` keeps the element operations, the samplers
and the seminorm closed form on tuples of Fractions. Every comparison here is
exact, and the samplers are compared draw for draw: the same point, and the
same next word of the stream after the call.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import oracles
from tensorlattice import hulls
from tensorlattice.elements import (
    DimensionMismatch,
    LatticeElement,
    LatticeHom,
    combination,
    polyhedral_gauge,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice.hulls import CONV, CONV_B, SOL, GeneratedSet, UnsupportedDecoration
from tensorlattice.rng import SplitStream
from tensorlattice.tensor import TensorElement, random_tensor, rank_one

DECORATIONS = ((), (SOL,), (CONV,), (CONV_B,), (SOL, CONV), (SOL, CONV_B))


def draw_value(r: random.Random):
    """An int or a Fraction: zero, small, or with a denominator up to 10**9."""
    kind = r.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return r.randint(-5, 5)
    if kind == 2:
        return Fraction(r.randint(-9, 9), r.randint(1, 8))
    if kind == 3:
        return Fraction(r.randint(-10**9, 10**9), r.randint(1, 10**9))
    if kind == 4:
        return Fraction(r.randint(-10**12, 10**12))
    return Fraction(0)


def draw_coords(r: random.Random, dim: int):
    if r.randrange(8) == 0:
        return tuple(r.choice((0, Fraction(0))) for _ in range(dim))
    return tuple(draw_value(r) for _ in range(dim))


def draw_scalar(r: random.Random):
    kind = r.randrange(5)
    if kind == 0:
        return r.choice((0, Fraction(0), "0"))
    if kind == 1:
        return r.randint(-4, 4)
    if kind == 2:
        return f"{r.randint(-9, 9)}/{r.randint(1, 9)}"
    return draw_value(r)


def assert_lowest_terms(x: LatticeElement):
    assert type(x.num) is tuple and all(type(a) is int for a in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def assert_holds(x: LatticeElement, coords, like: LatticeElement):
    """x is an element of like's type and shape with exactly these coordinates."""
    assert type(x) is type(like)
    if isinstance(like, TensorElement):
        assert x.shape == like.shape
    assert_lowest_terms(x)
    assert x.coords == tuple(coords)
    assert all(type(c) is Fraction for c in x.coords)


def element_of(coords, shape):
    return LatticeElement(coords) if shape is None else TensorElement(coords, shape)


def draw_shape(r: random.Random, dim: int):
    """None for a plain element, else a shape with dim entries when dim allows one."""
    if dim == 0 or r.randrange(3):
        return None
    return r.choice([(n, dim // n) for n in range(1, dim + 1) if dim % n == 0])


class TestDifferential:
    def test_every_operation_against_the_tuple_oracle(self):
        r = random.Random(20240617)
        pairs = 0
        for _ in range(5200):
            dim = r.randint(0, 6)
            shape = draw_shape(r, dim)
            ca, cb = draw_coords(r, dim), draw_coords(r, dim)
            if r.randrange(6) == 0:
                cb = ca
            x, y = element_of(ca, shape), element_of(cb, shape)
            fa, fb = tuple(map(Fraction, ca)), tuple(map(Fraction, cb))
            assert_holds(x, fa, x)
            assert_holds(y, fb, x)
            assert_holds(x.join(y), oracles.coords_join(fa, fb), x)
            assert_holds(x.meet(y), oracles.coords_meet(fa, fb), x)
            assert_holds(x + y, oracles.coords_add(fa, fb), x)
            assert_holds(x - y, oracles.coords_sub(fa, fb), x)
            assert_holds(abs(x), oracles.coords_abs(fa), x)
            assert_holds(-x, oracles.coords_neg(fa), x)
            alpha = draw_scalar(r)
            assert_holds(x.scale(alpha), oracles.coords_scale(fa, alpha), x)
            assert x.le(y) == oracles.coords_le(fa, fb)
            assert y.le(x) == oracles.coords_le(fb, fa)
            assert x.is_zero() == oracles.coords_is_zero(fa)
            assert (x == y) == (fa == fb)
            assert (x != y) == (fa != fb)
            if fa == fb:
                assert hash(x) == hash(y)
            assert x.dim == dim
            pairs += 1
        assert pairs >= 5000

    def test_rank_one_against_the_tuple_oracle(self):
        r = random.Random(7)
        for _ in range(2000):
            ca, cb = draw_coords(r, r.randint(1, 6)), draw_coords(r, r.randint(1, 6))
            u = rank_one(LatticeElement(ca), LatticeElement(cb))
            assert type(u) is TensorElement and u.shape == (len(ca), len(cb))
            assert_holds(u, oracles.coords_rank_one(tuple(map(Fraction, ca)),
                                                    tuple(map(Fraction, cb))), u)

    def test_rank_one_needs_a_nonempty_shape(self):
        with pytest.raises(ValueError, match="a tensor element needs a nonempty shape"):
            rank_one(LatticeElement(()), LatticeElement((1,)))

    def test_mixed_dimensions_keep_their_messages(self):
        x, y = LatticeElement((1, 2)), LatticeElement((1, 2, 3))
        for op in (x.join, x.meet, x.__add__, x.__sub__, x.le):
            with pytest.raises(DimensionMismatch, match="dimension mismatch: 2 vs 3"):
                op(y)
        u = TensorElement((1, 2, 3, 4, 5, 6), (2, 3))
        v = TensorElement((1, 2, 3, 4, 5, 6), (3, 2))
        for op in (u.join, u.meet, u.__add__, u.__sub__, u.le):
            with pytest.raises(DimensionMismatch, match=r"shape mismatch: \(2, 3\) vs \(3, 2\)"):
                op(v)
        with pytest.raises(ValueError, match="a tensor element needs a nonempty shape"):
            TensorElement((), (0, 2))
        with pytest.raises(DimensionMismatch, match="cannot reshape dim 3 to 2x2"):
            TensorElement((1, 2, 3), (2, 2))


class TestRepresentation:
    def test_equal_values_hash_equal_however_built(self):
        half = Fraction(1, 2)
        built = [
            LatticeElement((1, half, 0, -3)),
            LatticeElement((Fraction(1), half, Fraction(0), Fraction(-3))),
            LatticeElement.make(["1", "2/4", "0", -3]),
            LatticeElement.from_json(["1", "1/2", "0", "-3"]),
            LatticeElement((2, 1, 0, -6)).scale(half),
            LatticeElement((3, half, 7, 0)) - LatticeElement((2, 0, 7, 3)),
            -LatticeElement((-1, -half, 0, 3)),
        ]
        for x in built:
            assert_lowest_terms(x)
            assert x == built[0] and hash(x) == hash(built[0])
        assert built[0].num == (2, 1, 0, -6) and built[0].den == 2
        zero = LatticeElement((Fraction(0, 5), 0))
        assert zero.num == (0, 0) and zero.den == 1
        assert zero == LatticeElement((3, Fraction(1, 3))).scale(0) == LatticeElement.zero(2)
        u = TensorElement.make([[1, "1/2"], [0, -3]])
        assert u == TensorElement.from_json({"entries": [["1", "1/2"], ["0", "-3"]]})
        assert hash(u) == hash(TensorElement((1, half, 0, -3), (2, 2)))

    def test_plain_and_tensor_elements_never_compare_equal(self):
        coords = (1, Fraction(1, 2), 0, -3)
        x, u = LatticeElement(coords), TensorElement(coords, (2, 2))
        assert x != u and u != x
        assert not x == u and not u == x
        assert u != TensorElement(coords, (1, 4))
        assert len({x, u, TensorElement(coords, (4, 1))}) == 3

    def test_shape_survives_every_operation(self):
        u = TensorElement.make([[1, "-1/2", 0], [2, 0, "3/4"]])
        v = TensorElement.make([["1/3", 1, -1], [0, 0, 2]])
        for w in (u.join(v), u.meet(v), u + v, u - v, abs(u), -u, u.scale("-2/3"),
                  u.scale(0), hulls.sample_box_point(SplitStream(1), u)):
            assert type(w) is TensorElement and w.shape == (2, 3)

    def test_attributes_cannot_be_assigned(self):
        x = LatticeElement((1, Fraction(1, 2)))
        u = TensorElement((1, 2), (1, 2))
        for obj, name in ((x, "num"), (x, "den"), (x, "coords"), (x, "extra"),
                          (u, "shape"), (u, "num")):
            with pytest.raises(AttributeError):
                setattr(obj, name, (0,))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert x.num == (2, 1) and x.den == 2 and u.shape == (1, 2)

    def test_any_iterable_of_coordinates(self):
        expected = LatticeElement((1, Fraction(1, 2)))
        assert LatticeElement(c for c in (1, Fraction(1, 2))) == expected
        assert LatticeElement([1, Fraction(1, 2)]) == expected

    def test_coords_are_lowest_terms_fractions(self):
        for x in (LatticeElement((1, -2, 0)), LatticeElement.zero(3),
                  LatticeElement((Fraction(6, 4), 2)), TensorElement((0, 5), (1, 2)),
                  LatticeElement.unit(3, 1), LatticeElement.sparse(3, ((2, Fraction(2, 6)),))):
            assert type(x.coords) is tuple
            assert all(type(c) is Fraction for c in x.coords)
            assert x.coords == tuple(Fraction(a, x.den) for a in x.num)
        assert LatticeElement((Fraction(6, 4), 2)).coords == (Fraction(3, 2), Fraction(2))
        assert LatticeElement.sparse(3, ((2, Fraction(2, 6)),)).coords[2].denominator == 3


class TestCombination:
    def test_against_chained_add_and_scale(self):
        r = random.Random(27)
        seen = set()
        for _ in range(2400):
            dim = r.randint(0, 6)
            shape = draw_shape(r, dim)
            like = element_of(draw_coords(r, dim), shape)
            terms = [(draw_value(r), element_of(draw_coords(r, dim), shape))
                     for _ in range(r.choice((0, 1, 2, 3, 5)))]
            den = r.choice((1, r.randint(1, 10**6)))
            expected = element_of((0,) * dim, shape)
            for c, x in terms:
                expected = expected + x.scale(c)
            got = combination(terms, like, den)
            assert_holds(got, expected.scale(Fraction(1, den)).coords, like)
            seen.update(("empty",) if not terms else
                        (type(c).__name__ + ("-zero" if c == 0 else "-neg" if c < 0 else "")
                         for c, _ in terms))
            seen.add(("flat" if shape is None else "tensor", got.is_zero(), den > 1))
        assert {"empty", "int", "int-zero", "int-neg", "Fraction", "Fraction-zero",
                "Fraction-neg"} <= seen
        assert {(kind, zero, den) for kind in ("flat", "tensor")
                for zero in (False, True) for den in (False, True)} <= seen

    def test_hom_apply_against_the_fraction_body(self):
        r = random.Random(28)
        seen = set()
        for _ in range(1200):
            target = r.randint(0, 4)
            source = r.randint(0, 4) if target else 0
            rows = [[0] * source for _ in range(target)]
            for row in rows:
                if source and r.randrange(4):  # a quarter of the rows stay zero
                    row[r.randrange(source)] = abs(draw_value(r))
            h = LatticeHom(tuple(tuple(map(Fraction, row)) for row in rows))
            x = LatticeElement(draw_coords(r, h.source_dim))
            assert_holds(h.apply(x), oracles.hom_apply(h, x).coords, LatticeElement.zero(target))
            seen.add(("source-0", h.source_dim == 0))
            seen.add(("zero-row", any(not any(row) for row in rows)))
            seen.add(("zero-column", any(not any(col) for col in zip(*rows))))
        assert {(k, v) for k in ("source-0", "zero-row", "zero-column")
                for v in (False, True)} <= seen


class TestSamplersDrawForDraw:
    @staticmethod
    def twin(r: random.Random):
        seed = r.getrandbits(64)
        return SplitStream(seed), SplitStream(seed)

    def test_box_point_on_elements_and_tensors(self):
        r = random.Random(11)
        for _ in range(2000):
            dim = r.randint(0, 6)
            shape = draw_shape(r, dim)
            bound = element_of(draw_coords(r, dim), shape)
            a, b = self.twin(r)
            x = hulls.sample_box_point(a, bound)
            expected = oracles.sample_box_coords(b, bound.coords)
            assert_holds(x, expected, bound)
            assert oracles.next_word(a) == oracles.next_word(b)

    def test_hull_point_on_every_decoration(self):
        r = random.Random(12)
        for t in range(2400):
            dim = r.randint(1, 5)
            gens = tuple(LatticeElement(draw_coords(r, dim)) for _ in range(r.randint(1, 4)))
            deco = DECORATIONS[t % len(DECORATIONS)]
            a, b = self.twin(r)
            x = hulls.sample_hull_point(a, GeneratedSet(gens, deco))
            expected = oracles.sample_hull_coords(b, [g.coords for g in gens], deco)
            assert_holds(x, expected, gens[0])
            assert oracles.next_word(a) == oracles.next_word(b)

    def test_convex_solid_hull_point_on_elements_and_tensors(self):
        """Under `Sol` the box points are drawn into the combination's numerators:
        flat and shaped generators, zero and repeated ones, dims 0 to 6."""
        r = random.Random(28)
        seen = set()
        for t in range(2400):
            dim = r.randint(0, 6)
            shape = draw_shape(r, dim)
            gens = [element_of(draw_coords(r, dim), shape) for _ in range(r.randint(1, 4))]
            if r.randrange(4) == 0:
                gens.append(r.choice(gens))
            deco = ((SOL, CONV), (SOL, CONV_B))[t % 2]
            a, b = self.twin(r)
            x = hulls.sample_hull_point(a, GeneratedSet(gens, deco))
            expected = oracles.sample_hull_coords(b, [g.coords for g in gens], deco)
            assert_holds(x, expected, gens[0])
            assert oracles.next_word(a) == oracles.next_word(b)
            seen.add((deco, shape is None, x.is_zero()))
        assert len(seen) == 8, seen

    def test_unknown_decoration_draws_nothing(self):
        a, b = SplitStream(3), SplitStream(3)
        with pytest.raises(UnsupportedDecoration):
            hulls.sample_hull_point(a, GeneratedSet((LatticeElement((1,)),), (CONV, SOL)))
        assert oracles.next_word(a) == oracles.next_word(b)

    def test_random_instances(self):
        r = random.Random(16)
        for t in range(2000):
            a, b = self.twin(r)
            lo = r.choice((-3, -2, 0, Fraction(-7, 3), Fraction(5, 11)))
            hi = lo + r.choice((0, Fraction(1, 10**6), r.randint(0, 6), Fraction(r.randint(1, 9), 7)))
            if t % 3 == 0:
                dim = r.randint(0, 6)
                x = hulls.random_element(a, dim, lo, hi) if t % 2 else hulls.random_element(a, dim)
                old = oracles.random_element(b, dim, lo, hi) if t % 2 else oracles.random_element(b, dim)
                assert_holds(x, old.coords, old)
            elif t % 3 == 1:
                n, m = r.randint(1, 4), r.randint(1, 4)
                x = random_tensor(a, n, m, lo, hi) if t % 2 else random_tensor(a, n, m)
                old = oracles.random_tensor(b, n, m, lo, hi) if t % 2 else oracles.random_tensor(b, n, m)
                assert_holds(x, old.coords, old)
            else:
                dim, max_gens = r.randint(0, 5), r.randint(1, 5)
                S = hulls.random_bare_set(a, dim, max_gens) if t % 2 else hulls.random_bare_set(a, dim)
                old = oracles.random_bare_generators(b, dim, max_gens if t % 2 else 4)
                assert S.decoration == ()
                assert len(S.generators) == len(old)
                for g, h in zip(S.generators, old):
                    assert_holds(g, h.coords, h)
            assert oracles.next_word(a) == oracles.next_word(b)

    def test_stream_fractions_and_weights(self):
        r = random.Random(13)
        for _ in range(2000):
            lo = draw_value(r)
            hi = lo + r.choice((0, Fraction(1, 10**6), Fraction(r.randint(0, 9), r.randint(1, 9))))
            if r.randrange(2):
                lo, hi = Fraction(lo), Fraction(hi)
            denominator = r.randint(1, 8)
            a, b = self.twin(r)
            f = a.fraction(lo, hi, denominator)
            assert type(f) is Fraction and f == oracles.grid_fraction(b, lo, hi, denominator)
            assert oracles.next_word(a) == oracles.next_word(b)
            count = r.randint(1, 5)
            raw = a.convex_grid(count)
            assert all(type(v) is int for v in raw)
            assert [Fraction(v, sum(raw)) for v in raw] == oracles.convex_weights(b, count)
            ceiling = r.choice((1, 0, Fraction(r.randint(1, 9), r.randint(1, 9))))
            w = a.balanced_weights(count, ceiling=ceiling)
            assert all(type(v) is Fraction for v in w)
            assert w == oracles.balanced_weights(b, count, ceiling=ceiling)
            assert oracles.next_word(a) == oracles.next_word(b)
        for lo, hi in ((1, 0), (Fraction(1, 2), Fraction(1, 3))):
            with pytest.raises(ValueError) as new:
                SplitStream(1).fraction(lo, hi, 4)
            with pytest.raises(ValueError) as old:
                oracles.grid_fraction(SplitStream(1), lo, hi, 4)
            assert str(new.value) == str(old.value)


def random_partitioning_seminorm(r: random.Random, dim: int):
    kind = r.randrange(3)
    if kind == 0:  # weighted l1, zero weights included
        return weighted_l1([r.choice((0, 1, Fraction(r.randint(1, 9), r.randint(1, 9))))
                            for _ in range(dim)])
    if kind == 1:
        return weighted_order_unit([Fraction(r.randint(1, 9), r.randint(1, 9))
                                    for _ in range(dim)])
    # a block gauge: generators on disjoint supports that cover the coordinates
    owners = [r.randrange(3) for _ in range(dim)]
    gens = []
    for block in sorted(set(owners)):
        gens.append(LatticeElement(tuple(
            Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 5)) if o == block else 0
            for o in owners)))
    return polyhedral_gauge(gens)


class TestSeminormClosedForm:
    def test_closed_form_against_the_fraction_oracle(self):
        r = random.Random(14)
        kinds = set()
        for _ in range(2000):
            dim = r.randint(1, 6)
            p = random_partitioning_seminorm(r, dim)
            assert p.rays_partition
            kinds.add(p.kind)
            x = LatticeElement(draw_coords(r, dim))
            value = p(x)
            assert type(value) is Fraction
            assert value == oracles.ray_closed_form(p, x.coords)
            assert p(abs(x)) == p(-x) == value
        assert len(kinds) == 3


class TestBareHullRows:
    """The integer rows `_sum_hull_member` hands to phase 1 are the Fraction rows
    of its program, each scaled by the lcm of its denominators."""

    def test_rows_match_the_fraction_rows(self, monkeypatch):
        seen = []
        monkeypatch.setattr(hulls, "feasible", lambda rows, rhs: seen.append((rows, rhs)))
        r = random.Random(15)
        compared = 0
        while compared < 600:
            dim = r.randint(1, 5)
            blocks = [tuple(LatticeElement(draw_coords(r, dim)) for _ in range(r.randint(1, 3)))
                      for _ in range(r.randint(1, 2))]
            x = LatticeElement(draw_coords(r, dim))
            balanced = r.randrange(2) == 1
            hulls._sum_hull_member(blocks, x, balanced)
            if not seen:  # the box rejected x, or accepted it on a line
                continue
            rows, rhs = seen.pop()
            assert all(type(a) is int for row in rows for a in row)
            assert all(type(b) is int for b in rhs)
            assert (rows, rhs) == oracles.integer_program(
                *oracles.sum_hull_rows(blocks, x, balanced))
            compared += 1
