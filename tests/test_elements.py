from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensorlattice.elements import (
    DimensionMismatch,
    LatticeElement,
    LatticeHom,
    RieszSeminorm,
    SeminormFamily,
    disjointify,
    polyhedral_gauge,
    riesz_decompose,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice import hulls
from tensorlattice.hulls import INFINITE, GeneratedSet
from tensorlattice.jsonio import MAX_DIGITS, MAX_EXPONENT, FormatError, as_fraction, fraction_str
from tensorlattice.rng import SplitStream


def el(*coords):
    return LatticeElement(tuple(Fraction(c) for c in coords))


def hom(rows):
    return LatticeHom(tuple(tuple(as_fraction(a) for a in row) for row in rows))


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def element_pairs(draw, max_dim=4):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    mk = lambda: LatticeElement(tuple(draw(fracs) for _ in range(dim)))
    return mk(), mk()


@st.composite
def element_triples(draw, max_dim=4):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    mk = lambda: LatticeElement(tuple(draw(fracs) for _ in range(dim)))
    return mk(), mk(), mk()


class TestLatticeLaws:
    @given(element_pairs())
    def test_join_meet_commute(self, xy):
        x, y = xy
        assert x.join(y) == y.join(x)
        assert x.meet(y) == y.meet(x)

    @given(element_triples())
    def test_associativity(self, xyz):
        x, y, z = xyz
        assert x.join(y).join(z) == x.join(y.join(z))
        assert x.meet(y).meet(z) == x.meet(y.meet(z))

    @given(element_pairs())
    def test_absorption(self, xy):
        x, y = xy
        assert x.join(x.meet(y)) == x
        assert x.meet(x.join(y)) == x

    @given(element_triples())
    def test_distributivity(self, xyz):
        x, y, z = xyz
        assert x.meet(y.join(z)) == x.meet(y).join(x.meet(z))
        assert x.join(y.meet(z)) == x.join(y).meet(x.join(z))

    @given(element_triples())
    def test_translation_invariance(self, xyz):
        x, y, z = xyz
        assert (x + z).join(y + z) == x.join(y) + z
        assert (x + z).meet(y + z) == x.meet(y) + z

    @given(element_pairs(), fracs)
    def test_positive_scaling(self, xy, a):
        x, y = xy
        if a < 0:
            # negative scalars swap join and meet
            assert x.join(y).scale(a) == x.scale(a).meet(y.scale(a))
        else:
            assert x.join(y).scale(a) == x.scale(a).join(y.scale(a))

    @given(element_pairs())
    def test_abs_and_parts(self, xy):
        x, _ = xy
        assert abs(x) == x.join(-x)

    @given(element_pairs())
    def test_join_plus_meet(self, xy):
        x, y = xy
        assert x.join(y) + x.meet(y) == x + y

    @given(element_pairs())
    def test_le_is_order(self, xy):
        x, y = xy
        assert x.le(y) == (x.join(y) == y) == (x.meet(y) == x)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        el(1, 2).join(el(1))
    with pytest.raises(DimensionMismatch):
        el(1, 2) + el(1, 2, 3)


class TestRieszDecompose:
    def test_fixture_dim2(self):
        # |(-3,1)| <= |(-2,1)| + |(1,0)| splits as (-2,1) + (-1,0)
        z1, z2 = riesz_decompose(el(-3, 1), el(-2, 1), el(1, 0))
        assert z1 == el(-2, 1)
        assert z2 == el(-1, 0)

    def test_fixture_dim1(self):
        z1, z2 = riesz_decompose(el(3), el(2), el(2))
        assert z1 == el(2)
        assert z2 == el(1)

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            riesz_decompose(el(5), el(2), el(2))

    @given(element_triples())
    def test_postconditions(self, zxy):
        z0, x, y = zxy
        # shrink z into the valid band |z| <= |x| + |y|
        bound = abs(x) + abs(y)
        z = z0.join(-bound).meet(bound)
        z1, z2 = riesz_decompose(z, x, y)
        assert z1 + z2 == z
        assert abs(z1).le(abs(x))
        assert abs(z2).le(abs(y))


class TestDisjointify:
    def test_fixture(self):
        xp, yp = disjointify(el(2, 1), el(1, 3))
        assert xp == el(1, 0)
        assert yp == el(0, 2)

    @given(element_pairs())
    def test_postconditions(self, xy):
        x, y = xy
        xp, yp = disjointify(x, y)
        zero = LatticeElement.zero(x.dim)
        assert xp.meet(yp) == zero
        assert zero.le(xp) and xp.le(abs(x))
        assert zero.le(yp) and yp.le(abs(y))
        # disjointness makes the join additive, and the pair recovers
        # |x| v |y| shifted down by the common part |x| ^ |y|
        common = abs(x).meet(abs(y))
        assert xp.join(yp) == xp + yp == abs(x).join(abs(y)) - common

    @given(element_pairs())
    def test_join_recovered_only_when_already_disjoint(self, xy):
        x, y = xy
        xp, yp = disjointify(x, y)
        if abs(x).meet(abs(y)).is_zero():
            assert xp.join(yp) == abs(x).join(abs(y))


class TestSeminorms:
    def test_weighted_l1_fixture(self):
        p = weighted_l1([1, 1])
        assert p(el(1, -2)) == 3

    def test_weighted_l1_weights(self):
        p = weighted_l1(["1/2", 3])
        assert p(el(-2, 1)) == Fraction(4)

    def test_order_unit_fixture(self):
        p = weighted_order_unit([2, 1])
        assert p(el(4, 1)) == 2

    def test_polyhedral_fixture(self):
        p = polyhedral_gauge([el(1, 0), el(0, 1)])
        assert p(el(1, 1)) == 2

    def test_polyhedral_off_span_is_infinite(self):
        p = polyhedral_gauge([el(1, 0)])
        assert p(el(0, 1)) is INFINITE
        assert p(el(3, 0)) == 3

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            weighted_l1([-1, 1])
        with pytest.raises(ValueError):
            weighted_order_unit([1, 0])
        # zero l1 weights are allowed: they make the seminorm degenerate
        assert weighted_l1([1, 0])(el(0, 7)) == 0
        # a seminorm lives on at least one coordinate, whatever its kind
        with pytest.raises(ValueError):
            weighted_l1([])
        with pytest.raises(ValueError):
            polyhedral_gauge([el()])

    @given(element_pairs(), st.sampled_from(["l1", "ou"]))
    @settings(max_examples=60)
    def test_riesz_seminorm_axioms(self, xy, kind):
        x, y = xy
        w = [Fraction(i + 1, 2) for i in range(x.dim)]
        p = weighted_l1(w) if kind == "l1" else weighted_order_unit(w)
        assert p(x) >= 0
        assert p(x.scale(Fraction(-3, 2))) == Fraction(3, 2) * p(x)
        assert p(x + y) <= p(x) + p(y)
        assert p(abs(x)) == p(x)
        if abs(x).le(abs(y)):
            assert p(x) <= p(y)

    @given(element_pairs())
    @settings(max_examples=40)
    def test_polyhedral_solidity(self, xy):
        x, y = xy
        gens = [LatticeElement.unit(x.dim, i) for i in range(x.dim)]
        p = polyhedral_gauge(gens)
        assert p(abs(x)) == p(x)
        if abs(x).le(abs(y)):
            assert not p(y) < p(x)

    def test_unit_ball_generators(self):
        p = weighted_l1([1, 2])
        ball = p.unit_ball()
        assert p(ball.generators[0]) <= 1
        # the rays scaled to p = 1; zero-weight l1 rays generate nothing
        assert weighted_l1([2, 0, 4]).unit_ball().generators == (el("1/2", 0, 0), el(0, 0, "1/4"))
        assert weighted_order_unit([2, 1]).unit_ball().generators == (el(2, 1),)
        # the zero seminorm has no such ray: its ball is generated by 0
        zero_ball = weighted_l1([0, 0]).unit_ball()
        assert zero_ball.generators == (el(0, 0),)
        assert zero_ball.decoration == ("Sol", "Conv_b")

    @given(element_pairs())
    @settings(max_examples=40)
    def test_in_unit_ball_is_p_at_most_one(self, xy):
        x, y = xy
        halves = [Fraction(i, 2) for i in range(x.dim)]  # weight 0 on e_1
        for p in (weighted_order_unit([w + 1 for w in halves]),
                  polyhedral_gauge([y, LatticeElement.unit(x.dim, 0)])):
            assert (p(x) <= 1) == hulls.member(p.unit_ball(), x)
        # a zero weight leaves the ball short of {p <= 1} along its direction
        p = weighted_l1(halves)
        assert not hulls.member(p.unit_ball(), x) or p(x) <= 1
        assert p(LatticeElement.unit(x.dim, 0, 100)) == 0
        assert not hulls.member(p.unit_ball(), LatticeElement.unit(x.dim, 0, 100))

    def test_rays_of_every_kind_and_their_partition(self):
        one = Fraction(1)
        assert weighted_l1([2, 0]).rays == ((2, ((0, one),)), (0, ((1, one),)))
        assert weighted_order_unit([2, 1]).rays == ((one, ((0, 2), (1, 1))),)
        # a gauge's rays are its nonzero |g_k| at cost 1, sparse
        gauge = polyhedral_gauge([el(-1, 0, 2), el(0, 0, 0), el(0, 3, 0)])
        assert gauge.rays == ((one, ((0, 1), (2, 2))), (one, ((1, 3),)))
        assert gauge.rays_partition
        assert weighted_l1([2, 0]).rays_partition
        assert weighted_order_unit([2, 1]).rays_partition
        # a box inside another is no ray, and equal boxes count once
        assert polyhedral_gauge([el(1, 1), el(0, 1)]).rays == ((one, ((0, 1), (1, 1))),)
        assert polyhedral_gauge([el(0, 1), el(1, 1)]).rays == ((one, ((0, 1), (1, 1))),)
        assert polyhedral_gauge([el(1, 0), el(-1, 0), el(0, 1)]).rays == weighted_l1([1, 1]).rays
        assert polyhedral_gauge([el(0, -2), el(1, 0), el(0, 2), el(0, 0)]).rays == \
            ((one, ((1, 2),)), (one, ((0, 1),)))
        assert polyhedral_gauge([el(2, 1), el(2, 1)]).rays_partition
        # overlapping supports, or a coordinate outside every support
        assert not polyhedral_gauge([el(1, 1), el(0, 2)]).rays_partition
        assert not polyhedral_gauge([el(1, 0)]).rays_partition
        assert not polyhedral_gauge([el(0, 0)]).rays_partition

    def test_block_gauge_closed_form(self):
        # l1 of l-infinity blocks: max(|x_0|, |x_2| / 2) + |x_1| / 3
        p = polyhedral_gauge([el(1, 0, 2), el(0, 3, 0)])
        x = el(-1, 6, 3)
        assert p(x) == Fraction(3, 2) + 2
        assert p(x) == hulls.gauge(GeneratedSet([el(1, 0, 2), el(0, 3, 0)], ("Sol", "Conv_b")), x)
        assert p(x.scale(Fraction(2, 7))) <= 1
        assert not p(x.scale(Fraction(1, 3))) <= 1

    def test_dropped_boxes_keep_the_gauge(self):
        # generators repeated up to sign, shrunk into an earlier box, or zero
        rng = SplitStream(109).split("canonical-rays")
        dropped = 0
        for t in range(240):
            r = rng.split(t)
            dim = r.randint(1, 3)
            gens = []
            for _ in range(r.randint(1, 4)):
                how = r.randint(0, 3) if gens else 0
                if how == 0:
                    g = el(*(r.fraction(-2, 2, 3) if r.randint(0, 2) else 0 for _ in range(dim)))
                elif how == 1:
                    g = -r.choice(gens)
                elif how == 2:
                    g = el(*(c * r.fraction(0, 1, 3) for c in r.choice(gens).coords))
                else:
                    g = LatticeElement.zero(dim)
                gens.append(g)
            p = polyhedral_gauge(gens)
            dropped += len(p.rays) < sum(not g.is_zero() for g in gens)
            S = GeneratedSet(gens, ("Sol", "Conv_b"))
            x = el(*(r.fraction(-2, 2, 4) for _ in range(dim)))
            assert p(x) == hulls.gauge(S, x), (gens, x)
            assert (p(x) <= 1) == hulls.member(S, x), (gens, x)
        assert dropped >= 100


class TestSeminormFamily:
    def test_separating(self):
        fam = SeminormFamily((weighted_l1([1, 1]), weighted_order_unit([2, 1])))
        assert fam.separating
        assert fam.separation_failures() == []

    def test_dead_coordinate(self):
        fam = SeminormFamily((weighted_l1([1, 0]),))
        assert not fam.separating
        assert fam.separation_failures() == [1]

    def test_family_validation(self):
        with pytest.raises(ValueError):
            SeminormFamily(())
        with pytest.raises(DimensionMismatch):
            SeminormFamily((weighted_l1([1]), weighted_l1([1, 1])))


class TestLatticeHom:
    def test_apply(self):
        h = hom([[2, 0], [0, 3], [1, 0]])
        assert h.apply(el(1, -1)) == el(2, -3, 1)
        assert h.source_dim == 2 and len(h.rows) == 3

    def test_preserves_lattice_ops(self):
        h = hom([["1/2", 0], [0, 1]])
        x, y = el(1, -2), el(-3, 4)
        assert h.apply(x.join(y)) == h.apply(x).join(h.apply(y))
        assert h.apply(x.meet(y)) == h.apply(x).meet(h.apply(y))

    def test_rejects_overlapping_row(self):
        with pytest.raises(ValueError):
            hom([[1, 1]])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            hom([[-1, 0]])

    def test_rejects_ragged_rows(self):
        # zip would drop the 1 past source_dim: (3,) would map to (3, 0)
        with pytest.raises(DimensionMismatch, match="hom row 1 has 2 entries, row 0 has 1"):
            hom([[1], [0, 1]])
        with pytest.raises(DimensionMismatch, match="hom row 2 has 1 entries"):
            hom([[1, 0], [0, 0], [1]])


class TestJson:
    def test_element_round_trip(self):
        x = el("1/3", -2, 0)
        assert LatticeElement.from_json(x.to_json()) == x

    def test_element_rejects_garbage(self):
        with pytest.raises(FormatError):
            LatticeElement.from_json(["1", "two"])
        with pytest.raises(FormatError):
            LatticeElement.from_json("not-a-list")

    def test_seminorm_round_trip(self):
        for data, p in (
            ({"kind": "weighted_l1", "weights": ["1", "1/2"]}, weighted_l1([1, "1/2"])),
            ({"kind": "weighted_order_unit", "weights": ["2", "1"]}, weighted_order_unit([2, 1])),
            ({"kind": "polyhedral_gauge", "generators": [["1", "0"], ["1", "1"]]},
             polyhedral_gauge([el(1, 0), el(1, 1)])),
        ):
            assert RieszSeminorm.from_json(data) == p

    def test_seminorm_rejects_unknown_kind(self):
        with pytest.raises(FormatError):
            RieszSeminorm.from_json({"kind": "spectral", "weights": ["1"]})

    def test_exponent_is_bounded(self):
        assert as_fraction(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
        assert as_fraction(f"-2.5E-{MAX_EXPONENT}") == Fraction(-25, 10 ** (MAX_EXPONENT + 1))
        for text in (f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}", "1e1_000_000",
                     "1e" + "9" * 10_000):
            with pytest.raises(FormatError):
                as_fraction(text, "x[0]")

    def test_fraction_str_beyond_int_str_limit(self):
        assert fraction_str(Fraction(10 ** 5000, 3)) == "1" + "0" * 5000 + "/3"
        assert fraction_str(Fraction(-(10 ** 9000) - 12345, 7)) == "-1" + "0" * 8995 + "12345/7"

    def test_round_trip_beyond_int_str_limit(self):
        for value in (Fraction(10 ** 5000 + 1, 3), Fraction(-(7 ** 9000), 11 ** 2000),
                      Fraction(10 ** (MAX_DIGITS - 1))):
            assert as_fraction(fraction_str(value)) == value
        assert as_fraction(" -" + "9" * 5000 + " ") == -(10 ** 5000 - 1)

    def test_decimal_forms_beyond_int_str_limit(self):
        assert as_fraction("0." + "1" * 5000) == Fraction((10 ** 5000 - 1) // 9, 10 ** 5000)
        mantissa = 10 ** 4999 + 5 * (10 ** 4999 - 1) // 9  # the digits 1555...5
        assert as_fraction("1." + "5" * 4999 + "e2") == Fraction(mantissa, 10 ** 4997)
        assert as_fraction("-" + "5" * 5000 + "E-2") == Fraction(-5 * (10 ** 5000 - 1) // 9, 100)
        assert as_fraction("1_" + "0" * 5000 + ".5") == Fraction(2 * 10 ** 5000 + 1, 2)

    def test_digit_bound_names_the_count(self):
        for text in ("1" * (MAX_DIGITS + 1), f"{10 ** 4000}/{'3' * (MAX_DIGITS - 4000)}",
                     "0." + "5" * MAX_DIGITS):
            with pytest.raises(FormatError, match=f"{MAX_DIGITS + 1} digits exceed"):
                as_fraction(text, "x[0]")

    def test_plain_forms_match_fraction(self):
        for text in ("0", "-0", "+3", " 12/8 ", "-6/4", "007", "1/3", "2.5", "1_000", "-1e3",
                     "+0/5", "-12/8", "\t+7/3\n", "  -0  ", " +1_2/3_0 "):
            assert as_fraction(text) == Fraction(text)
        for text in ("1/0", "-0/0", " +5/00 ", "-3/0\n"):
            with pytest.raises(FormatError, match="zero denominator"):
                as_fraction(text)
        digits = "9" * MAX_DIGITS
        assert as_fraction(digits) == 10 ** MAX_DIGITS - 1
        assert as_fraction(f" -{digits} ") == -(10 ** MAX_DIGITS - 1)
        assert as_fraction(f"+{digits}") == 10 ** MAX_DIGITS - 1
        for text in ("", "-", "1/", "/2", "1/-2", "1 / 2", "1//2", "--1"):
            with pytest.raises(FormatError, match="invalid rational"):
                as_fraction(text)
