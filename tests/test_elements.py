from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensorlattice.elements import (
    DimensionMismatch,
    LatticeElement,
    LatticeHom,
    RieszSeminorm,
    SeminormFamily,
    UnsupportedSeminormKind,
    disjointify,
    polyhedral_gauge,
    riesz_decompose,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice.hulls import INFINITE
from tensorlattice.jsonio import MAX_DIGITS, MAX_EXPONENT, FormatError, as_fraction, fraction_str


def el(*coords):
    return LatticeElement(tuple(Fraction(c) for c in coords))


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
        assert x == x.positive_part() - (-x).positive_part()
        assert abs(x) == x.positive_part() + (-x).positive_part()

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
        with pytest.raises(ValueError, match="zero seminorm"):
            weighted_l1([0, 0]).unit_ball()

    def test_rays_are_sparse_and_read_from_the_weights(self):
        one = Fraction(1)
        assert weighted_l1([2, 0]).rays() == [(2, ((0, one),)), (0, ((1, one),))]
        assert weighted_order_unit([2, 1]).rays() == [(one, ((0, 2), (1, 1)))]
        with pytest.raises(UnsupportedSeminormKind):
            polyhedral_gauge([el(1, 0)]).rays()


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
        h = LatticeHom.make([[2, 0], [0, 3], [1, 0]])
        assert h.apply(el(1, -1)) == el(2, -3, 1)
        assert h.source_dim == 2 and h.target_dim == 3

    def test_preserves_lattice_ops(self):
        h = LatticeHom.make([["1/2", 0], [0, 1]])
        x, y = el(1, -2), el(-3, 4)
        assert h.apply(x.join(y)) == h.apply(x).join(h.apply(y))
        assert h.apply(x.meet(y)) == h.apply(x).meet(h.apply(y))

    def test_rejects_overlapping_row(self):
        with pytest.raises(ValueError):
            LatticeHom.make([[1, 1]])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            LatticeHom.make([[-1, 0]])


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
        for p in (weighted_l1([1, "1/2"]), weighted_order_unit([2, 1]),
                  polyhedral_gauge([el(1, 0), el(1, 1)])):
            q = RieszSeminorm.from_json(p.to_json())
            assert q == p

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

    def test_digit_bound_names_the_count(self):
        for text in ("1" * (MAX_DIGITS + 1), f"{10 ** 4000}/{'3' * (MAX_DIGITS - 4000)}",
                     "0." + "5" * MAX_DIGITS):
            with pytest.raises(FormatError, match=f"{MAX_DIGITS + 1} digits exceed"):
                as_fraction(text, "x[0]")

    def test_plain_forms_match_fraction(self):
        for text in ("0", "-0", "+3", " 12/8 ", "-6/4", "007", "1/3", "2.5", "1_000", "-1e3"):
            assert as_fraction(text) == Fraction(text)
        for text in ("1/0", "-0/0"):
            with pytest.raises(FormatError, match="zero denominator"):
                as_fraction(text)
        for text in ("", "-", "1/", "/2", "1/-2", "1 / 2", "1//2", "--1"):
            with pytest.raises(FormatError, match="invalid rational"):
                as_fraction(text)
