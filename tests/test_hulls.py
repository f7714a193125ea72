from fractions import Fraction

import pytest

from oracles import corner_gauge, corner_member
from tensorlattice import hulls
from tensorlattice.elements import LatticeElement, LatticeHom
from tensorlattice.hulls import (
    INFINITE,
    LAW_EXPECTATIONS,
    GeneratedSet,
    UnsupportedDecoration,
    gauge,
    hull_law_check,
    hull_law_suite,
    member,
    random_bare_set,
    sample_box_point,
    sample_hull_point,
    scale_set,
    solid_closure_check,
    solid_join_member,
    solid_meet_member,
    solid_sum_member,
    sum_sets,
)
from tensorlattice.jsonio import FormatError
from tensorlattice.rng import SplitStream


def el(*coords):
    return LatticeElement(tuple(Fraction(c) for c in coords))


E1, E2 = el(1, 0), el(0, 1)
DIAMOND = GeneratedSet([E1, E2], ("Sol", "Conv_b"))


class TestMembership:
    def test_solid_scan_fixture(self):
        S = GeneratedSet([el(1, -2)], ("Sol",))
        assert member(S, el(0, 2))
        assert not member(S, el(2, 0))

    def test_diamond_fixture(self):
        assert member(DIAMOND, el("1/2", "1/2"))
        assert not member(DIAMOND, el(1, 1))

    def test_member_matches_gauge_threshold(self):
        for x in (el("1/2", "1/2"), el(1, 0), el(1, 1), el("3/4", "1/2")):
            assert member(DIAMOND, x) == (gauge(DIAMOND, x) <= 1)

    def test_dimension_mismatch(self):
        from tensorlattice.elements import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            member(DIAMOND, el(1))

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            GeneratedSet([], ("Sol",))

    def test_unknown_decoration_rejected(self):
        with pytest.raises(UnsupportedDecoration):
            GeneratedSet([E1], ("Star",))


class TestGauge:
    def test_diamond_gauge_fixture(self):
        assert gauge(DIAMOND, el(1, 1)) == 2

    def test_zero_has_gauge_zero(self):
        assert gauge(DIAMOND, el(0, 0)) == 0

    def test_off_span_is_infinite(self):
        S = GeneratedSet([el(1, 0)], ("Sol", "Conv_b"))
        assert gauge(S, el(0, 1)) is INFINITE
        assert Fraction(10 ** 9) < INFINITE

    def test_gauge_requires_convex_decoration(self):
        bare = GeneratedSet([E1, E2], ("Sol",))
        with pytest.raises(UnsupportedDecoration):
            gauge(bare, el(1, 1))

    def test_homogeneity_and_symmetry(self):
        rng = SplitStream(31).split("gauge")
        for t in range(30):
            r = rng.split(t)
            S = random_bare_set(r.split("set"), dim=2)
            S = GeneratedSet(S.generators, ("Sol", "Conv_b"))
            x = el(r.fraction(-3, 3), r.fraction(-3, 3))
            g = gauge(S, x)
            if g is INFINITE:
                assert gauge(S, x.scale(Fraction(2))) is INFINITE
                continue
            assert gauge(S, x.scale(Fraction(2))) == 2 * g
            assert gauge(S, -x) == g

    def test_subadditivity(self):
        rng = SplitStream(37).split("gauge-sub")
        for t in range(30):
            r = rng.split(t)
            x = el(r.fraction(-2, 2), r.fraction(-2, 2))
            y = el(r.fraction(-2, 2), r.fraction(-2, 2))
            gx, gy, gs = gauge(DIAMOND, x), gauge(DIAMOND, y), gauge(DIAMOND, x + y)
            assert gs <= gx + gy


class TestCornerOracle:
    """Cross-check the LP membership/gauge against corner enumeration."""

    def test_fixtures(self):
        assert corner_member([E1, E2], el("1/2", "1/2"))
        assert not corner_member([E1, E2], el(1, 1))
        assert corner_gauge([E1, E2], el(1, 1)) == 2

    def test_random_agreement(self):
        rng = SplitStream(7).split("oracle-check")
        agreements = 0
        for t in range(120):
            r = rng.split(t)
            dim = r.randint(1, 3)
            gens = [el(*[r.fraction(-3, 3) for _ in range(dim)])
                    for _ in range(r.randint(1, 3))]
            if all(g.is_zero() for g in gens):
                continue
            S = GeneratedSet(gens, ("Sol", "Conv_b"))
            x = el(*[r.fraction(-2, 2) for _ in range(dim)])
            expected = corner_gauge(gens, x)
            got = gauge(S, x)
            if expected is None:
                assert got is INFINITE
            else:
                assert got == expected
                assert member(S, x) == corner_member(gens, x)
            agreements += 1
        assert agreements >= 100


class TestBoxScan:
    """Convex-solid membership decides points of a single box without an LP."""

    def test_both_convex_solid_decorations_agree_with_corner_oracle(self):
        rng = SplitStream(11).split("box-scan")
        kinds = {"one box": 0, "hull only": 0, "outside": 0}
        for t in range(90):
            r = rng.split(t)
            dim = r.randint(2, 3)
            gens = [el(*[r.fraction(-3, 3) for _ in range(dim)])
                    for _ in range(r.randint(2, 3))]
            if t % 3 == 0:
                x = sample_box_point(r, r.choice(gens))
            else:
                # Same-sign corners of two boxes: their midpoint is in the hull
                # and their join may not be; neither lies in one box unless
                # one box contains the other.
                a, b = abs(gens[0]), abs(gens[1])
                corner = (a + b).scale(Fraction(1, 2)) if t % 3 == 1 else a.join(b)
                x = el(*[r.sign() * c for c in corner.coords])
            expected = corner_member(gens, x)
            if any(abs(x).le(abs(g)) for g in gens):
                kinds["one box"] += 1
            else:
                kinds["hull only" if expected else "outside"] += 1
            for deco in (("Sol", "Conv"), ("Sol", "Conv_b")):
                assert member(GeneratedSet(gens, deco), x) == expected
        assert min(kinds.values()) >= 10, kinds

    def test_point_in_one_box_needs_no_lp(self, monkeypatch):
        class NoLP:
            def __init__(self):
                raise AssertionError("membership built an LP")

        monkeypatch.setattr(hulls, "LinearProgram", NoLP)
        gens = [el(2, -1), el("1/2", 3)]
        for deco in (("Sol", "Conv"), ("Sol", "Conv_b")):
            S = GeneratedSet(gens, deco)
            assert member(S, el(-2, 1))
            assert member(S, el("1/4", "-5/2"))
            with pytest.raises(AssertionError):
                member(S, el("5/4", 2))  # in the hull but in neither box


class TestSetAlgebra:
    def test_sum_generators(self):
        A = GeneratedSet([el(2, 0)], ("Sol",))
        B = GeneratedSet([el(0, 2)], ("Sol",))
        C = sum_sets(A, B)
        assert el(2, 2) in [g for g in C.generators]

    def test_scale_matches_scaled_generators(self):
        A = GeneratedSet([el(1, -2)], ("Sol",))
        S = scale_set(A, Fraction(2))
        for x in (el(2, 0), el(0, 4), el(-2, 4), el(3, 0)):
            assert member(S, x) == member(GeneratedSet([el(2, -4)], ("Sol",)), x)

    def test_sum_membership_splits(self):
        # a point dominated by |a + b| splits through the solid summands
        A = GeneratedSet([el(2, 0)], ("Sol",))
        B = GeneratedSet([el(0, 2)], ("Sol",))
        assert solid_sum_member(A, B, el(1, 1))
        assert not solid_sum_member(A, B, el(3, 0))

    def test_join_meet_probes(self):
        A = GeneratedSet([el(2, 1)], ("Sol",))
        B = GeneratedSet([el(1, 3)], ("Sol",))
        assert solid_join_member(A, B, el(2, 3))
        assert solid_meet_member(A, B, el(1, 1))
        assert not solid_meet_member(A, B, el(2, 0))


class TestHullLaws:
    def test_law5_split_fixture(self):
        A = GeneratedSet([el(2, 0)], ("Sol",))
        B = GeneratedSet([el(0, 2)], ("Sol",))
        rep = hull_law_check(5, A, B, samples=50, seed=3)
        assert rep["directions"]["printed"]["violations"] == 0

    def test_law6_scaling_equality(self):
        A = GeneratedSet([el(1, 2)], ("Sol",))
        rep = hull_law_check(6, A, None, samples=100, seed=3, alpha=Fraction(-3))
        for d in rep["directions"].values():
            assert d["violations"] == 0

    def test_law2_absorb_direction_fails_on_fixture(self):
        # unit axes: (1,-1) lies in Conv_b(A)+Conv_b(B) but not Conv_b(A+B)
        A = GeneratedSet([el(1, 0)], ())
        B = GeneratedSet([el(0, 1)], ())
        rep = hull_law_check(2, A, B, samples=40, seed=11)
        assert rep["directions"]["sum-splits"]["violations"] == 0
        assert rep["directions"]["sum-absorbs"]["violations"] > 0

    def test_law2_suite_carries_fixture_witness(self):
        rep = hull_law_suite(2, triples=6, seed=5)
        fixture = [w for w in rep["directions"]["sum-absorbs"]["witnesses"]
                   if w.get("fixture")]
        assert fixture and fixture[0]["point"] == ["1", "-1"]

    def test_law9_printed_fails_positive_cone_holds(self):
        A = GeneratedSet([el(2, 1)], ("Sol",))
        B = GeneratedSet([el(1, 3)], ("Sol",))
        rep = hull_law_check(9, A, B, samples=60, seed=5)
        assert rep["directions"]["positive-cone"]["violations"] == 0

    def test_law11_with_hom(self):
        A = GeneratedSet([el(1, -2)], ("Sol",))
        hom = LatticeHom.make([[2, 0], [0, 1], [0, "1/2"]])
        rep = hull_law_check(11, A, None, samples=60, seed=7, hom=hom)
        assert rep["directions"]["printed"]["violations"] == 0

    def test_suite_observed_matches_expectations(self):
        for law in (1, 2, 5, 9):
            rep = hull_law_suite(law, triples=12, seed=21)
            assert rep["expected"] == LAW_EXPECTATIONS[law]
            assert rep["observed"] == rep["expected"]
            assert rep["ok"]

    def test_suite_deterministic(self):
        a = hull_law_suite(4, triples=8, seed=13)
        b = hull_law_suite(4, triples=8, seed=13)
        assert a == b

    def test_invalid_law_number(self):
        with pytest.raises(ValueError):
            hull_law_check(12, DIAMOND, None, samples=1, seed=0)


def test_solid_closure_check():
    rep = solid_closure_check(samples=60, seed=9)
    assert rep["ok"]
    assert rep["observed"] == rep["expected"]
    # sums, unions, intersections of solid sets stay solid outright
    for op in ("plus", "union", "intersect"):
        assert rep["results"][op]["violations"] == 0
    # join/meet only stay solid on the positive cone
    assert rep["results"]["join"]["violations"] > 0
    assert rep["results"]["join"]["cone_violations"] == 0
    assert rep["results"]["meet"]["cone_violations"] == 0


def test_sample_hull_point_lands_inside():
    rng = SplitStream(17).split("sample")
    for t in range(40):
        r = rng.split(t)
        S = random_bare_set(r.split("set"), dim=r.randint(1, 3))
        S = GeneratedSet(S.generators, ("Sol", "Conv_b"))
        x = sample_hull_point(r.split("pt"), S)
        assert member(S, x)


def test_sample_hull_point_witness_verifies():
    rng = SplitStream(23).split("witness")
    S = DIAMOND
    x, witness = sample_hull_point(rng, S, with_witness=True)
    assert member(S, x)
    # witness pairs (lam_k, y_k) align with the generators: each y_k lives in
    # the box of |g_k| and x = sum lam_k * y_k with sum lam_k <= 1
    assert len(witness) == len(S.generators)
    total = LatticeElement.zero(2)
    budget = Fraction(0)
    for (lam, y), g in zip(witness, S.generators):
        assert lam >= 0
        assert abs(y).le(abs(g))
        total = total + y.scale(lam)
        budget += lam
    assert total == x
    assert budget <= 1


def test_generated_set_json_round_trip():
    S = GeneratedSet([el(1, -2), el("1/3", 0)], ("Sol", "Conv_b"))
    T = GeneratedSet.from_json(S.to_json())
    assert list(T.generators) == list(S.generators)
    assert tuple(T.decoration) == tuple(S.decoration)


def test_generated_set_json_rejects_bad_decoration():
    with pytest.raises((FormatError, UnsupportedDecoration)):
        GeneratedSet.from_json({"generators": [["1"]], "decoration": ["Frob"]})
