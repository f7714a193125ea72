from collections import Counter
from fractions import Fraction

import pytest

import oracles
from oracles import corner_gauge, corner_member, sum_hull_member_lp
from tensorlattice import hulls, simplex
from tensorlattice.elements import LatticeElement, LatticeHom
from tensorlattice.hulls import (
    CONV,
    CONV_B,
    INFINITE,
    LAW_EXPECTATIONS,
    GeneratedSet,
    UnsupportedDecoration,
    common_generators,
    gauge,
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
    solid_union_member,
    sum_sets,
    union_sets,
)
from tensorlattice.jsonio import FormatError
from tensorlattice.rng import SplitStream
from tensorlattice.tensor import TensorElement


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


class TestBareHullOracle:
    """Bare Conv/Conv_b membership and two-block sums against the LinearProgram oracle."""

    @staticmethod
    def generators(r, dim):
        """Integer or rational generators, sometimes with a zero or a repeated one."""
        rational = r.randint(0, 1) == 1
        gens = [el(*[r.fraction(-3, 3) if rational else r.randint(-3, 3) for _ in range(dim)])
                for _ in range(r.randint(1, 3))]
        if r.randint(0, 2) == 0:
            gens.append(LatticeElement.zero(dim))
        if r.randint(0, 2) == 0:
            gens.append(r.choice(gens))
        return gens

    @staticmethod
    def point(r, gens, dim):
        """A vertex, a point of the face of two generators, a weighted point, or a stray."""
        kind = r.randint(0, 3)
        if kind == 0:
            return r.choice(gens)
        if kind == 1:
            a, b = r.choice(gens), r.choice(gens)
            w = r.fraction(0, 1)
            return a.scale(w) + b.scale(1 - w)
        if kind == 2:
            x = LatticeElement.zero(dim)
            for g, w in zip(gens, r.balanced_weights(len(gens), ceiling=Fraction(5, 4))):
                x = x + g.scale(w)
            return x
        return el(*[r.fraction(-3, 3) for _ in range(dim)])

    def test_bare_hulls_and_sums_agree(self):
        rng = SplitStream(16).split("bare-hull-oracle")
        verdicts = {True: 0, False: 0}
        for t in range(240):
            r = rng.split(t)
            dim = 1 + t % 6
            gens = self.generators(r.split("A"), dim)
            for deco in (CONV, CONV_B):
                x = self.point(r.split("x", deco), gens, dim)
                got = member(GeneratedSet(gens, (deco,)), x)
                assert got == sum_hull_member_lp((gens,), x, deco == CONV_B), (t, deco)
                verdicts[got] += 1
            others = self.generators(r.split("B"), dim)
            u = self.point(r.split("a"), gens, dim) + self.point(r.split("b"), others, dim)
            for balanced in (False, True):
                got = hulls._sum_hull_member((gens, others), u, balanced)
                assert got == sum_hull_member_lp((gens, others), u, balanced), (t, balanced)
                verdicts[got] += 1
        assert min(verdicts.values()) >= 150, verdicts

    def test_box_edges_against_the_oracle(self, monkeypatch):
        """The box of the sum rejects before phase 1, and accepts on a line.

        Each point lies on an edge of the sum of the generators' boxes, with
        its other coordinates inside the box: the sum of the generators that
        attain the edge (a member), or any point of the edge. In dimension 2
        and up both reach phase 1; on a line both are members without it.
        Pushed 1/8 past the edge, the point is rejected without phase 1.
        """
        calls = []
        monkeypatch.setattr(hulls, "feasible",
                            lambda rows, rhs: calls.append(1) or simplex.feasible(rows, rhs))
        rng = SplitStream(28).split("bare-hull-box")
        seen = Counter()
        for t in range(288):
            r = rng.split(t)
            dim, balanced = 1 + t % 6, t // 6 % 2 == 1
            blocks = tuple(self.generators(r.split("block", b), dim)
                           for b in range(1 + t // 12 % 2))
            columns = [[[g.coords[j] for g in gens] for gens in blocks] for j in range(dim)]
            if balanced:
                high = [sum(max(map(abs, c)) for c in column) for column in columns]
                low = [-h for h in high]
            else:
                low = [sum(min(c) for c in column) for column in columns]
                high = [sum(max(c) for c in column) for column in columns]
            i, top = r.randint(0, dim - 1), r.randint(0, 1) == 1
            vertex = LatticeElement.zero(dim)
            for gens in blocks:
                if balanced:
                    g = max(gens, key=lambda g: abs(g.coords[i]))
                    vertex = vertex + g.scale(1 if (g.coords[i] >= 0) == top else -1)
                else:
                    vertex = vertex + (max if top else min)(gens, key=lambda g: g.coords[i])
            edge = [high[j] if j == i and top else low[j] if j == i
                    else low[j] + (high[j] - low[j]) * r.fraction(0, 1) for j in range(dim)]
            outside = [c + Fraction(1 if top else -1, 8) if j == i else c
                       for j, c in enumerate(edge)]
            for kind, x in (("vertex", vertex), ("edge", el(*edge)), ("outside", el(*outside))):
                before = len(calls)
                got = hulls._sum_hull_member(blocks, x, balanced)
                assert got == sum_hull_member_lp(blocks, x, balanced), (t, kind)
                reached = len(calls) > before
                if kind == "outside":
                    assert not got and not reached, t
                elif dim == 1:
                    assert got and not reached, (t, kind)
                else:
                    assert reached, (t, kind)
                assert got or kind != "vertex", t
                seen[kind, "line" if dim == 1 else "space", len(blocks), balanced, got] += 1
        for balanced in (False, True):
            for count in (1, 2):
                assert seen["vertex", "space", count, balanced, True] >= 10, seen
                assert seen["edge", "space", count, balanced, False] >= 5, seen
                assert seen["edge", "line", count, balanced, True] >= 5, seen
                assert seen["outside", "space", count, balanced, False] >= 10, seen

    def test_signed_box_against_the_oracle(self):
        """Each block's box is the [min, max] of its signed columns (g, and -g
        for Conv_b), and the boxes of the blocks add up.

        One or two blocks, some with every coordinate negative, with zero and
        repeated generators. Each point is the sum of the signed columns that
        attain a coordinate's lowest or highest value (a member), a point of
        the sum of the hulls moved onto that edge, or either pushed 1/8 past
        it (rejected).
        """
        rng = SplitStream(29).split("signed-box")
        seen = Counter()
        for t in range(320):
            r = rng.split(t)
            dim, balanced, count = 1 + t % 4, t // 4 % 2 == 1, 1 + t // 8 % 2
            deco = (CONV_B,) if balanced else (CONV,)
            blocks, negative = [], t // 16 % 2 == 1
            for b in range(count):
                gens = self.generators(r.split("block", b), dim)
                if negative:
                    gens = [el(*[-1 - abs(c) for c in g.coords]) for g in gens]
                blocks.append(gens)
            i, top = r.randint(0, dim - 1), r.randint(0, 1) == 1
            pick = max if top else min
            vertex = LatticeElement.zero(dim)
            inside = LatticeElement.zero(dim)
            for b, gens in enumerate(blocks):
                columns = gens + [-g for g in gens] if balanced else gens
                vertex = vertex + pick(columns, key=lambda c: c.coords[i])
                inside = inside + sample_hull_point(r.split("point", b), GeneratedSet(gens, deco))
            edge = vertex.coords[i]
            on_edge = el(*[edge if j == i else c for j, c in enumerate(inside.coords)])
            step = el(*[Fraction(1 if top else -1, 8) if j == i else 0 for j in range(dim)])
            for kind, x in (("vertex", vertex), ("edge", on_edge),
                            ("past vertex", vertex + step), ("past edge", on_edge + step)):
                if count == 1:
                    got = member(GeneratedSet(blocks[0], deco), x)
                else:
                    got = hulls._sum_hull_member(blocks, x, balanced)
                assert got == sum_hull_member_lp(blocks, x, balanced), (t, kind)
                assert got == (kind == "vertex") or kind == "edge", (t, kind)
                seen[kind, count, balanced, negative, got] += 1
        for count in (1, 2):
            for balanced in (False, True):
                for negative in (False, True):
                    assert seen["vertex", count, balanced, negative, True] >= 15, seen
                    assert seen["past vertex", count, balanced, negative, False] >= 15, seen
                    assert seen["past edge", count, balanced, negative, False] >= 15, seen
                    assert seen["edge", count, balanced, negative, True] >= 3, seen


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

    def test_generators_given_as_a_list_or_a_tuple(self):
        A = GeneratedSet([el(2, 0)], ("Sol",))
        B = GeneratedSet((el(0, 2),), ("Sol",))
        A_tuple = GeneratedSet((el(2, 0),), ("Sol",))
        assert A == A_tuple and hash(A) == hash(A_tuple)
        assert union_sets(A, B) == union_sets(A_tuple, B)
        for z in (el(1, 0), el(0, 2), el(1, 1)):
            assert solid_union_member(A, B, z) == solid_union_member(A_tuple, B, z)


class TestSetAlgebraOracle:
    """`sum_sets`, `union_sets` and `common_generators` against the references of
    `oracles`, which key a generator by its numerators or its coordinates."""

    @staticmethod
    def generated_set(r, pool, shape):
        """Generators drawn from `pool` with repeats, some rebuilt from their
        coordinates, given as a list or as a tuple."""
        gens = []
        for _ in range(r.randint(1, 6)):
            g = r.choice(pool)
            if r.randint(0, 2) == 0:  # an equal element, built anew
                g = TensorElement(g.coords, shape) if shape else el(*g.coords)
            gens.append(g)
        return GeneratedSet(gens if r.randint(0, 1) else tuple(gens))

    def test_same_generators_in_the_same_order(self):
        rng = SplitStream(29).split("set-algebra")
        seen = Counter()
        for t in range(400):
            r = rng.split(t)
            shape = (1 + t % 2, 1 + t // 2 % 3) if t % 5 == 0 else None
            dim = shape[0] * shape[1] if shape else r.randint(1, 3)
            pool = []
            for _ in range(r.randint(1, 4)):
                coords = [r.fraction(-2, 2, 2) for _ in range(dim)]
                pool.append(TensorElement(coords, shape) if shape else el(*coords))
            A = self.generated_set(r.split("A"), pool, shape)
            B = self.generated_set(r.split("B"), pool, shape)
            got = (sum_sets(A, B).generators, union_sets(A, B).generators,
                   common_generators(A, B))
            want = (oracles.distinct(a + b for a in A.generators for b in B.generators),
                    oracles.distinct(A.generators + B.generators),
                    oracles.common_generators(A, B))
            assert got == want, t  # elements of another class are unequal
            seen["repeats"] += len(A.generators) > len(oracles.distinct(A.generators))
            seen["repeated common"] += len(got[2]) > len(set(got[2]))
            seen["no common"] += not got[2]
            seen["tensor"] += shape is not None
        assert min(seen.values()) >= 20, seen


def check_law(law, A, B=None, *, samples, seed, **operands):
    """The direction tallies of one law over `samples` draws on fixed operands.

    B defaults to A; law 6 takes `alpha` and law 11 takes `hom`.
    """
    inst = {"A": A, "B": A if B is None else B, **operands}
    rng = SplitStream(seed).split("hull-law", law)
    directions = {}
    for s in range(samples):
        for outcome in hulls._LAW_CHECKS[law](inst, rng.split(s)):
            hulls._tally(directions, *outcome)
    return directions


class TestHullLaws:
    def test_law5_split_fixture(self):
        A = GeneratedSet([el(2, 0)], ("Sol",))
        B = GeneratedSet([el(0, 2)], ("Sol",))
        directions = check_law(5, A, B, samples=50, seed=3)
        assert directions["printed"]["violations"] == 0

    def test_law6_scaling_equality(self):
        A = GeneratedSet([el(1, 2)], ("Sol",))
        directions = check_law(6, A, samples=100, seed=3, alpha=Fraction(-3))
        for d in directions.values():
            assert d["violations"] == 0

    def test_law2_absorb_direction_fails_on_fixture(self):
        # unit axes: (1,-1) lies in Conv_b(A)+Conv_b(B) but not Conv_b(A+B)
        A = GeneratedSet([el(1, 0)], ())
        B = GeneratedSet([el(0, 1)], ())
        directions = check_law(2, A, B, samples=40, seed=11)
        assert directions["sum-splits"]["violations"] == 0
        assert directions["sum-absorbs"]["violations"] > 0

    def test_law2_suite_carries_fixture_witness(self):
        rep = hull_law_suite(2, triples=6, seed=5)
        fixture = [w for w in rep["directions"]["sum-absorbs"]["witnesses"]
                   if w.get("fixture")]
        assert fixture and fixture[0]["point"] == ["1", "-1"]

    def test_law9_printed_fails_positive_cone_holds(self):
        A = GeneratedSet([el(2, 1)], ("Sol",))
        B = GeneratedSet([el(1, 3)], ("Sol",))
        directions = check_law(9, A, B, samples=60, seed=5)
        assert directions["positive-cone"]["violations"] == 0

    def test_law11_with_hom(self):
        A = GeneratedSet([el(1, -2)], ("Sol",))
        hom = LatticeHom((el(2, 0).coords, el(0, 1).coords, el(0, "1/2").coords))
        directions = check_law(11, A, samples=60, seed=7, hom=hom)
        assert directions["printed"]["violations"] == 0

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
        with pytest.raises(KeyError):
            hull_law_suite(12, triples=1, seed=0)


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


class TestObservedVerdicts:
    """The one rule that reads counters as holds/fails/vacuous, pinned at its edges."""

    def test_solid_closure_with_no_samples_is_never_vacuous(self):
        # no vacuous counts: nothing checked reads as holds, and the join/meet
        # fixtures alone make those two fail as expected
        rep = solid_closure_check(samples=0, seed=1)
        empty = {"checked": 0, "cone_violations": 0, "violations": 0, "witnesses": []}
        fixture = {**empty, "violations": 1, "witnesses": [{"index": "fixture"}]}
        assert rep["results"] == {"plus": empty, "union": empty, "intersect": empty,
                                  "join": fixture, "meet": fixture}
        assert rep["observed"] == {"plus": "holds", "union": "holds", "intersect": "holds",
                                   "join": "fails", "meet": "fails"}
        assert rep["ok"] is True

    def test_a_law_without_counters_is_vacuous(self):
        # law 5 has no fixtures, so with no triples its direction has no counter
        rep = hull_law_suite(5, triples=0, seed=1)
        assert rep["directions"] == {}
        assert rep["observed"] == {"printed": "vacuous"}
        assert rep["ok"] is False

    def test_solid_closure_fixture_witness_goes_past_the_cap(self):
        rep = solid_closure_check(samples=80, seed=42)
        assert rep["results"]["join"]["witnesses"] == [
            {"index": 1, "x": ["1/2", "2"], "y": ["-1/3", "-2"]},
            {"index": 2, "x": ["3", "0", "5/2", "4"], "y": ["9/4", "0", "-3/2", "10/3"]},
            {"index": 8, "x": ["4", "0", "7/2"], "y": ["-2", "0", "3"]},
            {"index": "fixture"},
        ]
        assert rep["results"]["meet"]["witnesses"] == [
            {"index": 2, "x": ["5/4", "-8/3", "-3", "1/3"], "y": ["1/3", "1", "-1", "0"]},
            {"index": 3, "x": ["-5/4", "0", "-1/2"], "y": ["1/4", "0", "0"]},
            {"index": 22, "x": ["-3", "1/4", "-1/2"], "y": ["8/3", "0", "1/2"]},
            {"index": "fixture"},
        ]
        assert (rep["results"]["join"]["violations"], rep["results"]["meet"]["violations"]) == (14, 5)


def test_sample_hull_point_lands_inside():
    rng = SplitStream(17).split("sample")
    for t in range(40):
        r = rng.split(t)
        S = random_bare_set(r.split("set"), dim=r.randint(1, 3))
        S = GeneratedSet(S.generators, ("Sol", "Conv_b"))
        x = sample_hull_point(r.split("pt"), S)
        assert member(S, x)


def test_generated_set_json_round_trip():
    S = GeneratedSet([el(1, -2), el("1/3", 0)], ("Sol", "Conv_b"))
    T = GeneratedSet.from_json({"generators": [["1", "-2"], ["1/3", "0"]],
                                "decoration": ["Sol", "Conv_b"]})
    assert list(T.generators) == list(S.generators)
    assert tuple(T.decoration) == tuple(S.decoration)


def test_generated_set_json_rejects_bad_decoration():
    with pytest.raises((FormatError, UnsupportedDecoration)):
        GeneratedSet.from_json({"generators": [["1"]], "decoration": ["Frob"]})
