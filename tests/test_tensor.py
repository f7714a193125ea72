import operator
from fractions import Fraction

import pytest

from tensorlattice import elements, hulls
from tensorlattice.elements import (
    DimensionMismatch,
    LatticeElement,
    polyhedral_gauge,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice.hulls import GeneratedSet
from tensorlattice.jsonio import FormatError
from tensorlattice.projective import DualCertificate
from tensorlattice.rng import SplitStream
from tensorlattice.simplex import cover
from tensorlattice.tensor import (
    Membership,
    TensorElement,
    TensorNbhd,
    _shrink_into,
    base_axiom_check,
    dominating_rank_one,
    matrix_unit,
    nbhd_member,
    nbhd_solidity_check,
    rank_one,
    rank_one_sup_recover,
    sample_nbhd_point,
    sup_of_rank_ones,
    verify_nbhd_witness,
)


def el(*coords):
    return LatticeElement(tuple(Fraction(c) for c in coords))


def unit_l1_ball(dim):
    gens = [LatticeElement.unit(dim, i) for i in range(dim)]
    return GeneratedSet(gens, ("Sol", "Conv_b"))


def unit_l1_nbhd():
    p = weighted_l1([1, 1])
    q = weighted_l1([1, 1])
    return TensorNbhd(unit_l1_ball(2), unit_l1_ball(2), p, q)


class TestTensorElement:
    def test_entrywise_lattice(self):
        u = TensorElement.make([[1, -2], [0, 3]])
        v = TensorElement.make([[0, 1], [2, -1]])
        assert u.join(v) == TensorElement.make([[1, 1], [2, 3]])
        assert u.meet(v) == TensorElement.make([[0, -2], [0, -1]])
        assert abs(u) == TensorElement.make([[1, 2], [0, 3]])
        assert u + v == TensorElement.make([[1, -1], [2, 2]])
        assert u.scale(Fraction(-1, 2)) == TensorElement.make(
            [["-1/2", 1], [0, "-3/2"]])

    def test_le_and_nonnegative(self):
        u = TensorElement.make([[1, 0], [0, 1]])
        assert TensorElement.zero(2, 2).le(u)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TensorElement.make([[1]]).join(TensorElement.make([[1, 2]]))

    def test_transposed_shape_mismatch(self):
        # 2x3 and 3x2 have six coordinates each; only the shape tells them apart
        u = TensorElement.make([[1, 2, 3], [4, 5, 6]])
        v = TensorElement.make([[1, 2], [3, 4], [5, 6]])
        assert u.dim == v.dim
        for op in (u.join, u.__add__, u.le, DualCertificate(abs(u)).value):
            with pytest.raises(DimensionMismatch):
                op(v)

    def test_a_flat_element_is_a_dimension_mismatch_in_either_order(self):
        # the same coordinates, but a tensor never mixes with a flat element
        u, x = TensorElement.make([[1, 2]]), LatticeElement.make([1, 2])
        for op in (operator.add, operator.sub, LatticeElement.join, LatticeElement.meet,
                   LatticeElement.le):
            for left, right in ((u, x), (x, u)):
                with pytest.raises(DimensionMismatch, match=r"\(1, 2\) vs \(2,\)"):
                    op(left, right)

    def test_lattice_operations_are_inherited(self):
        assert issubclass(TensorElement, LatticeElement)
        ops = {"join", "meet", "__abs__", "__add__", "__sub__", "__neg__", "scale", "le", "is_zero"}
        assert not ops & set(vars(TensorElement))
        u = TensorElement.make([[1, -2], [3, 0]])
        assert (-u).shape == abs(u).shape == u.scale(2).shape == (2, 2)
        assert LatticeElement(u.coords) == LatticeElement.make([1, -2, 3, 0])
        assert u.entries == ((1, -2), (3, 0))

    def test_make_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            TensorElement.make([[1, 2], [3]])

    def test_flatten_round_trip(self):
        u = TensorElement.make([[1, -2], [3, 4]])
        flat = LatticeElement(u.coords)
        assert flat == LatticeElement.make([1, -2, 3, 4])
        assert TensorElement(flat.coords, u.shape) == u

    def test_json_round_trip(self):
        u = TensorElement.make([["1/3", -2], [0, 5]])
        assert TensorElement.from_json(u.to_json()) == u

    def test_json_rejects_ragged(self):
        with pytest.raises(FormatError):
            TensorElement.from_json([["1", "2"], ["3"]])
        with pytest.raises(FormatError, match=r"u\.entries\[1\]'.* 2 .* got 1"):
            TensorElement.from_json({"entries": [["1", "2"], ["3"]]}, "u")


class TestRankOne:
    def test_outer_product_fixture(self):
        u = rank_one(el(1, 2), el(3, 1))
        assert u == TensorElement.make([[3, 1], [6, 2]])

    def test_zero_slot(self):
        assert rank_one(el(1, 2), el(0, 0)).is_zero()

    def test_bilinear(self):
        x, x2, y = el(1, -1), el(2, 0), el(3, 1)
        assert rank_one(x + x2, y) == rank_one(x, y) + rank_one(x2, y)
        assert rank_one(x.scale(Fraction(5)), y) == rank_one(x, y).scale(Fraction(5))

    def test_abs_factors_through_slots(self):
        rng = SplitStream(41).split("rank-one")
        for t in range(50):
            r = rng.split(t)
            n, m = r.randint(1, 4), r.randint(1, 4)
            x = el(*[r.fraction(-3, 3) for _ in range(n)])
            y = el(*[r.fraction(-3, 3) for _ in range(m)])
            assert abs(rank_one(x, y)) == rank_one(abs(x), abs(y))

    def test_matrix_unit_is_rank_one(self):
        assert matrix_unit(2, 3, 1, 2, 5) == rank_one(
            el(0, 5), el(0, 0, 1))


class TestDominatingRankOne:
    def test_fixture(self):
        a, b = dominating_rank_one(TensorElement.make([[1, 2], [3, 0]]))
        assert a == el(2, 3)
        assert b == el(1, 1)
        assert TensorElement.make([[1, 2], [3, 0]]).le(rank_one(a, b))

    def test_zero(self):
        a, b = dominating_rank_one(TensorElement.zero(2, 2))
        assert a == el(0, 0)
        assert b == el(1, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dominating_rank_one(TensorElement.make([[1, -1]]))

    def test_random_domination(self):
        rng = SplitStream(43).split("dom")
        for t in range(40):
            r = rng.split(t)
            n, m = r.randint(1, 4), r.randint(1, 4)
            u = TensorElement.make(
                [[r.fraction(0, 4) for _ in range(m)] for _ in range(n)])
            a, b = dominating_rank_one(u)
            assert u.le(rank_one(a, b))


class TestSupRecovery:
    def test_fixture(self):
        c = TensorElement.make([[1, 0], [0, 2]])
        family = rank_one_sup_recover(c)
        assert sup_of_rank_ones(family, c.shape) == c
        for a, b in family:
            assert rank_one(a, b).le(c)

    def test_zero_gives_empty_family(self):
        family = rank_one_sup_recover(TensorElement.zero(2, 2))
        assert family == []
        assert sup_of_rank_ones(family, (2, 2)).is_zero()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rank_one_sup_recover(TensorElement.make([[-1]]))

    def test_random_exact_recovery(self):
        rng = SplitStream(47).split("sup")
        for t in range(40):
            r = rng.split(t)
            n, m = r.randint(1, 4), r.randint(1, 4)
            c = TensorElement.make(
                [[r.fraction(0, 3) for _ in range(m)] for _ in range(n)])
            family = rank_one_sup_recover(c)
            assert sup_of_rank_ones(family, (n, m)) == c


class TestNbhdMembership:
    def test_zero_is_member(self):
        W = unit_l1_nbhd()
        assert nbhd_member(W, TensorElement.zero(2, 2)) is Membership.MEMBER

    def test_small_rank_one_is_member(self):
        W = unit_l1_nbhd()
        u = rank_one(el("1/2", 0), el(1, 0))  # p(x) q(y) = 1/2
        assert nbhd_member(W, u) is Membership.MEMBER

    def test_large_l1_mass_is_non_member(self):
        W = unit_l1_nbhd()
        u = TensorElement.make([[1, 0], [0, 1]])  # l1 x l1 value 2
        assert nbhd_member(W, u) is Membership.NON_MEMBER

    def test_radius_scales_the_answer(self):
        W = unit_l1_nbhd()
        u = TensorElement.make([[1, 0], [0, 1]])
        assert nbhd_member(W, u, radius=2) is Membership.MEMBER
        assert nbhd_member(W, u, radius=Fraction(3, 2)) is Membership.NON_MEMBER

    def test_shape_mismatch(self):
        W = unit_l1_nbhd()
        with pytest.raises(DimensionMismatch):
            nbhd_member(W, TensorElement.make([[1, 0, 0]]))

    def test_factor_dims_must_match_their_seminorms(self):
        ball3, p = unit_l1_ball(3), weighted_l1([1, 1])
        with pytest.raises(DimensionMismatch, match="left factor has dim 3"):
            TensorNbhd(ball3, unit_l1_ball(2), p, p)
        with pytest.raises(DimensionMismatch, match="right factor has dim 3"):
            TensorNbhd(unit_l1_ball(2), ball3, p, p)


def test_sample_box_point_keeps_the_tensor_shape():
    rng = SplitStream(53).split("box")
    bound = TensorElement.make([[2, 1], [0, -3], [1, 0]])
    for t in range(40):
        u = hulls.sample_box_point(rng.split(t), bound)
        assert isinstance(u, TensorElement) and u.shape == bound.shape
        assert abs(u).le(abs(bound))


def test_sample_nbhd_point_certified_member():
    W = unit_l1_nbhd()
    rng = SplitStream(59).split("pt")
    for t in range(15):
        u, witness = sample_nbhd_point(W.left, W.right, rng.split(t))
        assert verify_nbhd_witness(W, u, witness)
        assert nbhd_member(W, u) is Membership.MEMBER


class TestSeminormFactors:
    """A seminorm-backed neighborhood checks witness factors by p(x) <= 1."""

    def test_zero_weight_direction_agrees_with_certificates(self):
        # p vanishes on e_2, so (0, 5) lies in {p <= 1}, though p's unit
        # ball, Sol Conv_b({e_1}), has no extent along e_2
        W = TensorNbhd.from_seminorms(weighted_l1([1, 0]), weighted_l1([1, 1]))
        x, y = el(0, 5), el(1, 0)
        z = rank_one(x, y)
        witness = [(Fraction(1), z, x, y)]
        assert verify_nbhd_witness(W, z, witness)
        assert nbhd_member(W, z) is Membership.MEMBER
        generated = TensorNbhd.from_seminorms(polyhedral_gauge(W.left.generators),
                                              polyhedral_gauge(W.right.generators))
        assert not verify_nbhd_witness(generated, z, witness)

    def test_weighted_factors_solve_no_lp(self, monkeypatch):
        def no_cover(*args):
            raise AssertionError("witness check solved a covering LP")

        W = TensorNbhd.from_seminorms(weighted_l1([1, 2]), weighted_order_unit([1, 1]))
        rng = SplitStream(67).split("no-lp")
        points = [sample_nbhd_point(W.left, W.right, rng.split(t)) for t in range(20)]
        monkeypatch.setattr(elements, "cover", no_cover)
        for u, witness in points:
            assert verify_nbhd_witness(W, u, witness)

    def test_overlapping_factor_solves_one_cover(self, monkeypatch):
        # (3/2, 3/2) is the midpoint of (2, 1) and (1, 2), so p = 1 there,
        # and it lies in neither generator box: the covering LP over the
        # rays of p decides it, and the l1 factor needs none
        p = polyhedral_gauge([el(2, 1), el(1, 2)])
        W = TensorNbhd.from_seminorms(p, weighted_l1([1, 1]))
        solved = []
        monkeypatch.setattr(elements, "cover", lambda *args: solved.append(args) or cover(*args))
        x, y = el("3/2", "3/2"), el(1, 0)
        assert p(x) == 1
        for scale, accepted in ((1, True), (Fraction(9, 8), False)):
            z = rank_one(x.scale(scale), y)
            solved.clear()
            assert verify_nbhd_witness(W, z, [(Fraction(1), z, x.scale(scale), y)]) is accepted
            assert len(solved) == 1


def test_verify_nbhd_witness_rejects_wrong_point():
    W = unit_l1_nbhd()
    rng = SplitStream(61).split("wrong")
    u, witness = sample_nbhd_point(W.left, W.right, rng)
    off = u + TensorElement.make([[5, 0], [0, 0]])
    assert not verify_nbhd_witness(W, off, witness)


def test_base_axiom_check_small_run():
    W1 = unit_l1_nbhd()
    q = weighted_order_unit([1, 1])
    ball = GeneratedSet([el(1, 1)], ("Sol", "Conv_b"))
    W2 = TensorNbhd(unit_l1_ball(2), ball, weighted_l1([1, 1]), q)
    rep = base_axiom_check(W1, W2, seed=5, samples=10)
    for axiom in ("additivity", "balance", "translation", "intersection"):
        assert rep["checks"][axiom]["violations"] == 0, axiom
        assert rep["checks"][axiom]["samples"] >= 10
    assert rep["ok"]


def test_base_axiom_intersection_keeps_a_free_direction():
    # W2's p vanishes on e_2, so W1's generator e_2 lies in {p <= 1} and is
    # kept as it is; the gauge of p's unit ball, which has no extent along
    # e_2, is INFINITE there
    W1 = unit_l1_nbhd()
    W2 = TensorNbhd.from_seminorms(weighted_l1([1, 0]), weighted_order_unit([1, 1]))
    e2 = el(0, 1)
    assert hulls.gauge(W2.left, e2) is elements.INFINITE
    assert _shrink_into(W1.left, W2.p).generators == (el(1, 0), e2)
    rep = base_axiom_check(W1, W2, seed=5, samples=10)
    assert rep["checks"]["intersection"]["violations"] == 0
    assert rep["ok"]


def test_nbhd_solidity_check_small_run():
    rep = nbhd_solidity_check(unit_l1_nbhd(), seed=7, samples=10)
    assert rep["violations"] == 0
    assert rep["ok"]
