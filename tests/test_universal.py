from fractions import Fraction

import pytest

from tensorlattice.elements import (
    LatticeElement,
    UnsupportedSeminormKind,
    polyhedral_gauge,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice.hulls import INFINITE
from tensorlattice.projective import seminorm_certify
from tensorlattice.rng import SplitStream
from tensorlattice.tensor import TensorElement, rank_one
from tensorlattice.universal import (
    BimorphismDefect,
    InducedHom,
    LatticeBimorphism,
    continuity_certificate,
    continuity_constant,
    hom_agreement_check,
    hom_property_report,
    induce_hom,
)


def el(*coords):
    return LatticeElement(tuple(Fraction(c) for c in coords))


CANON = LatticeBimorphism.canonical(2, 2)
L1_2 = weighted_l1([1, 1])
OU_2 = weighted_order_unit([1, 1])
L1_4 = weighted_l1([1, 1, 1, 1])


class TestBimorphism:
    def test_canonical_images_are_matrix_units(self):
        assert CANON.source_shape == (2, 2)
        assert CANON.target_dim == 4
        assert CANON.images[0][0] == el(1, 0, 0, 0)
        assert CANON.images[1][1] == el(0, 0, 0, 1)

    def test_evaluation_is_bilinear_grid_sum(self):
        x, y = el(2, -1), el(1, 3)
        # canonical grid flattens the outer product row-major
        assert CANON(x, y) == el(2, 6, -1, -3)

    def test_make_rejects_overlapping_images(self):
        with pytest.raises(BimorphismDefect):
            LatticeBimorphism.make([[el(1), el(1)]])

    def test_make_rejects_negative_image(self):
        with pytest.raises(BimorphismDefect):
            LatticeBimorphism.make([[el(-1), el(0)]])

    def test_unchecked_defers_validation(self):
        broken = LatticeBimorphism.unchecked([[el(1), el(1)]])
        assert not broken.verified
        with pytest.raises(BimorphismDefect):
            induce_hom(broken)

    def test_json_round_trip(self):
        back = LatticeBimorphism.from_json(CANON.to_json())
        assert back.images == CANON.images
        assert back.target_dim == CANON.target_dim


class TestInducedHom:
    def test_factorization_identity(self):
        T = induce_hom(CANON)
        rng = SplitStream(67).split("factor")
        for t in range(60):
            r = rng.split(t)
            x = el(r.fraction(-3, 3), r.fraction(-3, 3))
            y = el(r.fraction(-3, 3), r.fraction(-3, 3))
            assert T.apply(rank_one(x, y)) == CANON(x, y)

    def test_additivity(self):
        T = induce_hom(CANON)
        u = TensorElement.make([[1, -2], [0, 3]])
        v = TensorElement.make([[2, 2], [-1, 0]])
        assert T.apply(u + v) == T.apply(u) + T.apply(v)

    def test_preserves_join_for_disjoint_grid(self):
        T = induce_hom(CANON)
        u = TensorElement.make([[1, -2], [0, 3]])
        v = TensorElement.make([[2, 2], [-1, 0]])
        assert T.apply(u.join(v)) == T.apply(u).join(T.apply(v))
        assert T.apply(abs(u)) == abs(T.apply(u))


class TestHomPropertyReport:
    def test_clean_grid_passes_everything(self):
        rep = hom_property_report(CANON, samples=40, seed=5)
        assert rep["ok"]
        assert rep["verified_premises"]
        for name, chk in rep["checks"].items():
            assert chk["violations"] == 0, name

    def test_overlapping_grid_breaks_lattice_not_linearity(self):
        # both images on the same coordinate: linear identities survive,
        # join and absolute value do not
        broken = LatticeBimorphism.unchecked([[el(1), el(1)]])
        rep = hom_property_report(broken, samples=40, seed=5)
        assert not rep["ok"]
        assert rep["checks"]["factorization"]["violations"] == 0
        assert rep["checks"]["additivity"]["violations"] == 0
        assert rep["checks"]["join"]["violations"] > 0
        assert rep["checks"]["absolute_value"]["violations"] > 0

    def test_agreement_iff_identical_images(self):
        rep = hom_agreement_check(CANON, LatticeBimorphism.canonical(2, 2),
                                  samples=20, seed=7)
        assert rep["ok"] and rep["disagreements"] == 0
        other = LatticeBimorphism.make(
            [[el(2, 0, 0, 0), el(0, 1, 0, 0)],
             [el(0, 0, 1, 0), el(0, 0, 0, 1)]])
        rep2 = hom_agreement_check(CANON, other, samples=20, seed=7)
        assert rep2["ok"]  # ok: the disagreement was found, as images differ
        assert rep2["disagreements"] > 0
        assert rep2["witness"] is not None


class TestContinuityConstant:
    def test_l1_l1_constant(self):
        C, direction = continuity_constant(CANON, L1_2, L1_2, L1_4)
        assert C == 1
        assert direction == TensorElement.make([[1, 0], [0, 0]])

    def test_ou_ou_constant(self):
        C, direction = continuity_constant(CANON, OU_2, OU_2, L1_4)
        assert C == 4
        assert direction == TensorElement.make([[1, 1], [1, 1]])

    def test_mixed_constants(self):
        C_lo, _ = continuity_constant(CANON, L1_2, OU_2, L1_4)
        C_ol, _ = continuity_constant(CANON, OU_2, L1_2, L1_4)
        assert C_lo == 2 and C_ol == 2

    def test_constant_is_attained(self):
        for p, q in ((L1_2, L1_2), (OU_2, OU_2), (L1_2, OU_2), (OU_2, L1_2)):
            C, direction = continuity_constant(CANON, p, q, L1_4)
            cert = seminorm_certify(p, q, direction)
            assert cert.gap == 0
            T = induce_hom(CANON)
            assert L1_4(T.apply(direction)) == C * cert.upper

    def test_scaling_the_images_scales_the_constant(self):
        tripled = LatticeBimorphism.make(
            [[g.scale(Fraction(3)) for g in row] for row in CANON.images])
        base, _ = continuity_constant(CANON, L1_2, L1_2, L1_4)
        big, _ = continuity_constant(tripled, L1_2, L1_2, L1_4)
        assert big == 3 * base

    def test_zero_images_give_zero_constant(self):
        zero = LatticeBimorphism.make([[el(0, 0), el(0, 0)],
                                       [el(0, 0), el(0, 0)]])
        C, _ = continuity_constant(zero, L1_2, L1_2, weighted_l1([1, 1]))
        assert C == 0

    def test_dead_weight_makes_it_infinite(self):
        # p kills the first source coordinate but its images are visible
        p_dead = weighted_l1([0, 1])
        C, direction = continuity_constant(CANON, p_dead, L1_2, L1_4)
        assert C is INFINITE
        cert = seminorm_certify(p_dead, L1_2, direction)
        assert cert.upper == 0
        T = induce_hom(CANON)
        assert L1_4(T.apply(direction)) > 0

    def test_polyhedral_factor_is_unsupported(self):
        poly = polyhedral_gauge([el(1, 0), el(0, 1)])
        with pytest.raises(UnsupportedSeminormKind):
            continuity_constant(CANON, poly, L1_2, L1_4)
        with pytest.raises(UnsupportedSeminormKind):
            continuity_constant(CANON, L1_2, poly, L1_4)

    def test_polyhedral_target_off_span_is_infinite(self):
        r = polyhedral_gauge([LatticeElement.unit(4, 0)])
        C, _ = continuity_constant(CANON, L1_2, L1_2, r)
        assert C is INFINITE


class TestContinuityCertificate:
    def test_finite_certificate(self):
        rep = continuity_certificate(CANON, L1_2, L1_2, L1_4, samples=15, seed=5)
        assert rep["ok"]
        assert rep["constant"] == "1"
        assert rep["violations"] == 0
        assert rep["tightness"]["attains"]
        assert rep["hull_continuity"]["violations"] == 0

    def test_infinite_certificate(self):
        rep = continuity_certificate(CANON, weighted_l1([0, 1]), L1_2, L1_4,
                                     samples=10, seed=5)
        assert rep["ok"]
        assert rep["constant"] == "INFINITE"
        assert rep["unbounded_direction"]["projective_upper"] == "0"
        assert Fraction(rep["unbounded_direction"]["image_seminorm"]) > 0
