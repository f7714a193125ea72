import random
from fractions import Fraction

import pytest

import oracles
from tensorlattice.elements import (
    DimensionMismatch,
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
    LatticeBimorphism,
    continuity_certificate,
    continuity_constant,
    hom_agreement_check,
    hom_property_report,
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
        with pytest.raises(BimorphismDefect, match=r"^images \(0,0\) and \(0,1\) are not disjoint$"):
            LatticeBimorphism.make([[el(1), el(1)]])
        # the first image that used the shared coordinate is named
        with pytest.raises(BimorphismDefect, match=r"^images \(0,1\) and \(1,0\) are not disjoint$"):
            LatticeBimorphism.make([[el(1, 0, 0), el(0, 0, 2)],
                                    [el(0, 0, 1), el(0, 1, 0)]])

    def test_make_rejects_negative_image(self):
        with pytest.raises(BimorphismDefect, match=r"^image \(0,0\) has negative coordinate 0: -1$"):
            LatticeBimorphism.make([[el(-1), el(0)]])

    def test_unchecked_defers_validation(self):
        broken = LatticeBimorphism.unchecked([[el(1), el(1)]])
        assert not broken.verified
        with pytest.raises(BimorphismDefect, match="only verified bimorphisms"):
            continuity_certificate(broken, weighted_l1([1]), weighted_l1([1, 1]),
                                   weighted_l1([1]), samples=1, seed=0)


class TestInducedMap:
    def test_apply_rejects_other_shapes(self):
        with pytest.raises(DimensionMismatch, match=r"induced map over \(2, 2\) applied to \(1, 2\)"):
            CANON.apply(TensorElement.make([[1, 2]]))

    def test_factorization_identity(self):
        T = CANON.apply
        rng = SplitStream(67).split("factor")
        for t in range(60):
            r = rng.split(t)
            x = el(r.fraction(-3, 3), r.fraction(-3, 3))
            y = el(r.fraction(-3, 3), r.fraction(-3, 3))
            assert T(rank_one(x, y)) == CANON(x, y)

    def test_additivity(self):
        T = CANON.apply
        u = TensorElement.make([[1, -2], [0, 3]])
        v = TensorElement.make([[2, 2], [-1, 0]])
        assert T(u + v) == T(u) + T(v)

    def test_preserves_join_for_disjoint_grid(self):
        T = CANON.apply
        u = TensorElement.make([[1, -2], [0, 3]])
        v = TensorElement.make([[2, 2], [-1, 0]])
        assert T(u.join(v)) == T(u).join(T(v))
        assert T(abs(u)) == abs(T(u))

    def test_evaluation_and_induced_map_against_the_element_sums(self):
        """`__call__` and `apply` sum image numerators over one denominator;
        the old bodies add one scaled image at a time."""
        r = random.Random(41)

        def value():
            return r.choice((0, 0, r.randint(-4, 4), Fraction(r.randint(-9, 9), r.randint(1, 10**r.randint(1, 7)))))

        kinds = set()
        for t in range(1500):
            n, m, dim = r.randint(1, 3), r.randint(1, 3), r.randint(1, 5)
            if t % 3 == 0:  # disjoint positive images, checked
                owner = [(r.randrange(n), r.randrange(m)) if r.randrange(3) else None for _ in range(dim)]
                phi = LatticeBimorphism.make([[LatticeElement(tuple(
                    abs(value()) if owner[k] == (i, j) else 0 for k in range(dim)))
                    for j in range(m)] for i in range(n)])
            else:  # any images: signed, overlapping, zero
                phi = LatticeBimorphism.unchecked([[LatticeElement(tuple(value() for _ in range(dim)))
                                                    for j in range(m)] for i in range(n)])
            x = LatticeElement(tuple(value() for _ in range(n)))
            y = LatticeElement(tuple(value() for _ in range(m)))
            u = TensorElement(tuple(value() for _ in range(n * m)), (n, m))
            for got, old in ((phi(x, y), oracles.bimorphism_call(phi, x, y)),
                             (phi.apply(u), oracles.bimorphism_apply(phi, u))):
                assert type(got) is LatticeElement and got == old
            kinds.add((phi.verified, phi(x, y).is_zero(), phi.apply(u).is_zero()))
        assert len(kinds) == 8


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
            T = CANON.apply
            assert L1_4(T(direction)) == C * cert.upper

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
        T = CANON.apply
        assert L1_4(T(direction)) > 0

    def test_polyhedral_factor_reads_its_rays(self):
        # disjoint generators: the constant of the weighted l1 seminorm they are
        poly = polyhedral_gauge([el(1, 0), el(0, 1)])
        expected = continuity_constant(CANON, L1_2, L1_2, L1_4)
        assert continuity_constant(CANON, poly, L1_2, L1_4) == expected
        assert continuity_constant(CANON, L1_2, poly, L1_4) == expected
        # (0, 1) lies under (2, 2), so it is no ray: p is the order unit of
        # (2, 2), with its constant, direction and certificates
        dominated, ou = polyhedral_gauge([el(2, 2), el(0, 1)]), weighted_order_unit([2, 2])
        assert continuity_constant(CANON, dominated, L1_2, L1_4) == \
            continuity_constant(CANON, ou, L1_2, L1_4)
        u = rank_one(el(1, 1), el(1, 0))
        assert seminorm_certify(dominated, L1_2, u).to_json() == \
            seminorm_certify(ou, L1_2, u).to_json()
        # overlapping boxes: the l1 norm peaks at the vertices (2, 1) and (1, 2)
        overlap = polyhedral_gauge([el(2, 1), el(1, 2)])
        assert continuity_constant(CANON, overlap, L1_2, L1_4)[0] == 3
        with pytest.raises(UnsupportedSeminormKind):
            seminorm_certify(overlap, L1_2, u)

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
