from fractions import Fraction

import pytest

from oracles import dual_lower_bound_lp, grid_decomposition_value
from tensorlattice.elements import (
    WEIGHTED_L1,
    LatticeElement,
    SeminormFamily,
    UnsupportedSeminormKind,
    polyhedral_gauge,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice import hulls, projective
from tensorlattice.hulls import GeneratedSet
from tensorlattice.projective import (
    Budget,
    Decomposition,
    DualCertificate,
    SeminormCertificate,
    _alternating_minimization,
    _block_candidate,
    _block_maxima,
    _col_candidate,
    _dominating_candidate,
    _half_step,
    _row_candidate,
    _scaled_unit_candidate,
    certificate_axiom_check,
    cross_property_check,
    dual_lower_bound,
    gauge_equivalence_check,
    hausdorff_check,
    seminorm_certify,
    seminorm_closed_form,
)
from tensorlattice.rng import SplitStream
from tensorlattice.simplex import LinearProgram
from tensorlattice.tensor import TensorElement, TensorNbhd, nbhd_member
from tensorlattice.universal import LatticeBimorphism, continuity_constant


def el(*coords):
    return LatticeElement(tuple(Fraction(c) for c in coords))


L1 = weighted_l1([1, 1])
OU = weighted_order_unit([1, 1])
U_FIXTURE = TensorElement.make([[1, -2], [3, 4]])


def random_tensor(r, n, m, lo=-3, hi=3):
    return TensorElement.make(
        [[r.fraction(lo, hi) for _ in range(m)] for _ in range(n)])


class TestClosedForms:
    def test_l1_l1_fixture(self):
        assert seminorm_closed_form(L1, L1, U_FIXTURE) == 10

    def test_ou_ou_fixture(self):
        assert seminorm_closed_form(OU, OU, U_FIXTURE) == 4

    def test_weighted_variants(self):
        p = weighted_l1([1, 2])
        q = weighted_l1(["1/2", 1])
        u = TensorElement.make([[2, 0], [0, 3]])
        # sum of w_i v_j |u_ij|
        assert seminorm_closed_form(p, q, u) == 2 * Fraction(1, 2) * 1 + 3 * 2
        po = weighted_order_unit([2, 1])
        qo = weighted_order_unit([1, 3])
        # max of |u_ij| / (w_i v_j): both nonzero entries tie at 1
        assert seminorm_closed_form(po, qo, u) == 1
        assert seminorm_closed_form(po, qo, u.scale(Fraction(5, 2))) == Fraction(5, 2)

    def test_mixed_pairs_have_no_closed_form(self):
        assert seminorm_closed_form(L1, OU, U_FIXTURE) is None
        assert seminorm_closed_form(OU, L1, U_FIXTURE) is None

    def test_partition_gate(self):
        # disjoint generators certify exactly as the weighted l1 seminorm they are
        p = polyhedral_gauge([el(1, 0), el(0, 1)])
        assert seminorm_certify(p, p, U_FIXTURE).to_json() == \
            seminorm_certify(L1, L1, U_FIXTURE).to_json()
        assert seminorm_closed_form(p, p, U_FIXTURE) == 10
        assert seminorm_closed_form(p, L1, U_FIXTURE) is None  # kinds differ
        # boxes inside another box drop out: l1 and the order unit again
        for gens, weighted in (([el(1, 0), el(-1, 0), el(0, 1)], L1),
                               ([el(1, 1), el(1, 0)], OU)):
            g = polyhedral_gauge(gens)
            for other in (L1, OU):
                assert seminorm_certify(g, other, U_FIXTURE).to_json() == \
                    seminorm_certify(weighted, other, U_FIXTURE).to_json()
                assert seminorm_certify(other, g, U_FIXTURE).to_json() == \
                    seminorm_certify(other, weighted, U_FIXTURE).to_json()
            assert seminorm_closed_form(g, g, U_FIXTURE) == \
                seminorm_closed_form(weighted, weighted, U_FIXTURE)
        # overlapping supports keep raising wherever a certificate is needed
        overlap = polyhedral_gauge([el(1, 1), el(0, 2)])
        for a, b in ((overlap, L1), (L1, overlap)):
            with pytest.raises(UnsupportedSeminormKind):
                seminorm_certify(a, b, U_FIXTURE)
            with pytest.raises(UnsupportedSeminormKind):
                dual_lower_bound(a, b, U_FIXTURE)
            with pytest.raises(UnsupportedSeminormKind):
                nbhd_member(TensorNbhd.from_seminorms(a, b), U_FIXTURE)
        assert seminorm_closed_form(overlap, overlap, U_FIXTURE) is None


class TestDualLowerBound:
    def test_matches_generic_lp_on_random_instances(self):
        rng = SplitStream(71).split("dual-lp")
        kinds = [(weighted_l1, weighted_l1), (weighted_order_unit, weighted_order_unit),
                 (weighted_l1, weighted_order_unit), (weighted_order_unit, weighted_l1)]
        for t in range(60):
            r = rng.split(t)
            n, m = r.randint(1, 3), r.randint(1, 3)
            mk_p, mk_q = kinds[t % 4]
            # l1 weights may vanish (unbounded rays); order-unit weights may not
            p = mk_p([r.randint(0 if mk_p is weighted_l1 else 1, 3) for _ in range(n)])
            q = mk_q([r.randint(0 if mk_q is weighted_l1 else 1, 3) for _ in range(m)])
            u = random_tensor(r, n, m)
            closed_dual = dual_lower_bound(p, q, u)
            lp_value = dual_lower_bound_lp(p, q, u)
            assert closed_dual.value(u) == lp_value, (p, q, u)
            assert closed_dual.dominates(p, q)

    def test_dual_matrix_of_every_kind_pair_on_ties(self):
        # all ratios tie, so each block's budget goes to its first cell in
        # row-major order: every cell (l1, l1), the first cell (ou, ou), the
        # first column (l1, ou: one block per row), the first row (ou, l1)
        ones = TensorElement.make([[1, 1], [1, 1]])
        expected = {
            (L1, L1): [["1", "1"], ["1", "1"]],
            (OU, OU): [["1", "0"], ["0", "0"]],
            (L1, OU): [["1", "0"], ["1", "0"]],
            (OU, L1): [["1", "1"], ["0", "0"]],
        }
        for (p, q), M in expected.items():
            assert dual_lower_bound(p, q, ones).to_json() == {"M": M}, (p.kind, q.kind)

    def test_zero_l1_weight_gets_no_dual_mass(self):
        p = weighted_l1([0, 2])
        u = TensorElement.make([[5, 1], [1, 3]])
        assert dual_lower_bound(p, OU, u).to_json() == {"M": [["0", "0"], ["0", "2"]]}
        assert dual_lower_bound(OU, p, u).to_json() == {"M": [["0", "0"], ["0", "2"]]}

    def test_dual_confirms_closed_forms(self):
        for p, q in ((L1, L1), (OU, OU)):
            value = seminorm_closed_form(p, q, U_FIXTURE)
            cert = dual_lower_bound(p, q, U_FIXTURE)
            assert cert.value(U_FIXTURE) == value
            assert cert.dominates(p, q)


class TestCertify:
    def test_pure_pairs_close_exactly(self):
        cert = seminorm_certify(L1, L1, U_FIXTURE)
        assert cert.lower == cert.upper == 10
        cert = seminorm_certify(OU, OU, U_FIXTURE)
        assert cert.lower == cert.upper == 4

    def test_mixed_identity_value(self):
        # l1 (x) order-unit on the identity matrix: value is 2, not 1
        u = TensorElement.make([[1, 0], [0, 1]])
        cert = seminorm_certify(L1, OU, u)
        assert cert.lower == cert.upper == 2
        oracle = grid_decomposition_value(L1, OU, u)
        assert oracle == 2

    def test_mixed_pairs_close_on_random_instances(self):
        rng = SplitStream(73).split("mixed")
        for t in range(25):
            r = rng.split(t)
            n, m = r.randint(1, 3), r.randint(1, 3)
            p = weighted_l1([r.randint(1, 3) for _ in range(n)])
            q = weighted_order_unit([r.randint(1, 3) for _ in range(m)])
            u = random_tensor(r, n, m)
            cert = seminorm_certify(p, q, u)
            assert cert.gap == 0
            u2 = random_tensor(r, m, n)
            cert2 = seminorm_certify(q, p, u2)
            assert cert2.gap == 0

    def test_zero_tensor(self):
        cert = seminorm_certify(L1, OU, TensorElement.zero(2, 2))
        assert cert.lower == cert.upper == 0

    def test_starved_budget_leaves_honest_gap(self):
        p = weighted_l1([1, 1])
        q = weighted_order_unit([1, 2])
        u = TensorElement.make([[2, 0], [0, 1]])
        cert = seminorm_certify(p, q, u, Budget(k_max=1, restarts=0))
        assert (cert.lower, cert.upper) == (Fraction(5, 2), 3)
        assert cert.gap == Fraction(1, 2)
        assert cert.verify(p, q, u)
        # the full budget closes the same instance
        closed = seminorm_certify(p, q, u)
        assert closed.lower == closed.upper == Fraction(5, 2)

    def test_certificates_verify(self):
        rng = SplitStream(79).split("verify")
        for t in range(20):
            r = rng.split(t)
            u = random_tensor(r, 2, 2)
            cert = seminorm_certify(L1, OU, u)
            assert cert.verify(L1, OU, u)

    def test_deterministic(self):
        u = TensorElement.make([[1, "1/2"], [0, -1]])
        a = seminorm_certify(L1, OU, u, Budget(seed=9))
        b = seminorm_certify(L1, OU, u, Budget(seed=9))
        assert a.lower == b.lower and a.upper == b.upper

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(k_max=0)
        with pytest.raises(ValueError):
            Budget(restarts=-1)


class TestAlternatingMinimization:
    # order unit (x) l1 with a one-term budget: the structural candidates
    # stop at 2, and only alternating minimization reaches the dual's 3/2
    P = weighted_order_unit([2, 1])
    Q = weighted_l1([1, 1])
    U = TensorElement.make([[1, -2], [0, 1]])

    def test_structural_candidates_leave_a_gap(self):
        cert = seminorm_certify(self.P, self.Q, self.U, Budget(k_max=1, restarts=0))
        assert (cert.lower, cert.upper) == (Fraction(3, 2), 2)
        assert cert.verify(self.P, self.Q, self.U)

    def test_restarts_close_the_gap_with_one_term(self):
        cert = seminorm_certify(self.P, self.Q, self.U, Budget(k_max=1))
        assert cert.lower == cert.upper == Fraction(3, 2)
        assert len(cert.decomposition.terms) == 1
        assert cert.verify(self.P, self.Q, self.U)

    def test_order_unit_side_on_its_ray_closes_a_starved_gap(self):
        # The order-unit half-step returns x = a * w, so one restart reaches
        # the dual's 2 with one term; the structural candidates stop at 3.
        p = weighted_order_unit([2, 2])
        q = weighted_l1([2, 1])
        u = TensorElement.make([[-1, -1], [0, 2]])
        cert = seminorm_certify(p, q, u, Budget(k_max=1, restarts=1))
        assert (cert.lower, cert.upper) == (2, 2)
        assert len(cert.decomposition.terms) == 1
        assert cert.verify(p, q, u)
        starved = seminorm_certify(p, q, u, Budget(k_max=1, restarts=0))
        assert (starved.lower, starved.upper) == (2, 3)


def three_stage_certify(p, q, u, budget=None):
    """The upper-bound search written in three stages, each behind its own gap
    test: the four structural candidates, the block candidate, then
    alternating minimization, keeping the first strict minimum that fits
    the term budget."""
    budget = budget or Budget()
    if u.is_zero():
        return SeminormCertificate(Fraction(0), Fraction(0),
                                   DualCertificate(TensorElement.zero(*u.shape)),
                                   Decomposition(u.shape, ()))
    dual = dual_lower_bound(p, q, u)
    lower = dual.value(u)
    k_max = budget.resolve_k(u.shape)
    best = None

    def consider(dec):
        nonlocal best
        if dec.terms and len(dec.terms) <= k_max:
            value = dec.value(p, q)
            if best is None or value < best[0]:
                best = (value, dec)

    for dec in (_dominating_candidate(u), _scaled_unit_candidate(p, q, u),
                _row_candidate(u), _col_candidate(u)):
        consider(dec)
    if best[0] > lower:
        P = projective.TensorSeminorm(p, q)
        consider(_block_candidate(P, u, _block_maxima(P, u)))
    if best[0] > lower and budget.restarts > 0:
        rng = SplitStream(budget.seed).split("altmin")
        for k in range(1, k_max + 1):
            for start in range(budget.restarts):
                found = _alternating_minimization(p, q, u, k, rng.split(k, start))
                if found is not None and found[0] < best[0]:
                    best = found
                if best[0] <= lower:
                    break
            if best[0] <= lower:
                break
    return SeminormCertificate(lower, best[0], dual, best[1])


class TestCandidateStream:
    """The one-stream search of `seminorm_certify` against the three-stage one."""

    def test_same_certificates_as_the_three_stage_search(self):
        rng = SplitStream(113).split("candidate-stream")
        kinds = (weighted_l1, weighted_order_unit)
        starved_gaps = 0
        for t in range(1000):
            r = rng.split(t)
            n, m = r.randint(1, 4), r.randint(1, 4)
            # l1 weights vanish one time in five; order-unit weights may not
            p, q = (mk([r.fraction(1, 3, 4) if mk is weighted_order_unit or r.randint(1, 5) > 1
                        else 0 for _ in range(dim)])
                    for mk, dim in ((kinds[t % 2], n), (kinds[t // 2 % 2], m)))
            u = TensorElement.make([[0 if r.randint(1, 10) <= 3 else r.fraction(-3, 3, 4)
                                     for _ in range(m)] for _ in range(n)])
            budget = Budget() if t % 8 < 4 else \
                Budget(k_max=r.randint(1, 3), restarts=r.randint(0, 2), seed=t)
            cert = seminorm_certify(p, q, u, budget)
            assert cert.to_json() == three_stage_certify(p, q, u, budget).to_json(), \
                (p, q, u, budget)
            starved_gaps += cert.gap > 0
        assert starved_gaps >= 20

    def test_stops_at_the_first_candidate_that_meets_the_dual(self, monkeypatch):
        # with unit order-unit weights the dominating rank-one (row maxima
        # against ones) already costs max |u_ij|, the dual's value
        def refuse(*args):
            raise AssertionError("candidate built after the dual bound was met")

        for name in ("_scaled_unit_candidate", "_row_candidate", "_col_candidate"):
            monkeypatch.setattr(projective, name, refuse)
        cert = seminorm_certify(OU, OU, U_FIXTURE)
        assert cert.lower == cert.upper == 4
        assert cert.decomposition == _dominating_candidate(U_FIXTURE)


def branching_half_step(p, fixed, u, left):
    """The half-step LP written per seminorm kind: one column per coordinate
    for weighted l1, and for the weighted order unit `dim` columns plus one
    epigraph column tv per term, with the rows x_{t,i} <= w_i * tv."""
    n, m = u.shape
    dim = n if left else m
    k = len(fixed)
    lp = LinearProgram()
    xs = []
    for t in range(k):
        coeff = fixed[t][1]
        if p.kind == WEIGHTED_L1:
            xs.append([lp.var(cost=p.weights[i] * coeff) for i in range(dim)])
        else:
            tv = lp.var(cost=coeff)
            xs.append([lp.var() for _ in range(dim)])
            for i in range(dim):
                lp.add({xs[t][i]: 1, tv: -p.weights[i]}, "<=", 0)
    au = abs(u)
    for i in range(n):
        for j in range(m):
            coeffs = {}
            for t in range(k):
                other = fixed[t][0]
                c = other.coords[j] if left else other.coords[i]
                if c != 0:
                    var = xs[t][i] if left else xs[t][j]
                    coeffs[var] = coeffs.get(var, Fraction(0)) + c
            lp.add(coeffs, ">=", au.coords[i * m + j])
    value, assignment = lp.minimize()
    sides = [
        LatticeElement(tuple(assignment[xs[t][i]] for i in range(dim)))
        for t in range(k)
    ]
    return value, sides


def _outcome(half_step, *args):
    try:
        return half_step(*args)
    except Exception as exc:
        return type(exc)


class TestHalfStep:
    """The ray-cone half-step against the kind-branching LP."""

    @staticmethod
    def instances():
        rng = SplitStream(89).split("half-step")
        for case in range(160):
            r = rng.split(case)
            n, m = r.randint(1, 4), r.randint(1, 4)
            left = case % 2 == 0
            dim, other_dim = (n, m) if left else (m, n)
            if case % 4 < 2:
                p = weighted_l1([r.randint(0, 3) for _ in range(dim)])
            else:
                p = weighted_order_unit([r.fraction(1, 3) for _ in range(dim)])
            # fixed sides with zero coordinates, some of them all zero
            fixed = [
                (LatticeElement(tuple(r.fraction(0, 2) if r.randint(0, 2) else Fraction(0)
                                      for _ in range(other_dim))),
                 r.fraction(0, 3))
                for _ in range(r.randint(1, 3))
            ]
            u = random_tensor(r, n, m)
            yield p, fixed, u, left

    def test_same_optimum_as_the_branching_lp(self):
        kinds = set()
        solved = 0
        for p, fixed, u, left in self.instances():
            got = _outcome(_half_step, p, fixed, u, left)
            ref = _outcome(branching_half_step, p, fixed, u, left)
            if isinstance(ref, type):
                assert got is ref
                continue
            assert not isinstance(got, type), got
            solved += 1
            kinds.add((p.kind, left))
            (value, sides), (ref_value, _) = got, ref
            assert value == ref_value
            assert len(sides) == len(fixed)
            # A degenerate optimum has several optimal sides: these must cover
            # |u| against the fixed ones at the shared value.
            terms = tuple((x, other) if left else (other, x) for x, (other, _) in zip(sides, fixed))
            assert Decomposition(u.shape, terms).dominates(u)
            assert sum(p(x) * coeff for x, (_, coeff) in zip(sides, fixed)) == value
            if p.kind != WEIGHTED_L1:
                w = LatticeElement(p.weights)
                assert all(x == w.scale(p(x)) for x in sides)
        assert len(kinds) == 4 and solved >= 80


class TestCertificateObjects:
    def test_decomposition_verifies_value(self):
        terms = ((el(2, 1), el(1, 1)),)
        dec = Decomposition((2, 2), terms)
        u = TensorElement.make([[2, 0], [0, 1]])
        assert dec.dominates(u)
        assert dec.value(weighted_l1([1, 1]), weighted_order_unit([1, 2])) == 3

    def test_decomposition_value_on_overlapping_factors(self):
        # Boxes that overlap: each p(x_k), q(y_k) is one cover over the rays.
        p = polyhedral_gauge([el(1, 1, 0), el(0, -1, 1)])
        q = polyhedral_gauge([el(2, 1), el(1, 2)])
        assert not (p.rays_partition or q.rays_partition)
        dec = Decomposition((3, 2), ((el("1/2", 1, "1/2"), el(1, 1)), (el(1, 0, 1), el(2, 0))))
        # p: 1 and 2; q: 2/3 (a third of each box) and 1
        assert dec.value(p, q) == 1 * Fraction(2, 3) + 2 * 1 == Fraction(8, 3)
        assert dec.value(p, q) >= projective.TensorSeminorm(p, q)(dec.bound())

    def test_decomposition_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            Decomposition((2, 2), ((el(-1, 0), el(1, 1)),))

    def test_decomposition_json_round_trip(self):
        dec = Decomposition((2, 2), ((el(2, 1), el(1, 1)), (el(0, 1), el(3, 0))))
        back = Decomposition.from_json(dec.to_json(), (2, 2))
        assert back == dec

    def test_dual_rejects_negative_matrix(self):
        with pytest.raises(ValueError):
            DualCertificate(TensorElement.make([[-1]]))

    def test_dual_domination_criteria(self):
        M = DualCertificate(TensorElement.make([[1, 0], [0, 1]]))
        assert M.dominates(L1, L1)
        # order-unit pair needs sum M_ij w_i v_j <= 1; here the sum is 2
        assert not M.dominates(OU, OU)

    def test_certificate_json_round_trip(self):
        u = TensorElement.make([[2, 0], [0, 1]])
        p, q = weighted_l1([1, 1]), weighted_order_unit([1, 2])
        cert = seminorm_certify(p, q, u, Budget(k_max=1, restarts=0))
        data = cert.to_json()
        assert data["lower"] == "5/2" and data["upper"] == "3"
        assert data["gap"] == "1/2"
        back = SeminormCertificate.from_json(data, (2, 2))
        assert back.lower == cert.lower and back.upper == cert.upper
        assert back.verify(p, q, u)


class TestGapAgainstGridOracle:
    def test_sample_of_integer_matrices(self):
        # a slice of the integer-matrix grid; the full sweep runs in acceptance
        rng = SplitStream(83).split("grid")
        for t in range(12):
            r = rng.split(t)
            u = TensorElement.make(
                [[r.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            for p, q in ((L1, L1), (OU, OU)):
                closed = seminorm_closed_form(p, q, u)
                oracle = grid_decomposition_value(p, q, u)
                assert oracle is not None
                assert closed <= oracle <= closed + Fraction(1, 4)


class TestChecks:
    def test_cross_property_all_pairs(self):
        for p, q in ((L1, L1), (OU, OU), (L1, OU), (OU, L1)):
            rep = cross_property_check(p, q, samples=25, seed=5)
            assert rep["ok"] and rep["violations"] == 0

    def test_gauge_equivalence_probes(self):
        p = weighted_l1([1, 1])
        q = weighted_order_unit([1, 2])
        U = GeneratedSet([el(1, 0), el(0, 1)], ("Sol", "Conv_b"))
        V = GeneratedSet([el(1, "1/2")], ("Sol", "Conv_b"))
        W = TensorNbhd(U, V, p, q)
        u = TensorElement.make([[2, 0], [0, 1]])
        rep = gauge_equivalence_check(W, u)
        assert rep["ok"]
        assert rep["contradictions"] == []
        assert ["5/2", "member"] in rep["probes"]

    def test_gauge_equivalence_undecided_band(self):
        p = weighted_l1([1, 1])
        q = weighted_order_unit([1, 2])
        U = GeneratedSet([el(1, 0), el(0, 1)], ("Sol", "Conv_b"))
        V = GeneratedSet([el(1, "1/2")], ("Sol", "Conv_b"))
        W = TensorNbhd(U, V, p, q)
        u = TensorElement.make([[2, 0], [0, 1]])
        rep = gauge_equivalence_check(W, u, budget=Budget(k_max=1, restarts=0))
        assert rep["ok"]
        assert any(state == "undecided" for _, state in rep["probes"])

    def test_certificate_axioms(self):
        rep = certificate_axiom_check(L1, OU, samples=15, seed=7)
        assert rep["ok"] and rep["violations"] == 0

    def test_hausdorff_separating(self):
        P = SeminormFamily((weighted_l1([1, 1]), weighted_order_unit([2, 1])))
        Q = SeminormFamily((weighted_l1([1, 1, 1]),))
        rep = hausdorff_check(P, Q, samples=30, seed=9)
        assert rep["ok"] and rep["violations"] == 0
        assert rep["separating"] == {"left": True, "right": True}

    def test_hausdorff_non_separating_witness(self):
        # second left coordinate is invisible: (x (x) y) nonzero there gets 0
        P = SeminormFamily((weighted_l1([1, 0]),))
        Q = SeminormFamily((weighted_l1([1]),))
        rep = hausdorff_check(P, Q, samples=30, seed=9)
        assert rep["ok"]  # ok means the failure was detected as expected
        assert rep["violations"] > 0
        assert not rep["separating"]["left"]
        assert rep["separation_failures"]["left"] == ["coordinate 1"]


class TestRayModel:
    """Every seminorm is read through its rays, whatever its kind."""

    def test_weighted_against_its_polyhedral_gauge(self):
        # the gauge of p's unit ball has p's values, certificates and constants
        rng = SplitStream(101).split("weighted-vs-polyhedral")
        for t in range(200):
            r = rng.split(t)
            n, m = r.randint(1, 3), r.randint(1, 3)
            mk_p = (weighted_l1, weighted_order_unit)[t % 2]
            mk_q = (weighted_l1, weighted_order_unit)[t // 2 % 2]
            p = mk_p([r.fraction(1, 3, 4) for _ in range(n)])
            q = mk_q([r.fraction(1, 3, 4) for _ in range(m)])
            gp = polyhedral_gauge(p.unit_ball().generators)
            gq = polyhedral_gauge(q.unit_ball().generators)
            x = LatticeElement(tuple(r.fraction(-2, 2, 4) for _ in range(n)))
            assert gp(x) == p(x), (p, x)
            assert (p(x) <= 1) == hulls.member(p.unit_ball(), x), (p, x)
            u = random_tensor(r, n, m)
            cert, gcert = seminorm_certify(p, q, u), seminorm_certify(gp, gq, u)
            assert (gcert.lower, gcert.upper) == (cert.lower, cert.upper), (p, q, u)
            phi = LatticeBimorphism.canonical(n, m)
            target = weighted_l1([r.fraction(0, 2, 2) for _ in range(n * m)])
            assert continuity_constant(phi, gp, gq, target)[0] == \
                continuity_constant(phi, p, q, target)[0]


def _block_generators(r, dim):
    """Generators with disjoint supports covering 0..dim-1, one per block of a
    random partition, with random signs."""
    order = list(range(dim))
    for i in range(dim - 1, 0, -1):
        j = r.randint(0, i)
        order[i], order[j] = order[j], order[i]
    cuts = sorted({r.randint(1, dim) for _ in range(r.randint(0, dim - 1))} | {dim})
    gens, start = [], 0
    for cut in cuts:
        ray = [Fraction(0)] * dim
        for i in order[start:cut]:
            ray[i] = r.fraction(1, 3, 4)
        start = cut
        gens.append(LatticeElement(tuple(c * r.choice([-1, 1]) for c in ray)))
    return gens


class TestBlockSeminorms:
    """l1-of-l-infinity block seminorms, written as polyhedral gauges.

    The independent check is the gauge of the flattened set W(U, V) on the
    n*m coordinates: Sol Conv_b of the d (x) e / (p(d) q(e)) over the rays
    d = |g| of p and e = |h| of q, each of seminorm 1 here.
    """

    def test_block_pairs_close_and_match_the_flattened_gauge(self):
        rng = SplitStream(103).split("block-seminorms")
        for t in range(150):
            r = rng.split(t)
            n, m = r.randint(1, 4), r.randint(1, 4)
            G, H = _block_generators(r.split("p"), n), _block_generators(r.split("q"), m)
            p, q = polyhedral_gauge(G), polyhedral_gauge(H)
            u = random_tensor(r, n, m)
            cert = seminorm_certify(p, q, u)
            assert cert.gap == 0, (G, H, u)
            assert cert.verify(p, q, u)
            # the block candidate closes it without alternating minimization
            assert seminorm_certify(p, q, u, Budget(restarts=0)) == cert
            flat = GeneratedSet(
                [LatticeElement(tuple(abs(a) * abs(b) for a in g.coords for b in h.coords))
                 for g in G for h in H], ("Sol", "Conv_b"))
            assert cert.upper == hulls.gauge(flat, LatticeElement(u.coords)), (G, H, u)
            assert seminorm_closed_form(p, q, u) == cert.upper
