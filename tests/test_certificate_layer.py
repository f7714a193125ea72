"""The integer certificate layer against its Fraction bodies, and the covering LP.

`projective` builds certificates from element numerators and the integer
form of each seminorm's rays; `tests/oracles.py` keeps the Fraction bodies
that built them before (the ray blocks, the block maxima and dual, the dual's
value and domination test, the decomposition value and the five structural
candidates). A certificate assembled from those bodies must serialize to the
same JSON as `seminorm_certify`'s. Seminorms whose rays do not partition are
evaluated by one covering LP over their rays, checked here against the gauge
of the unit ball and the corner oracle. The tensor seminorm p (x) q reads the
same ray arithmetic over the pairs of rays: it is the product on rank-ones,
and when every cost is positive W(U, V) is its unit ball.
"""

import random
from fractions import Fraction

import oracles
from tensorlattice import hulls, projective
from tensorlattice.elements import (
    INFINITE,
    POLYHEDRAL_GAUGE,
    WEIGHTED_L1,
    WEIGHTED_ORDER_UNIT,
    LatticeElement,
    RieszSeminorm,
    polyhedral_gauge,
    weighted_l1,
    weighted_order_unit,
)
from tensorlattice.hulls import GeneratedSet
from tensorlattice.projective import (
    Budget,
    Decomposition,
    DualCertificate,
    SeminormCertificate,
    TensorSeminorm,
    _alternating_minimization,
    _block_candidate,
    _block_maxima,
    _col_candidate,
    _dominating_candidate,
    _row_candidate,
    _scaled_unit_candidate,
    dual_lower_bound,
    seminorm_certify,
    seminorm_closed_form,
)
from tensorlattice.rng import SplitStream
from tensorlattice.tensor import TensorElement, rank_one


def draw_value(r: random.Random, ties: bool):
    """A tensor entry: zero, a tie-prone small value, or a denominator up to 10**9."""
    kind = r.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1 or ties:
        return Fraction(r.choice((-2, -1, 1, 1, 2)))
    if kind == 2:
        return Fraction(r.randint(-9, 9), r.randint(1, 8))
    if kind == 3:
        return Fraction(r.randint(-10**9, 10**9), r.randint(1, 10**9))
    return Fraction(r.randint(-3, 3), 4)


def draw_weight(r: random.Random, positive: bool):
    kind = r.randrange(6)
    if kind == 0 and not positive:
        return Fraction(0)  # a zero l1 weight: a ray of cost 0
    if kind == 1:
        return Fraction(r.randint(1, 10**9), r.randint(1, 10**9))
    if kind == 2:
        return Fraction(1)
    return Fraction(r.randint(1, 9), r.randint(1, 5))


def block_gauge(r: random.Random, dim: int):
    """A polyhedral gauge whose kept boxes partition the coordinates, listed with
    a zero generator, a repeated box and a box inside another at random."""
    owners = [r.randrange(3) for _ in range(dim)]
    gens = []
    for block in sorted(set(owners)):
        gens.append(LatticeElement(tuple(
            r.choice((-1, 1)) * draw_weight(r, True) if o == block else Fraction(0)
            for o in owners)))
    extras = []
    if r.randrange(4) == 0:
        extras.append(LatticeElement.zero(dim))
    if r.randrange(4) == 0:
        extras.append(-r.choice(gens))
    if r.randrange(4) == 0:
        extras.append(r.choice(gens).scale(Fraction(1, r.randint(2, 9))))
    for g in extras:
        gens.insert(r.randint(0, len(gens)), g)
    return polyhedral_gauge(gens)


def draw_seminorm(r: random.Random, kind: int, dim: int, ties: bool):
    if kind == 0:
        return weighted_l1([1] * dim if ties else [draw_weight(r, False) for _ in range(dim)])
    if kind == 1:
        return weighted_order_unit([1] * dim if ties else [draw_weight(r, True) for _ in range(dim)])
    return block_gauge(r, dim)


class SharedRuns:
    """`_alternating_minimization` run once per term count and stream, its
    result handed to both searches: the oracle search compares the same
    descent results as `seminorm_certify`, and pays for them once."""

    def __init__(self):
        self.runs = {}

    def __call__(self, p, q, u, k, rng):
        key = (p, q, u, k, rng._key)
        if key not in self.runs:
            self.runs[key] = _alternating_minimization(p, q, u, k, rng)
        return self.runs[key]


def fraction_certify(p, q, u, budget: Budget, altmin) -> SeminormCertificate:
    """`seminorm_certify` assembled from the Fraction bodies of `oracles`."""
    if u.is_zero():
        return SeminormCertificate(Fraction(0), Fraction(0),
                                   DualCertificate(TensorElement.zero(*u.shape)),
                                   Decomposition(u.shape, ()))
    maxima = oracles.block_maxima(p, q, u)
    M = oracles.block_dual(maxima, u)
    assert oracles.dual_dominates(M, p, q)
    lower = oracles.dual_value(M, u)
    k_max = budget.resolve_k(u.shape)

    def stream():
        yield oracles.dominating_candidate(u)
        yield oracles.scaled_unit_candidate(p, q, u)
        yield oracles.row_candidate(u)
        yield oracles.col_candidate(u)
        yield oracles.block_candidate(p, q, u, maxima)
        rng = SplitStream(budget.seed).split("altmin")
        for k in range(1, k_max + 1):
            for start in range(budget.restarts):
                found = altmin(p, q, u, k, rng.split(k, start))
                if found is not None:
                    yield found[1].terms

    best = None
    for terms in stream():
        if not terms or len(terms) > k_max:
            continue
        value = oracles.decomposition_value(terms, p, q)
        if best is None or value < best[0]:
            best = (value, terms)
            if value == lower:
                break
    return SeminormCertificate(lower, best[0], DualCertificate(M),
                               Decomposition(u.shape, best[1]))


def raised(dual: DualCertificate, k: int) -> DualCertificate:
    M = dual.matrix
    coords = list(M.coords)
    coords[k] += Fraction(1, 8)
    return DualCertificate(TensorElement(tuple(coords), M.shape))


class TestCertificatesAgainstFractionBodies:
    def test_certificates_match_the_fraction_bodies(self, monkeypatch):
        altmin = SharedRuns()
        monkeypatch.setattr(projective, "_alternating_minimization", altmin)
        r = random.Random(18)
        seen = {"pairs": set(), "starved": 0, "gaps": 0, "free_rays": 0, "ties": 0,
                "blocks": 0, "big_den": 0, "zero": 0, "bounds": 0}
        for t in range(3000):
            n, m = r.randint(1, 5), r.randint(1, 5)
            ties = t % 5 == 0
            kp, kq = t % 3, t // 3 % 3
            p, q = draw_seminorm(r, kp, n, ties), draw_seminorm(r, kq, m, ties)
            assert p.rays_partition and q.rays_partition
            u = TensorElement(tuple(draw_value(r, ties) for _ in range(n * m)), (n, m))
            if t % 50 == 0:
                u = TensorElement.zero(n, m)
            starved = t % 6 == 5
            budget = Budget(k_max=r.randint(1, 2), restarts=r.randint(0, 1), seed=t) \
                if starved else Budget()

            cert = seminorm_certify(p, q, u, budget)
            old_cert = fraction_certify(p, q, u, budget, altmin)
            assert cert.to_json() == old_cert.to_json(), (p, q, u, budget)
            altmin.runs.clear()
            P = TensorSeminorm(p, q)
            # P(u) is the exact value: the dual meets it, and so does the upper
            # bound unless the term budget is starved
            assert P(u) == cert.lower
            assert starved or cert.upper == cert.lower

            # the layer piece by piece
            maxima = _block_maxima(P, u)
            old = oracles.block_maxima(p, q, u)
            _, cden, _, rden = P._ray_ints
            assert [(Fraction(scale, cden), k, Fraction(ratio, u.den * rden))
                    for scale, k, _, ratio in maxima] == \
                [(scale, k, ratio) for scale, ratio, k, _ in old]
            expected = sum((scale * ratio for scale, ratio, _, _ in old), Fraction(0)) \
                if p.kind == q.kind else None
            assert seminorm_closed_form(p, q, u) == expected
            candidates = (
                (_dominating_candidate(u), oracles.dominating_candidate(u)),
                (_scaled_unit_candidate(p, q, u), oracles.scaled_unit_candidate(p, q, u)),
                (_row_candidate(u), oracles.row_candidate(u)),
                (_col_candidate(u), oracles.col_candidate(u)),
                (_block_candidate(P, u, maxima), oracles.block_candidate(p, q, u, old)),
            )
            for dec, terms in candidates:
                assert dec.terms == terms
                assert dec.value(p, q) == oracles.decomposition_value(terms, p, q)

            # the bound sum_k x_k (x) y_k, and domination of u and of u pushed past it
            for dec in (cert.decomposition, *(dec for dec, _ in candidates)):
                bound = oracles.decomposition_bound(dec.shape, dec.terms)
                assert dec.bound() == bound  # the same num, den and shape
                assert dec.dominates(u) == abs(u).le(bound)
                k = r.randrange(u.dim)
                over = TensorElement(bound.coords[:k] + (bound.coords[k] + Fraction(1, 7),)
                                     + bound.coords[k + 1:], u.shape)
                assert not dec.dominates(over)
                seen["bounds"] += dec.dominates(u)

            # a dual that is tight on every block fails once an entry rises by 1/8
            dual = dual_lower_bound(p, q, u)
            assert dual.matrix == oracles.block_dual(old, u)
            assert dual.value(u) == oracles.dual_value(dual.matrix, u)
            assert dual.dominates(p, q)
            worse = raised(dual, r.randrange(u.dim))
            assert not worse.dominates(p, q)
            assert not oracles.dual_dominates(worse.matrix, p, q)

            seen["pairs"].add((p.kind, q.kind))
            seen["starved"] += starved
            seen["gaps"] += cert.gap > 0
            seen["free_rays"] += any(pd == 0 for pd, _ in p.rays + q.rays)
            seen["ties"] += any(
                sum(abs(u.coords[k]) / c == ratio for k, c in cells) > 1
                for (_, cells), (_, ratio, _, _) in zip(oracles.tensor_rays(p, q), old) if ratio)
            seen["blocks"] += "polyhedral_gauge" in (p.kind, q.kind)
            seen["big_den"] += u.den > 10**6 or p._ray_ints[1] > 10**6
            seen["zero"] += u.is_zero()
        assert len(seen["pairs"]) == 9
        assert all(v >= 20 for k, v in seen.items() if k != "pairs"), seen


def non_partitioning_gauge(r: random.Random, dim: int):
    """Generators whose kept boxes overlap, with equal, dominated and zero boxes
    mixed in, and a coordinate left uncovered at random."""
    dead = r.randrange(dim) if r.randrange(3) == 0 else None
    gens = []
    for _ in range(r.randint(2, 4)):
        gens.append(LatticeElement(tuple(
            Fraction(0) if i == dead or r.randrange(3) == 0
            else Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 4))
            for i in range(dim))))
    if r.randrange(3) == 0:
        gens.append(LatticeElement.zero(dim))
    if r.randrange(3) == 0:
        gens.append(-r.choice(gens))
    if r.randrange(3) == 0:
        gens.append(r.choice(gens).scale(Fraction(1, 2)))
    return polyhedral_gauge(gens)


class TestCoveringLP:
    def test_cover_matches_the_gauge_and_the_corner_oracle(self):
        r = random.Random(19)
        seen = {"checked": 0, "infinite": 0, "zero": 0, "inside": 0, "outside": 0}
        for t in range(250):
            dim = r.randint(2, 4)
            p = non_partitioning_gauge(r, dim)
            if p.rays_partition:
                continue
            ball = p.unit_ball()
            for s in range(3):
                x = LatticeElement(tuple(
                    Fraction(r.randint(-6, 6), r.randint(1, 4)) if r.randrange(4) else Fraction(0)
                    for _ in range(dim)))
                if s == 0 and t % 4 == 0:
                    x = LatticeElement.zero(dim)
                value = p(x)
                assert value == hulls.gauge(ball, x), (p, x)
                corner = oracles.corner_gauge(ball.generators, x)
                assert value == (INFINITE if corner is None else corner), (p, x)
                assert hulls.member(ball, x) == (value <= 1), (p, x)
                seen["checked"] += 1
                seen["infinite"] += value is INFINITE
                seen["zero"] += x.is_zero()
                seen["inside"] += value is not INFINITE and value <= 1
                seen["outside"] += value is not INFINITE and value > 1
        assert all(v >= 30 for v in seen.values()), seen

    def test_a_zero_seminorm_and_its_infinite_directions(self):
        p = polyhedral_gauge([LatticeElement.zero(2)])
        assert not p.rays_partition
        assert p(LatticeElement.zero(2)) == 0
        assert p(LatticeElement((Fraction(1), Fraction(0)))) is INFINITE
        x = LatticeElement((Fraction(0), Fraction(1, 2)))
        assert not p(x) <= 1
        assert not hulls.member(p.unit_ball(), x)

    def test_overlapping_boxes(self):
        # |x| <= 1/2 (1, 1, 0) + 1/2 (0, 1, 1) covers (1/2, 1, 1/2) at cost 1
        p = polyhedral_gauge([LatticeElement.make([1, 1, 0]), LatticeElement.make([0, -1, 1])])
        x = LatticeElement.make(["1/2", -1, "1/2"])
        assert p(x) == 1 == hulls.gauge(p.unit_ball(), x)
        assert p(LatticeElement.make([1, 0, 1])) == 2
        assert p(x.scale(3)) == 3


def draw_factor(r: random.Random, dim: int, positive: bool):
    """A seminorm of any kind, a quarter of them with overlapping boxes; with
    `positive`, no weighted l1 weight is 0, so every ray has a positive cost."""
    kind = r.randrange(4)
    if kind == 0:
        return weighted_l1([draw_weight(r, positive) for _ in range(dim)])
    if kind == 3:
        return non_partitioning_gauge(r, dim)
    return draw_seminorm(r, kind, dim, False)


def draw_element(r: random.Random, dim: int) -> LatticeElement:
    return LatticeElement(tuple(
        Fraction(r.randint(-6, 6), r.randint(1, 4)) if r.randrange(3) else Fraction(0)
        for _ in range(dim)))


class TestTensorSeminorm:
    """p (x) q as one ray seminorm on the n*m coordinates."""

    def test_rays_pair_the_factor_rays_in_row_major_order(self):
        P = TensorSeminorm(weighted_l1([1, 2]), weighted_order_unit([1, 3]))
        assert P.dim == 4 and P.rays_partition
        assert P.rays == ((1, ((0, 1), (1, 3))), (2, ((2, 1), (3, 3))))
        u = TensorElement.make([[1, -3], [2, 1]])
        assert P(u) == 1 + 2 * 2 == seminorm_certify(P.p, P.q, u).upper

    def test_rank_ones_get_the_product_of_the_factor_values(self):
        r = random.Random(22)
        seen = {"pairs": 0, "overlapping": 0, "infinite": 0, "zero": 0}
        for _ in range(300):
            n, m = r.randint(1, 4), r.randint(1, 4)
            p, q = draw_factor(r, n, False), draw_factor(r, m, False)
            x, y = draw_element(r, n), draw_element(r, m)
            px, qy = p(x), q(y)
            if x.is_zero() or y.is_zero():
                expected = Fraction(0)
            elif px is INFINITE or qy is INFINITE:
                expected = INFINITE
            else:
                expected = px * qy
            assert TensorSeminorm(p, q)(rank_one(x, y)) == expected, (p, q, x, y)
            seen["pairs"] += 1
            seen["overlapping"] += not (p.rays_partition and q.rays_partition)
            seen["infinite"] += expected is INFINITE
            seen["zero"] += expected == 0
        assert all(v >= 20 for v in seen.values()), seen

    def test_the_unit_ball_is_w_u_v(self):
        # W(U, V) = Conv_b(Sol(U (x) V)) has the vertices d (x) e / (p(d) q(e)),
        # so with positive costs it is {P <= 1}, and its gauge is P.
        r = random.Random(23)
        seen = {"probes": 0, "inside": 0, "outside": 0, "overlapping": 0}
        while seen["probes"] < 360:
            n, m = r.randint(1, 3), r.randint(1, 3)
            P = TensorSeminorm(draw_factor(r, n, True), draw_factor(r, m, True))
            x = draw_element(r, n * m)
            value = P(x)
            if value is INFINITE or value == 0:
                continue
            ball = P.unit_ball()
            for c in (Fraction(7, 8), Fraction(1), Fraction(9, 8)):
                w = x.scale(c / value)
                assert P(w) == c
                assert hulls.member(ball, w) == (c <= 1), (P, w)
                assert hulls.gauge(ball, w) == c, (P, w)
                seen["probes"] += 1
                seen["inside"] += c <= 1
                seen["outside"] += c > 1
                seen["overlapping"] += not P.rays_partition
        assert all(v >= 30 for v in seen.values()), seen

    def test_integer_rays_are_the_products_of_the_fraction_rays(self):
        # ray for ray the Fraction pairing of `oracles.tensor_rays`, and read
        # back from the integer rays: cost, d_i e_j and 1 / (d_i e_j)
        r = random.Random(24)
        seen = {"kinds": set(), "overlapping": 0, "free_rays": 0, "no_rays": 0,
                "one_by_one": 0, "big_den": 0, "partition": 0}
        for t in range(600):
            n, m = (1, 1) if t % 10 == 0 else (r.randint(1, 5), r.randint(1, 5))
            p, q = draw_factor(r, n, False), draw_factor(r, m, False)
            if t % 15 == 7:  # all-zero generators: a gauge with no rays
                p = polyhedral_gauge([LatticeElement.zero(n)] * r.randint(1, 2))
            P = TensorSeminorm(p, q)
            expected = oracles.tensor_rays(p, q)
            assert P.rays == expected, (p, q)
            rays, cden, dden, rden = P._ray_ints
            assert [(Fraction(cost, cden),
                     tuple((k, Fraction(c, dden), Fraction(rc, rden)) for k, c, rc in ray))
                    for cost, ray in rays] == \
                [(cost, tuple((k, c, 1 / c) for k, c in ray)) for cost, ray in expected]
            assert P.rays_partition == (p.rays_partition and q.rays_partition)
            seen["kinds"].add((p.kind, q.kind))
            seen["overlapping"] += not P.rays_partition and bool(expected)
            seen["free_rays"] += any(cost == 0 for cost, _ in expected)
            seen["no_rays"] += not expected
            seen["one_by_one"] += P.dim == 1
            seen["big_den"] += max(cden, dden, rden) > 10**6
            seen["partition"] += P.rays_partition
        assert len(seen.pop("kinds")) == 9
        assert all(v >= 20 for v in seen.values()), seen

    def test_a_cell_in_no_pair_ray_is_infinite(self):
        p = polyhedral_gauge([LatticeElement.make([1, 0])])  # blind to coordinate 1
        for q in (weighted_l1([1, 1]),
                  polyhedral_gauge([LatticeElement.make([2, 1]), LatticeElement.make([1, 2])])):
            P = TensorSeminorm(p, q)
            assert not P.rays_partition
            assert P(TensorElement.make([[0, 0], [1, 0]])) is INFINITE
            assert P(TensorElement.make([[0, 0], [0, "1/3"]])) is INFINITE
            assert P(TensorElement.make([[1, 0], [0, 0]])) == q(LatticeElement.make([1, 0]))
            assert P(TensorElement.zero(2, 2)) == 0


class TestListBuiltSeminorms:
    """A seminorm built with a list of weights or generators certifies as the
    tuple-built one does: no certificate path hashes its factors."""

    def test_list_fields_answer_as_tuple_fields(self):
        weights = [Fraction(1), Fraction(2), Fraction(1, 3)]
        gens = [LatticeElement.make([2, 0, 0]), LatticeElement.make([0, 1, "1/2"])]
        pairs = (
            (RieszSeminorm(WEIGHTED_L1, weights=weights), weighted_l1(weights)),
            (RieszSeminorm(WEIGHTED_ORDER_UNIT, weights=weights), weighted_order_unit(weights)),
            (RieszSeminorm(POLYHEDRAL_GAUGE, generators=gens), polyhedral_gauge(gens)),
        )
        u = TensorElement.make([[1, -2, 0], ["3/4", 1, -1], [0, "-1/3", "5/2"]])
        for lp, tp in pairs:
            for lq, tq in pairs:
                for budget in (None, Budget(k_max=1, restarts=1)):
                    cert = seminorm_certify(tp, tq, u, budget)
                    assert seminorm_certify(lp, lq, u, budget).to_json() == cert.to_json()
                    assert cert.verify(lp, lq, u)
                assert seminorm_closed_form(lp, lq, u) == seminorm_closed_form(tp, tq, u)
                assert dual_lower_bound(lp, lq, u) == dual_lower_bound(tp, tq, u)


class TestPairBoxMember:
    def test_verdicts_match_the_fraction_body(self):
        r = random.Random(20)
        verdicts = set()
        for _ in range(2000):
            dim = r.randint(1, 4)

            def element():
                return LatticeElement(tuple(draw_value(r, r.randrange(3) == 0)
                                            for _ in range(dim)))

            A = GeneratedSet(tuple(element() for _ in range(r.randint(1, 3))), ("Sol",))
            B = GeneratedSet(tuple(element() for _ in range(r.randint(1, 3))), ("Sol",))
            z = element()
            if r.randrange(2):  # a point of one box, so both verdicts occur
                a, b = r.choice(A.generators), r.choice(B.generators)
                z = LatticeElement(tuple(
                    c * Fraction(r.randint(-4, 4), 4) for c in abs(a).join(abs(b)).coords))
            for low, high, new in ((min, max, hulls.solid_join_member),
                                   (max, min, hulls.solid_meet_member)):
                got = new(A, B, z)
                assert got == oracles.pair_box_member(A.generators, B.generators, z, low, high)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_sum_union_and_intersection_match_the_element_bodies(self):
        r = random.Random(21)
        verdicts = {"sum": set(), "union": set(), "intersect": set()}
        seen = {"zero": 0, "repeated": 0}
        for _ in range(2000):
            dim = r.randint(1, 4)

            def element():
                return LatticeElement(tuple(draw_value(r, r.randrange(3) == 0)
                                            for _ in range(dim)))

            def bare_set():
                gens = [element() for _ in range(r.randint(1, 3))]
                if r.randrange(4) == 0:
                    gens.insert(r.randint(0, len(gens)), LatticeElement.zero(dim))
                if r.randrange(4) == 0:
                    gens.append(r.choice(gens))
                seen["zero"] += any(g.is_zero() for g in gens)
                seen["repeated"] += len(set(gens)) < len(gens)
                return GeneratedSet(tuple(gens), ())

            A, B = bare_set(), bare_set()
            z = element()
            if r.randrange(3):  # a point of one box, so every verdict occurs
                a, b = abs(r.choice(A.generators)), abs(r.choice(B.generators))
                box = r.choice((a + b, a.meet(b), a))
                z = LatticeElement(tuple(c * Fraction(r.randint(-4, 4), 4) for c in box.coords))
            for name, new, old in (
                    ("sum", hulls.solid_sum_member, oracles.solid_sum_member),
                    ("union", hulls.solid_union_member, oracles.solid_union_member),
                    ("intersect", hulls.solid_intersect_member, oracles.solid_intersect_member)):
                got = new(A, B, z)
                assert got == old(A, B, z), (name, A, B, z)
                verdicts[name].add(got)
        assert all(v == {True, False} for v in verdicts.values()), verdicts
        assert all(v >= 100 for v in seen.values()), seen
