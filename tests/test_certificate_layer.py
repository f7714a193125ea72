"""The integer certificate layer against its Fraction bodies, and the covering LP.

`projective` builds certificates from element numerators and the integer
form of each seminorm's rays; `tests/oracles.py` keeps the Fraction bodies
that built them before (the ray blocks, the block maxima and dual, the dual's
value and domination test, the decomposition value and the five structural
candidates). A certificate assembled from those bodies must serialize to the
same JSON as `seminorm_certify`'s. Seminorms whose rays do not partition are
evaluated by one covering LP over their rays, checked here against the gauge
of the unit ball and the corner oracle.
"""

import random
from fractions import Fraction

import oracles
from tensorlattice import hulls, projective
from tensorlattice.elements import (
    INFINITE,
    LatticeElement,
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
    _alternating_minimization,
    _block_candidate,
    _block_maxima,
    _col_candidate,
    _dominating_candidate,
    _pair_dens,
    _row_candidate,
    _scaled_unit_candidate,
    dual_lower_bound,
    seminorm_certify,
    seminorm_closed_form,
)
from tensorlattice.rng import SplitStream
from tensorlattice.tensor import TensorElement


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
                "blocks": 0, "big_den": 0, "zero": 0}
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

            # the layer piece by piece
            maxima = _block_maxima(p, q, u)
            old = oracles.block_maxima(p, q, u)
            _, _, rden = _pair_dens(p, q)
            assert [(k, Fraction(ratio, u.den * rden)) for _, k, _, ratio in maxima] == \
                [(k, ratio) for _, ratio, k, _ in old]
            expected = sum((scale * ratio for scale, ratio, _, _ in old), Fraction(0)) \
                if p.kind == q.kind else None
            assert seminorm_closed_form(p, q, u) == expected
            candidates = (
                (_dominating_candidate(u), oracles.dominating_candidate(u)),
                (_scaled_unit_candidate(p, q, u), oracles.scaled_unit_candidate(p, q, u)),
                (_row_candidate(u), oracles.row_candidate(u)),
                (_col_candidate(u), oracles.col_candidate(u)),
                (_block_candidate(p, q, u, maxima), oracles.block_candidate(p, q, u, old)),
            )
            for dec, terms in candidates:
                assert dec.terms == terms
                assert dec.value(p, q) == oracles.decomposition_value(terms, p, q)

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
                for (_, cells), (_, ratio, _, _) in zip(oracles.ray_blocks(p, q), old) if ratio)
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
                assert p.in_unit_ball(x) == (value <= 1), (p, x)
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
        assert not p.in_unit_ball(LatticeElement((Fraction(0), Fraction(1, 2))))

    def test_overlapping_boxes(self):
        # |x| <= 1/2 (1, 1, 0) + 1/2 (0, 1, 1) covers (1/2, 1, 1/2) at cost 1
        p = polyhedral_gauge([LatticeElement.make([1, 1, 0]), LatticeElement.make([0, -1, 1])])
        x = LatticeElement.make(["1/2", -1, "1/2"])
        assert p(x) == 1 == hulls.gauge(p.unit_ball(), x)
        assert p(LatticeElement.make([1, 0, 1])) == 2
        assert p(x.scale(3)) == 3


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
