"""Finitely generated sets with hull decorations, and the hull calculus.

A `GeneratedSet` is a finite generator list plus a decoration: an ordered
list of hull operators applied innermost-first, drawn from

* ``Sol``     solid hull: everything dominated in absolute value by a generator
* ``Conv``    convex hull
* ``Conv_b``  convex balanced hull (combinations with total |weight| <= 1)

Membership is exact and tries the cheap decisions first:

1. bare scan: a bare set is its generator list;
2. box scan: ``Sol(G)`` is the union of the boxes ``|x| <= |g|``, and it lies
   inside ``Conv(Sol(G))`` and ``Conv_b(Sol(G))``, so a point in one box is a
   member of all three without further work;
3. span check: a convex-solid point outside every box that is nonzero where
   all boxes vanish is rejected;
4. LP: what is left is one rational feasibility program. ``Conv`` and
   ``Conv_b`` of bare generators (and sums of such hulls) go straight to
   it: a mass row per block, one slack column per ``Conv_b`` block, then
   the coordinates of x, decided by `simplex.feasible` on an integer
   tableau. ``Conv(Sol(G))`` and
   ``Conv_b(Sol(G))`` are one set: every box is symmetric and contains 0, so
   a combination of total weight below 1 puts the rest of its mass on 0.
   Both are decided by one program with the mass row ``sum lam_k == 1``, and
   the gauge is the same program with the mass row turned into the
   objective.

The second half of the module is the law suite: eleven identities and
inclusions relating hulls to pointwise set algebra, each checked by sampling
points from the left-hand side and deciding right-hand membership with an
oracle that is independent of the sampling construction. Four of the eleven
are stated in a direction that is not the one that actually holds, and two
hold only on a cone; the checkers test both directions/variants and report
which one survives (`_observe`, shared with the solid-closure check), with
explicit witnesses for the failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .elements import (
    INFINITE,
    DimensionMismatch,
    LatticeElement,
    LatticeHom,
    _element,
    _lowest,
    riesz_decompose,
)
from .jsonio import FormatError, _quote, require_key
from .rng import SplitStream
from .simplex import InfeasibleLP, LinearProgram, feasible

SOL = "Sol"
CONV = "Conv"
CONV_B = "Conv_b"
_DECORATIONS = (SOL, CONV, CONV_B)


class UnsupportedDecoration(ValueError):
    pass


@dataclass(frozen=True)
class GeneratedSet:
    generators: tuple[LatticeElement, ...]
    decoration: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a generated set needs at least one generator")
        dims = {g.dim for g in self.generators}
        if len(dims) != 1:
            raise DimensionMismatch("generators must share a dimension")
        for d in self.decoration:
            if d not in _DECORATIONS:
                raise UnsupportedDecoration(f"unknown hull operator {_quote(d)}")

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    @staticmethod
    def from_json(data, field: str = "set") -> "GeneratedSet":
        gens = require_key(data, "generators", field)
        if not isinstance(gens, list) or not gens:
            raise FormatError(f"{field}.generators", "expected a nonempty list")
        deco = data.get("decoration", [])
        if not isinstance(deco, list):
            raise FormatError(f"{field}.decoration", "expected a list of hull names")
        for i, d in enumerate(deco):
            if d not in _DECORATIONS:
                raise FormatError(f"{field}.decoration[{i}]", f"unknown hull operator {_quote(d)}")
        elements = tuple(
            LatticeElement.from_json(g, f"{field}.generators[{i}]") for i, g in enumerate(gens)
        )
        try:
            return GeneratedSet(elements, tuple(deco))
        except DimensionMismatch as exc:
            raise FormatError(f"{field}.generators", str(exc)) from None


def _check_dim(S: GeneratedSet, x: LatticeElement):
    if S.dim != x.dim:
        raise DimensionMismatch(f"set over dim {S.dim} probed with dim {x.dim}")


# ---------------------------------------------------------------------------
# Membership and gauge
# ---------------------------------------------------------------------------


def _sum_hull_member(blocks, x, balanced: bool) -> bool:
    """x in hull(G_1) + ... + hull(G_k), one feasibility program: a mass row per
    block, then x coordinate-wise.

    Each block gets its own weights: convex (sum == 1) or balanced (positive
    and negative parts, plus one slack column, summing to 1). One block is
    plain hull membership.
    """
    signs = (1, -1) if balanced else (1,)
    columns = [(b, s, g) for b, gens in enumerate(blocks) for s in signs for g in gens]
    slacks = range(len(blocks)) if balanced else ()
    mass = [[int(b == k) for b, _, _ in columns] + [int(s == k) for s in slacks]
            for k in range(len(blocks))]
    # Coordinate row i over the one denominator `den` is integral; divided by
    # its gcd with den it is the row `feasible` scales a Fraction row to.
    den = lcm(x.den, *(g.den for _, _, g in columns))
    factors = [(s * (den // g.den), g.num) for _, s, g in columns]
    rows, rhs = [], []
    for i, a in enumerate(x.num):
        row = [f * num[i] for f, num in factors]
        b = a * (den // x.den)
        g = gcd(den, b, *row)
        rows.append([c // g for c in row] + [0] * len(slacks))
        rhs.append(b // g)
    return feasible(mass + rows, [1] * len(blocks) + rhs)


def _box_program(gens, x, objective: bool):
    """Shared LP for Conv(Sol(G)) = Conv_b(Sol(G)): x = sum z_k, |z_k| <= lam_k |g_k|.

    Membership fixes the mass, sum lam_k == 1; the gauge minimizes it.
    """
    bounds = [abs(g) for g in gens]
    for i in range(x.dim):
        if x.coords[i] != 0 and all(b.coords[i] == 0 for b in bounds):
            return None  # x leaves the span of the boxes
    lp = LinearProgram()
    lam = [lp.var(cost=1 if objective else 0) for _ in gens]
    split = {}  # (k, i) -> (pos var, neg var)
    for k, b in enumerate(bounds):
        for i, c in enumerate(b.coords):
            if c == 0:
                continue
            u, v = lp.var(), lp.var()
            split[k, i] = (u, v)
            lp.add({u: 1, v: 1, lam[k]: -c}, "<=", 0)
    for i in range(x.dim):
        coeffs = {}
        for k in range(len(gens)):
            if (k, i) in split:
                u, v = split[k, i]
                coeffs[u] = 1
                coeffs[v] = -1
        if coeffs or x.coords[i] != 0:
            lp.add(coeffs, "==", x.coords[i])
    if not objective:
        lp.add({v: 1 for v in lam}, "==", 1)
    return lp


def _in_one_box(gens, x) -> bool:
    """x lies in Sol(gens): some generator box |x| <= |g| contains it."""
    ax = abs(x)
    return any(ax.le(abs(g)) for g in gens)


def member(S: GeneratedSet, x: LatticeElement) -> bool:
    """Exact membership for the supported decorations."""
    _check_dim(S, x)
    deco = S.decoration
    if deco == ():
        return any(g == x for g in S.generators)
    if deco == (SOL,):
        return _in_one_box(S.generators, x)
    if deco in ((CONV,), (CONV_B,)):
        return _sum_hull_member((S.generators,), x, balanced=deco == (CONV_B,))
    if deco in ((SOL, CONV), (SOL, CONV_B)):
        if _in_one_box(S.generators, x):
            return True  # Sol(G) lies inside both convex-solid hulls
        lp = _box_program(S.generators, x, objective=False)
        return lp is not None and lp.feasible()
    raise UnsupportedDecoration(f"membership not implemented for decoration {_quote(deco)}")


def gauge(S: GeneratedSet, x: LatticeElement):
    """Minkowski gauge of a convex solid balanced generated set.

    Returns the exact least total mass of a box decomposition of x, or
    INFINITE when x is outside the span of the generators' boxes.
    """
    _check_dim(S, x)
    if S.decoration not in ((SOL, CONV), (SOL, CONV_B)):
        raise UnsupportedDecoration(
            f"gauge needs a convex solid decoration, got {_quote(S.decoration)}"
        )
    if x.is_zero():
        return Fraction(0)
    lp = _box_program(S.generators, x, objective=True)
    if lp is None:
        return INFINITE
    try:
        value, _ = lp.minimize()
    except InfeasibleLP:  # pragma: no cover - span check rules this out
        return INFINITE
    return value


# ---------------------------------------------------------------------------
# Set algebra at the generator level
# ---------------------------------------------------------------------------


def _distinct(gens) -> tuple[LatticeElement, ...]:
    """The generators in first-seen order, each point once."""
    seen, out = set(), []
    for g in gens:
        if (g.num, g.den) not in seen:
            seen.add((g.num, g.den))
            out.append(g)
    return tuple(out)


def _binary_pre(A: GeneratedSet, B: GeneratedSet):
    if A.dim != B.dim:
        raise DimensionMismatch(f"set algebra across dims {A.dim} and {B.dim}")
    if A.decoration != B.decoration:
        raise ValueError(
            f"set algebra needs matching decorations, got {A.decoration} vs {B.decoration}"
        )


def sum_sets(A: GeneratedSet, B: GeneratedSet) -> GeneratedSet:
    _binary_pre(A, B)
    return GeneratedSet(_distinct(a + b for a in A.generators for b in B.generators), A.decoration)


def union_sets(A: GeneratedSet, B: GeneratedSet) -> GeneratedSet:
    _binary_pre(A, B)
    return GeneratedSet(_distinct(A.generators + B.generators), A.decoration)


def scale_set(A: GeneratedSet, alpha) -> GeneratedSet:
    return GeneratedSet(tuple(g.scale(alpha) for g in A.generators), A.decoration)


def common_generators(A: GeneratedSet, B: GeneratedSet) -> tuple[LatticeElement, ...]:
    bset = {g.coords for g in B.generators}
    return tuple(g for g in A.generators if g.coords in bset)


# ---------------------------------------------------------------------------
# Exact oracles for pointwise algebra of solid hulls
# ---------------------------------------------------------------------------
# Sol(A) is a finite union of boxes, so the pointwise sum/join/meet of two
# solid hulls has a per-generator-pair coordinate test. These oracles decide
# true membership in the pointwise sets (not in any generator construction).


def solid_sum_member(A: GeneratedSet, B: GeneratedSet, z: LatticeElement) -> bool:
    az = abs(z)
    return any(
        az.le(abs(a) + abs(b)) for a in A.generators for b in B.generators
    )


def _pair_box_member(A: GeneratedSet, B: GeneratedSet, z: LatticeElement, low, high) -> bool:
    """z lies in one box [-low(|a|, |b|), high(|a|, |b|)] over the pairs (a, b).

    z and every |g| are compared as numerators over one common denominator.
    """
    den = lcm(z.den, *(g.den for g in A.generators), *(g.den for g in B.generators))

    def box(g):  # the numerators of |g| over den
        f = den // g.den
        return [abs(a) * f for a in g.num]

    f = den // z.den
    zs = [c * f for c in z.num]
    bs = [box(b) for b in B.generators]
    for a in A.generators:
        aa = box(a)
        for ab in bs:
            if all(-low(x, y) <= c <= high(x, y) for x, y, c in zip(aa, ab, zs)):
                return True
    return False


def solid_join_member(A: GeneratedSet, B: GeneratedSet, z: LatticeElement) -> bool:
    # {s ∨ t : |s| <= |a|, |t| <= |b|} is the box [-(|a| ∧ |b|), |a| ∨ |b|]
    return _pair_box_member(A, B, z, min, max)


def solid_meet_member(A: GeneratedSet, B: GeneratedSet, z: LatticeElement) -> bool:
    # {s ∧ t : |s| <= |a|, |t| <= |b|} is the box [-(|a| ∨ |b|), |a| ∧ |b|]
    return _pair_box_member(A, B, z, max, min)


def solid_union_member(A: GeneratedSet, B: GeneratedSet, z: LatticeElement) -> bool:
    az = abs(z)
    return any(az.le(abs(g)) for g in A.generators + B.generators)


def solid_intersect_member(A: GeneratedSet, B: GeneratedSet, z: LatticeElement) -> bool:
    az = abs(z)
    return any(az.le(abs(a)) for a in A.generators) and any(
        az.le(abs(b)) for b in B.generators
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_box_point(rng: SplitStream, bound: LatticeElement) -> LatticeElement:
    """A point of the box |x| <= |bound| on the quarter grid, of the bound's type and shape.

    Each nonzero coordinate c draws a grid 1/d, d in 1..4, then a multiple
    k/d with |k| <= |c| d, as `SplitStream.fraction(-|c|, |c|, 4)` does.
    """
    den = bound.den
    draws = []
    for a in bound.num:
        if a:
            d = rng.randint(1, 4)
            h = abs(a) * d // den
            draws.append((rng.randint(-h, h), d))
        else:
            draws.append((0, 1))
    grid = lcm(*(d for _, d in draws))
    return bound._like(*_lowest(tuple(k * (grid // d) for k, d in draws), grid))


def sample_hull_point(rng: SplitStream, S: GeneratedSet) -> LatticeElement:
    """A random point of the decorated set, built constructively."""
    gens = S.generators
    deco = S.decoration
    if deco == ():
        return rng.choice(gens)
    if deco == (SOL,):
        return sample_box_point(rng, rng.choice(gens))
    if deco in ((CONV,), (SOL, CONV)):
        weights = rng.convex_weights(len(gens))
    elif deco in ((CONV_B,), (SOL, CONV_B)):
        weights = rng.balanced_weights(len(gens))
    else:
        raise UnsupportedDecoration(f"sampling not implemented for decoration {_quote(deco)}")
    if deco[0] == SOL:
        gens = [sample_box_point(rng, g) for g in gens]  # drawn after the weights
    # sum_k w_k g_k over one denominator
    den = lcm(*(w.denominator * g.den for w, g in zip(weights, gens)))
    num = [0] * S.dim
    for w, g in zip(weights, gens):
        f = w.numerator * (den // (w.denominator * g.den))
        if f:
            for i, a in enumerate(g.num):
                num[i] += f * a
    return _element(*_lowest(tuple(num), den))


def random_element(rng: SplitStream, dim: int, lo=-3, hi=3) -> LatticeElement:
    """A point whose coordinates lie on the quarter grid of [lo, hi]."""
    return LatticeElement(tuple(rng.fraction(lo, hi, 4) for _ in range(dim)))


def random_bare_set(rng: SplitStream, dim: int, max_gens: int = 4) -> GeneratedSet:
    """Up to `max_gens` integer generators with coordinates in [-5, 5]."""
    count = rng.randint(1, max_gens)
    gens = tuple(
        LatticeElement.make([rng.randint(-5, 5) for _ in range(dim)]) for _ in range(count)
    )
    return GeneratedSet(gens)


def random_lattice_hom(rng: SplitStream, source_dim: int, target_dim: int) -> LatticeHom:
    rows = []
    for _ in range(target_dim):
        row = [Fraction(0)] * source_dim
        if rng.randint(0, 3):  # a quarter of the rows stay zero
            row[rng.randint(0, source_dim - 1)] = rng.fraction(0, 3, 2)
        rows.append(tuple(row))
    return LatticeHom(tuple(rows))


# ---------------------------------------------------------------------------
# Reports of sampled statements
# ---------------------------------------------------------------------------
# Every sampled check records through these helpers; `_count` keeps the first
# _WITNESS_CAP witnesses. The pinned suite reports freeze three exceptions:
# solid closure appends its join/meet fixture witness past the cap,
# `projective.gauge_equivalence_check` keeps every contradiction, and
# `universal.hom_agreement_check` keeps one witness.

_WITNESS_CAP = 3


def _report(samples):
    return {"samples": samples, "violations": 0, "witnesses": []}


def _count(rep, witness, key="violations", count=1):
    rep[key] += count
    if len(rep["witnesses"]) < _WITNESS_CAP:
        rep["witnesses"].append(witness)


def _violation(rep, index, payload=None):
    _count(rep, {"index": index, **(payload or {})})


def _close(rep, statement_id, statement, key="violations"):
    """Name the statement of a report; it holds when rep[key] counted nothing."""
    rep["id"] = statement_id
    rep["statement"] = statement
    rep["ok"] = rep[key] == 0
    return rep


def _close_checks(checks, statement_id, statement, **fields):
    """A statement made of named sub-reports; it holds when none counted a violation."""
    return {"id": statement_id, "statement": statement, "checks": checks, **fields,
            "ok": all(check["violations"] == 0 for check in checks.values())}


def _observe(expected, counters):
    """Each expected name as "holds", "fails" or "vacuous" (no counter, or only vacuous counts)."""
    observed = {}
    for name in expected:
        c = counters.get(name)
        vacuous = c is None or (c["checked"] == 0 and c.get("vacuous", 0) > 0)
        observed[name] = "vacuous" if vacuous else "fails" if c["violations"] else "holds"
    return observed


# ---------------------------------------------------------------------------
# The eleven hull laws
# ---------------------------------------------------------------------------

LAW_STATEMENTS = {
    1: "the convex hull of a pointwise sum is the sum of the convex hulls",
    2: "the convex balanced hull of a pointwise sum is the sum of the hulls",
    3: "convex (balanced) hulls versus union: hull of the union against union of hulls",
    4: "convex (balanced) hulls versus intersection of the generator sets",
    5: "a point dominated by a sum splits through the solid hulls of the summands",
    6: "every hull commutes with scalar scaling",
    7: "the solid hull of a union is the union of the solid hulls",
    8: "solid hulls versus intersection of the generator sets",
    9: "the solid hull of pointwise joins against joins of solid-hull points",
    10: "the solid hull of pointwise meets against meets of solid-hull points",
    11: "a lattice homomorphism maps solid hulls into the solid hull of the image",
}

# Directions whose sampled checks must come back clean ("holds"), and
# directions whose printed inclusion is genuinely false ("fails", pinned by
# the fixtures below plus whatever the random sampling finds).
LAW_EXPECTATIONS = {
    1: {"sum-splits": "holds", "sum-absorbs": "holds"},
    2: {"sum-splits": "holds", "sum-absorbs": "fails"},
    3: {
        "printed-convb": "fails",
        "reverse-convb": "holds",
        "printed-conv": "fails",
        "reverse-conv": "holds",
    },
    4: {
        "printed-convb": "holds",
        "reverse-convb": "fails",
        "printed-conv": "holds",
        "reverse-conv": "fails",
    },
    5: {"printed": "holds"},
    6: {
        "printed-sol": "holds",
        "reverse-sol": "holds",
        "printed-convb": "holds",
        "reverse-convb": "holds",
        "printed-conv": "holds",
        "reverse-conv": "holds",
    },
    7: {"printed": "holds", "reverse": "holds"},
    8: {"printed": "holds", "reverse": "fails"},
    9: {"printed": "fails", "positive-cone": "holds"},
    10: {"printed": "fails", "negative-cone": "holds"},
    11: {"printed": "holds"},
}


def _hull(S: GeneratedSet, deco: tuple[str, ...]) -> GeneratedSet:
    return GeneratedSet(S.generators, deco)


def _outcome(direction, ok, point, **context):
    """One checked direction; a failure carries the point and any named elements."""
    if ok:
        return direction, "ok", None
    witness = {"point": point.to_json()}
    witness.update((name, value.to_json()) for name, value in context.items())
    return direction, "violation", witness


def _vacuous(direction):
    return direction, "vacuous", None


def _law_sum(inst, rng, balanced: bool):
    A, B = inst["A"], inst["B"]
    deco = (CONV_B,) if balanced else (CONV,)
    # LHS -> RHS: the hull of the pairwise sums splits into a sum of hulls.
    u = sample_hull_point(rng, _hull(sum_sets(A, B), deco))
    out = [_outcome("sum-splits", _sum_hull_member((A.generators, B.generators), u, balanced), u)]
    # RHS -> LHS: a sum of hull points lands in the hull of the pairwise sums.
    x = sample_hull_point(rng, _hull(A, deco))
    y = sample_hull_point(rng, _hull(B, deco))
    out.append(_outcome("sum-absorbs", member(_hull(sum_sets(A, B), deco), x + y), x + y))
    return out


def _law_union(inst, rng, deco, suffix):
    """Hull of the union against the union of the hulls, for one decoration."""
    A, B = inst["A"], inst["B"]
    combined = _hull(union_sets(A, B), deco)
    u = sample_hull_point(rng, combined)
    ok = member(_hull(A, deco), u) or member(_hull(B, deco), u)
    out = [_outcome("printed" + suffix, ok, u)]
    side = A if rng.randint(0, 1) else B
    v = sample_hull_point(rng, _hull(side, deco))
    out.append(_outcome("reverse" + suffix, member(combined, v), v))
    return out


def _law_intersection(inst, rng, deco, suffix):
    """Hull of the common generators against the intersection of the hulls."""
    A, B = inst["A"], inst["B"]
    common = common_generators(A, B)
    out = []
    if common:
        u = sample_hull_point(rng, GeneratedSet(common, deco))
        ok = member(_hull(A, deco), u) and member(_hull(B, deco), u)
        out.append(_outcome("printed" + suffix, ok, u))
    else:
        out.append(_vacuous("printed" + suffix))
    # Reverse: hunt for a point of hull(A) ∩ hull(B) by rejection.
    for _ in range(6):
        u = sample_hull_point(rng, _hull(A, deco))
        if member(_hull(B, deco), u):
            ok = bool(common) and member(GeneratedSet(common, deco), u)
            out.append(_outcome("reverse" + suffix, ok, u))
            return out
    out.append(_vacuous("reverse" + suffix))
    return out


def _law_solid_sum(inst, rng):
    A, B = inst["A"], inst["B"]
    a, b = rng.choice(A.generators), rng.choice(B.generators)
    z = sample_box_point(rng, a + b)
    z1, z2 = riesz_decompose(z, a, b)
    ok = (
        z1 + z2 == z
        and member(_hull(A, (SOL,)), z1)
        and member(_hull(B, (SOL,)), z2)
    )
    return [_outcome("printed", ok, z)]


# The two convex decorations, each with the suffix of its direction names.
_CONV_HULLS = (((CONV_B,), "-convb"), ((CONV,), "-conv"))


def _law_scaling(inst, rng):
    A, alpha = inst["A"], inst["alpha"]
    out = []
    scaled = scale_set(A, alpha)
    # Solid hull, both directions.
    g = rng.choice(A.generators)
    z = sample_box_point(rng, g.scale(alpha))
    ok = z.is_zero() if alpha == 0 else member(_hull(A, (SOL,)), z.scale(1 / Fraction(alpha)))
    out.append(_outcome("printed-sol", ok, z))
    w = sample_box_point(rng, g).scale(alpha)
    out.append(_outcome("reverse-sol", member(_hull(scaled, (SOL,)), w), w))
    # Convex and convex balanced hulls, both directions.
    for deco, suffix in _CONV_HULLS:
        u = sample_hull_point(rng, _hull(scaled, deco))
        if alpha == 0:
            ok = u.is_zero()
        else:
            ok = member(_hull(A, deco), u.scale(1 / Fraction(alpha)))
        out.append(_outcome("printed" + suffix, ok, u))
        v = sample_hull_point(rng, _hull(A, deco)).scale(alpha)
        out.append(_outcome("reverse" + suffix, member(_hull(scaled, deco), v), v))
    return out


def _law_solid_join(inst, rng):
    A, B = inst["A"], inst["B"]
    a, b = rng.choice(A.generators), rng.choice(B.generators)
    z = sample_box_point(rng, a.join(b))
    out = [_outcome("printed", solid_join_member(A, B, z), z, a=a, b=b)]
    # On the positive cone the split is constructive: clamp z against each
    # side; the join of the clamps recovers z because z <= |a| v |b|. A
    # disjoint witness also exists, splitting z along the coordinates where
    # |a| dominates.
    zp = abs(z)
    aa, ab = abs(a), abs(b)
    z1 = zp.meet(aa)
    z2 = zp.meet(ab)
    d1 = LatticeElement(tuple(
        c if aa.coords[i] >= ab.coords[i] else Fraction(0) for i, c in enumerate(zp.coords)
    ))
    d2 = zp - d1
    ok = (
        z1.join(z2) == zp
        and member(_hull(A, (SOL,)), z1)
        and member(_hull(B, (SOL,)), z2)
        and d1.join(d2) == zp
        and d1.meet(d2).is_zero()
        and member(_hull(A, (SOL,)), d1)
        and member(_hull(B, (SOL,)), d2)
        and solid_join_member(A, B, zp)
    )
    out.append(_outcome("positive-cone", ok, zp))
    return out


def _law_solid_meet(inst, rng):
    A, B = inst["A"], inst["B"]
    a, b = rng.choice(A.generators), rng.choice(B.generators)
    z = sample_box_point(rng, a.meet(b))
    out = [_outcome("printed", solid_meet_member(A, B, z), z, a=a, b=b)]
    # Negative-cone variant by order reversal: clamp from below against each
    # side; the meet of the clamps recovers z because z >= -(|a| v |b|).
    zn = -abs(z)
    z1 = zn.join(-abs(a))
    z2 = zn.join(-abs(b))
    ok = (
        z1.meet(z2) == zn
        and member(_hull(A, (SOL,)), z1)
        and member(_hull(B, (SOL,)), z2)
        and solid_meet_member(A, B, zn)
    )
    out.append(_outcome("negative-cone", ok, zn))
    return out


def _law_hom_image(inst, rng):
    A, hom = inst["A"], inst["hom"]
    a = rng.choice(A.generators)
    u = sample_box_point(rng, a)
    w = hom.apply(u)
    image = GeneratedSet(
        tuple(hom.apply(g) for g in A.generators), (SOL,)
    )
    return [_outcome("printed", member(image, w), w)]


def _each_decoration(check, decorations):
    """A law checked once per decoration, in order, on one shared stream."""
    return lambda inst, rng: [
        outcome for deco, suffix in decorations for outcome in check(inst, rng, deco, suffix)
    ]


_LAW_CHECKS = {
    1: lambda inst, rng: _law_sum(inst, rng, balanced=False),
    2: lambda inst, rng: _law_sum(inst, rng, balanced=True),
    3: _each_decoration(_law_union, _CONV_HULLS),
    4: _each_decoration(_law_intersection, _CONV_HULLS),
    5: _law_solid_sum,
    6: _law_scaling,
    7: _each_decoration(_law_union, (((SOL,), ""),)),
    8: _each_decoration(_law_intersection, (((SOL,), ""),)),
    9: _law_solid_join,
    10: _law_solid_meet,
    11: _law_hom_image,
}


def _random_instance(law: int, rng: SplitStream) -> dict:
    dim = rng.randint(1, 5)
    A = random_bare_set(rng, dim)
    inst = {"A": A}
    if law in (4, 8) and rng.randint(0, 2):
        # Force generator overlap so the intersection laws are not vacuous.
        extra = random_bare_set(rng, dim)
        shared = tuple(
            g for g in A.generators if rng.randint(0, 1)
        ) or (A.generators[0],)
        inst["B"] = GeneratedSet(tuple(dict.fromkeys(shared + extra.generators)))
    else:
        inst["B"] = random_bare_set(rng, dim)
    if law == 6:
        inst["alpha"] = rng.fraction(-3, 3, 2)
    if law == 11:
        inst["hom"] = random_lattice_hom(rng, dim, rng.randint(1, 5))
    return inst


# Canonical counterexamples pinning the failing directions. Each fixture
# names the direction, the instance, and a point that is provably in the
# left-hand set but not the right-hand set.
def _fixtures(law: int):
    e = LatticeElement.make
    if law == 2:
        # Balanced weights break the product-weight argument that works for
        # plain convex hulls: with A = {a}, B = {b} the point a - b lies in
        # Conv_b(A) + Conv_b(B) but the hull of the sums is just the segment
        # through a + b.
        A = GeneratedSet((e([1, 0]),))
        B = GeneratedSet((e([0, 1]),))
        pt = e([1, -1])
        return [
            ("sum-absorbs", A, B, pt,
             lambda: _sum_hull_member((A.generators, B.generators), pt, balanced=True)
             and not member(_hull(sum_sets(A, B), (CONV_B,)), pt)),
        ]
    if law == 3:
        A = GeneratedSet((e([1, 0]),))
        B = GeneratedSet((e([0, 1]),))
        pt = e(["1/2", "1/2"])
        return [
            ("printed-convb", A, B, pt,
             lambda: member(_hull(union_sets(A, B), (CONV_B,)), pt)
             and not (member(_hull(A, (CONV_B,)), pt) or member(_hull(B, (CONV_B,)), pt))),
            ("printed-conv", A, B, pt,
             lambda: member(_hull(union_sets(A, B), (CONV,)), pt)
             and not (member(_hull(A, (CONV,)), pt) or member(_hull(B, (CONV,)), pt))),
        ]
    if law == 4:
        A = GeneratedSet((e([1, 0]), e([0, 1])))
        B = GeneratedSet((e([1, 0]), e([0, -1])))
        pt = e(["1/2", "1/2"])
        common = common_generators(A, B)
        A2 = GeneratedSet((e([0, 0]), e([1, 0])))
        B2 = GeneratedSet((e(["1/2", 0]),))
        pt2 = e(["1/2", 0])
        return [
            ("reverse-convb", A, B, pt,
             lambda: member(_hull(A, (CONV_B,)), pt) and member(_hull(B, (CONV_B,)), pt)
             and not member(GeneratedSet(common, (CONV_B,)), pt)),
            ("reverse-conv", A2, B2, pt2,
             lambda: member(_hull(A2, (CONV,)), pt2) and member(_hull(B2, (CONV,)), pt2)
             and not common_generators(A2, B2)),
        ]
    if law == 8:
        A = GeneratedSet((e([2]),))
        B = GeneratedSet((e([1]),))
        pt = e([1])
        return [
            ("reverse", A, B, pt,
             lambda: solid_intersect_member(A, B, pt) and not common_generators(A, B)),
        ]
    if law == 9:
        A = GeneratedSet((e([2, 1]),))
        B = GeneratedSet((e([1, 3]),))
        pt = e([-2, -3])
        return [
            ("printed", A, B, pt,
             lambda: abs(pt).le(abs(A.generators[0].join(B.generators[0])))
             and not solid_join_member(A, B, pt)),
        ]
    if law == 10:
        A = GeneratedSet((e([-1]),))
        B = GeneratedSet((e([0]),))
        pt = e([1])
        return [
            ("printed", A, B, pt,
             lambda: abs(pt).le(abs(A.generators[0].meet(B.generators[0])))
             and not solid_meet_member(A, B, pt)),
        ]
    return []


def _tally(directions: dict, direction: str, status: str, witness):
    """Count one outcome of a direction, keeping its first three witnesses."""
    d = directions.setdefault(
        direction, {"checked": 0, "violations": 0, "vacuous": 0, "witnesses": []}
    )
    if status == "vacuous":
        d["vacuous"] += 1
        return
    d["checked"] += 1
    if status == "violation":
        _count(d, witness)


def hull_law_suite(law: int, *, triples: int, seed: int) -> dict:
    """Run one law over `triples` random (A, B, point) instances, then its fixtures.

    Instances have dims 1..5. The stream of instance i depends only on the
    seed, the law and i. `_observe` reads each direction of LAW_EXPECTATIONS
    as holding, failing or vacuous (never checked), and the law is ok when
    every direction is observed as expected.
    """
    rng = SplitStream(seed).split("hull-law-suite", law)
    directions: dict[str, dict] = {}
    for s in range(triples):
        srng = rng.split(s)
        inst = _random_instance(law, srng.split("instance"))
        for direction, status, witness in _LAW_CHECKS[law](inst, srng.split("points")):
            _tally(directions, direction, status, witness and {**witness, "index": s})
    for direction, A, B, pt, is_counterexample in _fixtures(law):
        _tally(directions, direction, "violation" if is_counterexample() else "ok",
               {"fixture": True, "point": pt.to_json(),
                "A": [g.to_json() for g in A.generators],
                "B": [g.to_json() for g in B.generators],
                "index": "fixture"})
    expected = LAW_EXPECTATIONS[law]
    observed = _observe(expected, directions)
    return {
        "law": law,
        "id": f"hull-law-{law}",
        "statement": LAW_STATEMENTS[law],
        "directions": directions,
        "expected": expected,
        "observed": observed,
        "ok": observed == expected,
    }


# ---------------------------------------------------------------------------
# Solid closure of the set algebra
# ---------------------------------------------------------------------------


def solid_closure_check(*, samples: int, seed: int) -> dict:
    """For solid operands of dims 1..4, which pointwise operations stay solid?

    sum/union/intersection do; join/meet do not (they are only solid on the
    positive cone), and the suite records witnesses for the failures.
    """
    rng = SplitStream(seed).split("solid-closure")
    ops = {
        "plus": (solid_sum_member, lambda s, t: s + t),
        "union": (solid_union_member, None),
        "intersect": (solid_intersect_member, None),
        "join": (solid_join_member, lambda s, t: s.join(t)),
        "meet": (solid_meet_member, lambda s, t: s.meet(t)),
    }
    results = {
        name: {"checked": 0, "violations": 0, "witnesses": [], "cone_violations": 0}
        for name in ops
    }
    for s in range(samples):
        srng = rng.split(s)
        dim = srng.randint(1, 4)
        A = random_bare_set(srng, dim, max_gens=3)
        B = random_bare_set(srng, dim, max_gens=3)
        for name, (oracle, combine) in ops.items():
            orng = srng.split(name)
            if name == "union":
                side = A if orng.randint(0, 1) else B
                x = sample_box_point(orng, orng.choice(side.generators))
            elif name == "intersect":
                a = orng.choice(A.generators)
                b = orng.choice(B.generators)
                x = sample_box_point(orng, abs(a).meet(abs(b)))
            else:
                sa = sample_box_point(orng, orng.choice(A.generators))
                tb = sample_box_point(orng, orng.choice(B.generators))
                x = combine(sa, tb)
            y = sample_box_point(orng, x)
            results[name]["checked"] += 1
            if not oracle(A, B, y):
                _violation(results[name], s, {"x": x.to_json(), "y": y.to_json()})
            if name in ("join", "meet"):
                # One-sided solidity: join on the positive cone, meet on the negative.
                xp = abs(x)
                yp = abs(y).meet(xp)
                probe = yp if name == "join" else -yp
                anchor = xp if name == "join" else -xp
                if oracle(A, B, anchor) and not oracle(A, B, probe):
                    results[name]["cone_violations"] += 1

    e = LatticeElement.make
    A = GeneratedSet((e([1]),))
    B = GeneratedSet((e([0]),))
    fixture = {
        "join": not solid_join_member(A, B, e([-1])),
        "meet": not solid_meet_member(
            GeneratedSet((e([-1]),)), B, e([1])
        ),
    }
    for name, confirmed in fixture.items():
        if confirmed:
            results[name]["violations"] += 1
            results[name]["witnesses"].append({"index": "fixture"})

    expected = {"plus": "holds", "union": "holds", "intersect": "holds",
                "join": "fails", "meet": "fails"}
    observed = _observe(expected, results)
    ok = observed == expected and all(
        results[name]["cone_violations"] == 0 for name in ("join", "meet")
    )
    return {
        "id": "solid-closure",
        "statement": "pointwise sum/union/intersection of solid hulls stay solid; "
                     "join/meet stay solid only on the positive cone",
        "results": results,
        "expected": expected,
        "observed": observed,
        "ok": ok,
    }
