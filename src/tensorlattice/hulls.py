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
   ``Conv_b`` of bare generators go straight to it, and ``Conv_b(Sol(G))`` (a
   union of boxes, convexified) is one program whose gauge is the same
   program with the mass row turned into the objective.

The second half of the module is the law suite: eleven identities and
inclusions relating hulls to pointwise set algebra, each checked by sampling
points from the left-hand side and deciding right-hand membership with an
oracle that is independent of the sampling construction. Four of the eleven
are stated in a direction that is not the one that actually holds, and two
hold only on a cone; the checkers test both directions/variants and report
which one survives, with explicit witnesses for the failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elements import (
    INFINITE,
    DimensionMismatch,
    LatticeElement,
    LatticeHom,
    riesz_decompose,
)
from .jsonio import FormatError, require_key
from .rng import SplitStream
from .simplex import InfeasibleLP, LinearProgram

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
                raise UnsupportedDecoration(f"unknown hull operator {d!r}")

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    def member(self, x: LatticeElement) -> bool:
        return member(self, x)

    def to_json(self) -> dict:
        return {
            "generators": [g.to_json() for g in self.generators],
            "decoration": list(self.decoration),
        }

    @staticmethod
    def from_json(data, field: str = "set") -> "GeneratedSet":
        gens = require_key(data, "generators", field)
        if not isinstance(gens, list) or not gens:
            raise FormatError(f"{field}.generators", "expected a nonempty list")
        deco = data.get("decoration", [])
        if not isinstance(deco, list):
            raise FormatError(f"{field}.decoration", "expected a list of hull names")
        return GeneratedSet(
            tuple(
                LatticeElement.from_json(g, f"{field}.generators[{i}]")
                for i, g in enumerate(gens)
            ),
            tuple(deco),
        )


def _check_dim(S: GeneratedSet, x: LatticeElement):
    if S.dim != x.dim:
        raise DimensionMismatch(f"set over dim {S.dim} probed with dim {x.dim}")


# ---------------------------------------------------------------------------
# Membership and gauge
# ---------------------------------------------------------------------------


def _sum_hull_member(blocks, x, balanced: bool) -> bool:
    """x in hull(G_1) + ... + hull(G_k), one LP: a mass row per block, then x.

    Each block gets its own weights: convex (sum == 1) or balanced (positive
    and negative parts with total <= 1). One block is plain hull membership.
    """
    lp = LinearProgram()
    weights = []
    for gens in blocks:
        if balanced:
            pos = [lp.var() for _ in gens]
            neg = [lp.var() for _ in gens]
            lp.add({v: 1 for v in pos + neg}, "<=", 1)
            weights.append((gens, pos, neg))
        else:
            lam = [lp.var() for _ in gens]
            lp.add({v: 1 for v in lam}, "==", 1)
            weights.append((gens, lam, None))
    for i in range(x.dim):
        coeffs = {}
        for gens, pos, neg in weights:
            for k, g in enumerate(gens):
                if g.coords[i] != 0:
                    coeffs[pos[k]] = g.coords[i]
                    if neg is not None:
                        coeffs[neg[k]] = -g.coords[i]
        lp.add(coeffs, "==", x.coords[i])
    return lp.feasible()


def _box_program(gens, x, objective: bool, convex_row: str | None):
    """Shared LP for Conv_b(Sol(G)) / Conv(Sol(G)): x = sum z_k, |z_k| <= lam_k |g_k|."""
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
    if convex_row == "==":
        lp.add({v: 1 for v in lam}, "==", 1)
    elif convex_row == "<=":
        lp.add({v: 1 for v in lam}, "<=", 1)
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
        lp = _box_program(S.generators, x, objective=False,
                          convex_row="==" if deco == (SOL, CONV) else "<=")
        return lp is not None and lp.feasible()
    raise UnsupportedDecoration(f"membership not implemented for decoration {deco}")


def gauge(S: GeneratedSet, x: LatticeElement):
    """Minkowski gauge of a convex solid balanced generated set.

    Returns the exact least total mass of a box decomposition of x, or
    INFINITE when x is outside the span of the generators' boxes.
    """
    _check_dim(S, x)
    if S.decoration not in ((SOL, CONV), (SOL, CONV_B)):
        raise UnsupportedDecoration(
            f"gauge needs a convex solid decoration, got {S.decoration}"
        )
    if x.is_zero():
        return Fraction(0)
    lp = _box_program(S.generators, x, objective=True, convex_row=None)
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


def _pairwise(A: GeneratedSet, B: GeneratedSet, combine) -> tuple[LatticeElement, ...]:
    seen, out = set(), []
    for a in A.generators:
        for b in B.generators:
            g = combine(a, b)
            if g.coords not in seen:
                seen.add(g.coords)
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
    return GeneratedSet(_pairwise(A, B, lambda a, b: a + b), A.decoration)


def join_sets(A: GeneratedSet, B: GeneratedSet) -> GeneratedSet:
    _binary_pre(A, B)
    return GeneratedSet(_pairwise(A, B, lambda a, b: a.join(b)), A.decoration)


def meet_sets(A: GeneratedSet, B: GeneratedSet) -> GeneratedSet:
    _binary_pre(A, B)
    return GeneratedSet(_pairwise(A, B, lambda a, b: a.meet(b)), A.decoration)


def union_sets(A: GeneratedSet, B: GeneratedSet) -> GeneratedSet:
    _binary_pre(A, B)
    seen, out = set(), []
    for g in A.generators + B.generators:
        if g.coords not in seen:
            seen.add(g.coords)
            out.append(g)
    return GeneratedSet(tuple(out), A.decoration)


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
    """z lies in one box [-low(|a|, |b|), high(|a|, |b|)] over the pairs (a, b)."""
    for a in A.generators:
        aa = abs(a).coords
        for b in B.generators:
            ab = abs(b).coords
            if all(-low(aa[i], ab[i]) <= c <= high(aa[i], ab[i]) for i, c in enumerate(z.coords)):
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


def sample_box_point(rng: SplitStream, bound: LatticeElement, denominator: int = 4) -> LatticeElement:
    ab = abs(bound)
    return LatticeElement(
        tuple(rng.fraction(-c, c, denominator) if c != 0 else Fraction(0) for c in ab.coords)
    )


def sample_hull_point(rng: SplitStream, S: GeneratedSet, margin=Fraction(0), with_witness=False):
    """A random point of the decorated set, built constructively.

    For balanced decorations `margin` shrinks the total mass to 1 - margin,
    yielding interior points. The witness (when requested) is the list of
    (weight, box point) pairs proving membership.
    """
    gens = S.generators
    deco = S.decoration
    margin = Fraction(margin)
    if deco == ():
        point = rng.choice(gens)
        return (point, [(Fraction(1), point)]) if with_witness else point
    if deco == (SOL,):
        g = rng.choice(gens)
        point = sample_box_point(rng, g)
        return (point, [(Fraction(1), point)]) if with_witness else point
    if deco == (CONV,):
        weights = rng.convex_weights(len(gens))
        terms = list(zip(weights, gens))
    elif deco == (CONV_B,):
        weights = rng.balanced_weights(len(gens), ceiling=1 - margin)
        terms = list(zip(weights, gens))
    elif deco in ((SOL, CONV), (SOL, CONV_B)):
        if deco == (SOL, CONV):
            weights = rng.convex_weights(len(gens))
        else:
            weights = rng.balanced_weights(len(gens), ceiling=1 - margin)
        terms = [(w, sample_box_point(rng, g)) for w, g in zip(weights, gens)]
    else:
        raise UnsupportedDecoration(f"sampling not implemented for decoration {deco}")
    point = LatticeElement.zero(S.dim)
    for w, u in terms:
        point = point + u.scale(w)
    return (point, terms) if with_witness else point


def random_bare_set(rng: SplitStream, dim: int, max_gens: int = 4, lo: int = -5, hi: int = 5) -> GeneratedSet:
    count = rng.randint(1, max_gens)
    gens = tuple(
        LatticeElement.make([rng.randint(lo, hi) for _ in range(dim)]) for _ in range(count)
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


def _random_instance(law: int, rng: SplitStream, dim_lo=1, dim_hi=5) -> dict:
    dim = rng.randint(dim_lo, dim_hi)
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
        d["violations"] += 1
        if witness is not None and len(d["witnesses"]) < 3:
            d["witnesses"].append(witness)


def hull_law_check(law: int, A: GeneratedSet | None, B: GeneratedSet | None,
                   samples: int, seed: int, *, alpha=None, hom: LatticeHom | None = None) -> dict:
    """Check one law on one operand pair, `samples` sampled points per direction."""
    if law not in _LAW_CHECKS:
        raise ValueError(f"law must be 1..11, got {law}")
    rng = SplitStream(seed).split("hull-law", law)
    if A is None:
        raise ValueError("operand A is required")
    inst = {"A": A, "B": B if B is not None else A}
    if law == 6:
        inst["alpha"] = Fraction(alpha) if alpha is not None else Fraction(2)
    if law == 11:
        inst["hom"] = hom if hom is not None else LatticeHom.make(
            [[1 if i == j else 0 for i in range(A.dim)] for j in range(A.dim)]
        )
    directions: dict[str, dict] = {}
    for s in range(samples):
        for outcome in _LAW_CHECKS[law](inst, rng.split(s)):
            _tally(directions, *outcome)
    return {
        "law": law,
        "id": f"hull-law-{law}",
        "statement": LAW_STATEMENTS[law],
        "directions": directions,
    }


def hull_law_suite(law: int, *, triples: int, seed: int, dim_lo: int = 1, dim_hi: int = 5) -> dict:
    """Run one law over `triples` random (A, B, point) instances, then its fixtures.

    The stream of instance i depends only on the seed, the law and i.
    """
    rng = SplitStream(seed).split("hull-law-suite", law)
    directions: dict[str, dict] = {}
    for s in range(triples):
        srng = rng.split(s)
        inst = _random_instance(law, srng.split("instance"), dim_lo, dim_hi)
        for direction, status, witness in _LAW_CHECKS[law](inst, srng.split("points")):
            _tally(directions, direction, status, witness and {**witness, "index": s})
    for direction, A, B, pt, is_counterexample in _fixtures(law):
        _tally(directions, direction, "violation" if is_counterexample() else "ok",
               {"fixture": True, "point": pt.to_json(),
                "A": [g.to_json() for g in A.generators],
                "B": [g.to_json() for g in B.generators],
                "index": "fixture"})
    return law_verdict(law, directions)


def law_verdict(law: int, directions: dict) -> dict:
    """The report of one law: its direction counts against LAW_EXPECTATIONS.

    A direction is observed to hold, to fail, or to be vacuous (never
    checked); the law is ok when every direction is observed as expected.
    """
    expected = LAW_EXPECTATIONS[law]
    observed = {}
    ok = True
    for direction, exp in expected.items():
        d = directions.get(direction)
        if d is None or (d["checked"] == 0 and d["vacuous"] > 0):
            observed[direction] = "vacuous"
            ok = False
            continue
        observed[direction] = "fails" if d["violations"] else "holds"
        if observed[direction] != exp:
            ok = False
    return {
        "law": law,
        "id": f"hull-law-{law}",
        "statement": LAW_STATEMENTS[law],
        "directions": directions,
        "expected": expected,
        "observed": observed,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Solid closure of the set algebra
# ---------------------------------------------------------------------------


def solid_closure_check(*, samples: int, seed: int, dim_lo: int = 1, dim_hi: int = 4) -> dict:
    """For solid operands, which pointwise operations stay solid?

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
        dim = srng.randint(dim_lo, dim_hi)
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
                results[name]["violations"] += 1
                if len(results[name]["witnesses"]) < 3:
                    results[name]["witnesses"].append(
                        {"index": s, "x": x.to_json(), "y": y.to_json()}
                    )
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
    observed = {
        name: ("fails" if results[name]["violations"] else "holds") for name in ops
    }
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
