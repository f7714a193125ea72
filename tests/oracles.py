"""Independent oracles the tests compare the package against.

Each oracle reaches the same quantity as the production code through a
different mathematical reduction:

* hull membership / gauge via corner enumeration: the solid hull of finitely
  many generators is a union of boxes, each box is the convex hull of its
  corners, and the balanced convex hull of a symmetric set containing zero is
  its plain convex hull, so membership reduces to one convex-combination
  program over explicit corner points (the production code never enumerates
  corners; it uses per-generator split variables);
* projective-seminorm upper bounds via a grid search: restrict the left
  factors to a fixed rational grid on the unit sphere's positive face and
  optimize the right factors exactly, which is the brute-force decomposition
  search the closed forms are validated against;
* bare hull membership via the generic program builder: `sum_hull_member_lp`
  states ``x in hull(G_1) + ... + hull(G_k)`` through `LinearProgram` and
  decides it with the Fraction two-phase simplex, where the production code
  rejects outside its generators' box, accepts on a line, and otherwise
  builds the integer phase-1 tableau of `simplex.feasible` directly
  (`sum_hull_rows` states that program on Fractions, and `integer_program`
  scales a Fraction program to the integer rows `feasible` takes);
* dual values via a generic linear program (`dual_lower_bound_lp` below,
  which writes out each kind pair's domination constraints by hand instead
  of deriving them from the ray pairs) and, for the simplex itself, scipy's
  float solver;
* the element layer, the samplers and the seminorm closed form on tuples of
  Fractions (the `coords_*` functions and the three samplers at the end),
  where the production code holds integer numerators over one denominator;
* the certificate layer of `projective`, the rays of `TensorSeminorm` and
  the pair-box test of `hulls._pair_box_member` on Fractions, where the
  production code compares and sums element numerators, and the solid sum,
  union and intersection oracles of `hulls` by element operations, where
  the production code runs the two box kernels;
* the set algebra of `hulls` keyed by numerators or coordinates (`distinct`,
  `common_generators`), where the production code compares the elements;
* the random-instance layer as it drew before its integer forms (words
  through `next_word`, uncached label words, instances built from
  Fractions), phase 1 with stored artificial columns, the image sums of
  `Decomposition.bound` and `LatticeBimorphism` one element at a time, and
  `LatticeHom.apply` on Fractions, where the production code runs
  `elements.combination` (the last section).
"""

import hashlib
import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import lcm

from tensorlattice.elements import (
    WEIGHTED_L1,
    WEIGHTED_ORDER_UNIT,
    LatticeElement,
    RieszSeminorm,
)
from tensorlattice.jsonio import as_fraction
from tensorlattice.projective import _check_shapes, _require_weighted
from tensorlattice.rng import _GOLDEN, _WEIGHT_GRID, _mix
from tensorlattice.simplex import InfeasibleLP, LinearProgram
from tensorlattice.tensor import TensorElement, rank_one


def box_corners(g: LatticeElement):
    """All corners of the box [-|g|, |g|]."""
    ranges = [(c, -c) if c != 0 else (Fraction(0),) for c in abs(g).coords]
    return [LatticeElement(tuple(pt)) for pt in product(*ranges)]


def hull_corner_points(generators):
    """Corner presentation of Conv_b(Sol(G)): convex hull of all box corners and 0."""
    points = [LatticeElement.zero(generators[0].dim)]
    seen = {points[0].coords}
    for g in generators:
        for corner in box_corners(g):
            if corner.coords not in seen:
                seen.add(corner.coords)
                points.append(corner)
    return points


def corner_member(generators, x: LatticeElement) -> bool:
    """x in Conv({corners}) decided by one feasibility program."""
    points = hull_corner_points(generators)
    lp = LinearProgram()
    lams = [lp.var() for _ in points]
    for i in range(x.dim):
        lp.add({lam: pt.coords[i] for lam, pt in zip(lams, points)}, "==", x.coords[i])
    lp.add({lam: 1 for lam in lams}, "==", 1)
    return lp.feasible()


def sum_hull_member_lp(blocks, x: LatticeElement, balanced: bool) -> bool:
    """x in hull(G_1) + ... + hull(G_k), one LP: a mass row per block, then x.

    Each block gets its own weights: convex (sum == 1) or balanced (positive
    and negative parts with total <= 1).
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


def corner_gauge(generators, x: LatticeElement):
    """Minkowski functional via the corner presentation; None when x is off-span."""
    if x.is_zero():
        return Fraction(0)
    points = hull_corner_points(generators)
    lp = LinearProgram()
    lams = [lp.var(cost=1) for _ in points]
    for i in range(x.dim):
        lp.add({lam: pt.coords[i] for lam, pt in zip(lams, points)}, "==", x.coords[i])
    try:
        value, _ = lp.minimize()
    except InfeasibleLP:
        return None
    return value


def l1_sphere_grid(dim: int, step: Fraction):
    """Grid points on the positive face of the weighted-l1 unit sphere (unit weights)."""
    ticks = []
    t = Fraction(0)
    while t <= 1:
        ticks.append(t)
        t += step
    points = []
    for combo in product(ticks, repeat=dim):
        if sum(combo, Fraction(0)) == 1:
            points.append(LatticeElement(tuple(combo)))
    return points


def sup_sphere_grid(dim: int, step: Fraction):
    """Grid points with max coordinate exactly 1 (order-unit sphere, unit weights)."""
    ticks = []
    t = Fraction(0)
    while t <= 1:
        ticks.append(t)
        t += step
    points = []
    seen = set()
    for combo in product(ticks, repeat=dim):
        if max(combo) == 1 and combo not in seen:
            seen.add(combo)
            points.append(LatticeElement(tuple(combo)))
    return points


def _inner_value(xs, u_abs: TensorElement, q: RieszSeminorm):
    """Best right factors for fixed left factors, one exact program.

    Minimizes sum_k q(y_k) over y_k >= 0 with sum_k x_k (x) y_k >= |u|.
    The left factors are unit-sphere points, so this value is the
    decomposition value for that choice of left factors.
    """
    n, m = u_abs.shape
    lp = LinearProgram()
    ys = []
    for x in xs:
        if q.kind == WEIGHTED_L1:
            ys.append([lp.var(cost=q.weights[j]) for j in range(m)])
        else:
            t = lp.var(cost=1)
            row = [lp.var() for _ in range(m)]
            for j in range(m):
                lp.add({row[j]: 1, t: -q.weights[j]}, "<=", 0)
            ys.append(row)
    for i in range(n):
        for j in range(m):
            coeffs = {}
            for x, row in zip(xs, ys):
                if x.coords[i] != 0:
                    coeffs[row[j]] = coeffs.get(row[j], Fraction(0)) + x.coords[i]
            lp.add(coeffs, ">=", u_abs.entries[i][j])
    try:
        value, assignment = lp.minimize()
    except InfeasibleLP:
        return None, None
    terms = [
        (x, LatticeElement(tuple(assignment[v] for v in row)))
        for x, row in zip(xs, ys)
    ]
    return value, terms


def grid_decomposition_value(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement,
                             step=Fraction(1, 8), k_max: int = 4):
    """Brute-force upper bound: left factors from the grid, right factors exact.

    For the weighted-l1 left kind the whole grid enters one program whose
    basic optimum uses at most n*m nonzero right coordinates (so at most
    k_max = n*m terms for 2x2 instances); for the order-unit left kind,
    subsets of grid points of size up to k_max are enumerated outright.
    Returns an upper bound on the projective seminorm, or None if the grid
    cannot dominate u (never happens with an order unit on the grid).
    """
    n, m = u.shape
    au = abs(u)
    if au.is_zero():
        return Fraction(0)
    if p.kind == WEIGHTED_L1:
        grid = l1_sphere_grid(n, step)
        value, terms = _inner_value(grid, au, q)
        if value is None:
            return None
        used = sum(1 for _, y in terms if any(c != 0 for c in y.coords))
        assert used <= n * m, f"basic solution used {used} terms"
        return value
    grid = sup_sphere_grid(n, step)
    best = None
    for k in range(1, k_max + 1):
        for chosen in combinations(grid, k):
            value, _ = _inner_value(list(chosen), au, q)
            if value is not None and (best is None or value < best):
                best = value
        if best is not None and k >= 2:
            break  # small instances close by two terms; deeper search never improved
    return best


def grid_decomposition_value_deep(p, q, u, step=Fraction(1, 8), k_max: int = 4):
    """The order-unit grid search without the early exit (slow, for spot checks)."""
    n, m = u.shape
    au = abs(u)
    if au.is_zero():
        return Fraction(0)
    grid = sup_sphere_grid(n, step) if p.kind == WEIGHTED_ORDER_UNIT else l1_sphere_grid(n, step)
    best = None
    for k in range(1, k_max + 1):
        for chosen in combinations(grid, k):
            value, _ = _inner_value(list(chosen), au, q)
            if value is not None and (best is None or value < best):
                best = value
    return best


def dual_lower_bound_lp(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement) -> Fraction:
    """The same dual optimum via a generic linear program.

    Kept as an independent cross-check of the closed-form construction; the
    production path never calls it.
    """
    _require_weighted(p, q)
    _check_shapes(p, q, u)
    n, m = u.shape
    w, v = p.weights, q.weights
    lp = LinearProgram()
    M = [[lp.var(cost=-abs(u.entries[i][j])) for j in range(m)] for i in range(n)]
    if p.kind == WEIGHTED_L1 and q.kind == WEIGHTED_L1:
        for i in range(n):
            for j in range(m):
                lp.add({M[i][j]: 1}, "<=", w[i] * v[j])
    elif p.kind == WEIGHTED_ORDER_UNIT and q.kind == WEIGHTED_ORDER_UNIT:
        lp.add({M[i][j]: w[i] * v[j] for i in range(n) for j in range(m)}, "<=", 1)
    elif p.kind == WEIGHTED_L1:
        for i in range(n):
            lp.add({M[i][j]: v[j] for j in range(m)}, "<=", w[i])
    else:
        for j in range(m):
            lp.add({M[i][j]: w[i] for i in range(n)}, "<=", v[j])
    value, _ = lp.minimize()
    return -value


# ---------------------------------------------------------------------------
# The element layer on tuples of Fractions
# ---------------------------------------------------------------------------
# Each function takes and returns coordinate tuples and does its arithmetic
# on Fractions, one coordinate at a time.


def coords_join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def coords_meet(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def coords_abs(a):
    return tuple(abs(x) for x in a)


def coords_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def coords_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def coords_neg(a):
    return tuple(-x for x in a)


def coords_scale(a, alpha):
    alpha = as_fraction(alpha)
    return tuple(alpha * x for x in a)


def coords_le(a, b):
    return all(x <= y for x, y in zip(a, b))


def coords_is_zero(a):
    return all(x == 0 for x in a)


def coords_rank_one(a, b):
    """The row-major entries of a (x) b."""
    return tuple(x * y for x in a for y in b)


# ---------------------------------------------------------------------------
# Samplers and the seminorm closed form on tuples of Fractions
# ---------------------------------------------------------------------------
# They draw from a `SplitStream` through `randint` and `sign` only, in the
# order the production samplers draw.


def grid_fraction(rng, lo, hi, denominator):
    """Uniform point of the denominator-grid inside [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    d = rng.randint(1, denominator)
    lo_num = -((-lo.numerator * d) // lo.denominator)  # ceil(lo*d)
    hi_num = (hi.numerator * d) // hi.denominator  # floor(hi*d)
    if hi_num < lo_num:
        return lo  # interval thinner than the grid
    return Fraction(rng.randint(lo_num, hi_num), d)


def convex_weights(rng, count, total=1):
    """Nonnegative rationals summing exactly to `total`."""
    total = Fraction(total)
    raw = [rng.randint(0, _WEIGHT_GRID) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randint(0, count - 1)] = 1
    s = sum(raw)
    return [Fraction(r, s) * total for r in raw]


def balanced_weights(rng, count, ceiling=1):
    """Signed rationals with sum of absolute values <= ceiling."""
    mass = Fraction(rng.randint(0, _WEIGHT_GRID), _WEIGHT_GRID) * Fraction(ceiling)
    if mass == 0:
        return [Fraction(0)] * count
    return [w * rng.sign() for w in convex_weights(rng, count, total=mass)]


def sample_box_coords(rng, bound):
    """A point of the box |x| <= |bound| on the quarter grid."""
    return tuple(grid_fraction(rng, -c, c, 4) if c != 0 else Fraction(0)
                 for c in coords_abs(bound))


def sample_hull_coords(rng, generators, decoration):
    """A point of the decorated set of the coordinate tuples `generators`."""
    gens = list(generators)
    if decoration == ():
        return rng.choice(gens)
    if decoration == ("Sol",):
        return sample_box_coords(rng, rng.choice(gens))
    if decoration in (("Conv",), ("Sol", "Conv")):
        weights = convex_weights(rng, len(gens))
    elif decoration in (("Conv_b",), ("Sol", "Conv_b")):
        weights = balanced_weights(rng, len(gens))
    else:
        raise ValueError(f"no sampler for {decoration}")
    if decoration[0] == "Sol":
        gens = [sample_box_coords(rng, g) for g in gens]  # drawn after the weights
    point = (Fraction(0),) * len(gens[0])
    for w, g in zip(weights, gens):
        point = coords_add(point, coords_scale(g, w))
    return point


def ray_closed_form(p: RieszSeminorm, x):
    """p(x) = sum_d p(d) max_{i in supp d} |x_i| / d_i, for rays that partition."""
    assert p.rays_partition
    scales = [tuple((i, pd / di) for i, di in d) for pd, d in p.rays]
    units = tuple(ray[0] for ray in scales if len(ray) == 1)
    blocks = tuple(ray for ray in scales if len(ray) > 1)
    return reduce(operator.add, [abs(x[i]) * s for i, s in units]
                  + [max(abs(x[i]) * s for i, s in ray) for ray in blocks])


# ---------------------------------------------------------------------------
# The certificate layer on Fractions
# ---------------------------------------------------------------------------
# The bodies `projective` had before its certificate arithmetic moved onto
# element numerators: every ratio, scale, dual entry and value is a Fraction
# built from `coords` and `RieszSeminorm.rays`.


def tensor_rays(p: RieszSeminorm, q: RieszSeminorm):
    """The rays of p (x) q from Fraction products: for each ray pair (d, e),
    p's rays outermost, the scale p(d) q(e) and the cells (k, d_i e_j) of
    the block supp(d) x supp(e), in row-major order."""
    m = q.dim
    return tuple((pd * qe, tuple((i * m + j, di * ej) for i, di in d for j, ej in e))
                 for pd, d in p.rays for qe, e in q.rays)


def block_maxima(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement):
    """Per block: (scale, ratio, k, c) for the cell k with the largest ratio
    |u_k| / c, the first in row-major order on ties."""
    out = []
    for scale, cells in tensor_rays(p, q):
        best = None
        for k, c in cells:
            ratio = abs(u.coords[k]) / c
            if best is None or ratio > best[1]:
                best = (scale, ratio, k, c)
        out.append(best)
    return out


def block_dual(maxima, u: TensorElement) -> TensorElement:
    """The dual matrix that spends each block's budget on its largest cell."""
    M = [Fraction(0)] * u.dim
    for scale, _, k, c in maxima:
        M[k] = scale / c
    return TensorElement(tuple(M), u.shape)


def dual_value(M: TensorElement, u: TensorElement) -> Fraction:
    return sum((m * abs(c) for m, c in zip(M.coords, u.coords)), Fraction(0))


def dual_dominates(M: TensorElement, p: RieszSeminorm, q: RieszSeminorm) -> bool:
    """sum_ij M_ij d_i e_j <= p(d) q(e) on every ray pair (d, e)."""
    return all(
        sum((M.coords[k] * c for k, c in cells), Fraction(0)) <= scale
        for scale, cells in tensor_rays(p, q)
    )


def seminorm_value(p: RieszSeminorm, x: LatticeElement) -> Fraction:
    return ray_closed_form(p, x.coords) if p.rays_partition else p(x)


def decomposition_value(terms, p: RieszSeminorm, q: RieszSeminorm) -> Fraction:
    return sum((seminorm_value(p, x) * seminorm_value(q, y) for x, y in terms), Fraction(0))


def dominating_candidate(u: TensorElement):
    """Row maxima of |u| against the all-ones vector."""
    n, m = u.shape
    au = coords_abs(u.coords)
    return ((LatticeElement(tuple(max(au[i * m:(i + 1) * m]) for i in range(n))),
             LatticeElement((Fraction(1),) * m)),)


def scaled_unit_candidate(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement):
    m = u.shape[1]
    w, v = (LatticeElement.sparse(s.dim, ((i, pd * di) for pd, d in s.rays for i, di in d))
            for s in (p, q))
    c = Fraction(0)
    for k, e in enumerate(u.coords):
        if e == 0:
            continue
        denom = w.coords[k // m] * v.coords[k % m]
        if denom == 0:
            return ()
        c = max(c, abs(e) / denom)
    return ((w.scale(c), v),)


def row_candidate(u: TensorElement):
    n, m = u.shape
    terms = []
    for i in range(n):
        row = u.coords[i * m:(i + 1) * m]
        if any(c != 0 for c in row):
            terms.append((LatticeElement.unit(n, i), LatticeElement(tuple(abs(c) for c in row))))
    return tuple(terms)


def col_candidate(u: TensorElement):
    n, m = u.shape
    terms = []
    for j in range(m):
        col = [abs(c) for c in u.coords[j::m]]
        if any(c != 0 for c in col):
            terms.append((LatticeElement(tuple(col)), LatticeElement.unit(m, j)))
    return tuple(terms)


def block_candidate(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement, maxima):
    n, m = u.shape
    pairs = [(d, e) for _, d in p.rays for _, e in q.rays]
    return tuple(
        (LatticeElement.sparse(n, ((i, ratio * di) for i, di in d)), LatticeElement.sparse(m, e))
        for (d, e), (_, ratio, _, _) in zip(pairs, maxima)
        if ratio > 0
    )


def pair_box_member(A_generators, B_generators, z: LatticeElement, low, high) -> bool:
    """z lies in one box [-low(|a|, |b|), high(|a|, |b|)] over the pairs (a, b)."""
    for a in A_generators:
        aa = coords_abs(a.coords)
        for b in B_generators:
            ab = coords_abs(b.coords)
            if all(-low(aa[i], ab[i]) <= c <= high(aa[i], ab[i]) for i, c in enumerate(z.coords)):
                return True
    return False


def solid_sum_member(A, B, z: LatticeElement) -> bool:
    """z lies in Sol(A) + Sol(B): |z| <= |a| + |b| for some pair, by element operations."""
    az = abs(z)
    return any(az.le(abs(a) + abs(b)) for a in A.generators for b in B.generators)


def solid_union_member(A, B, z: LatticeElement) -> bool:
    az = abs(z)
    return any(az.le(abs(g)) for g in A.generators + B.generators)


def solid_intersect_member(A, B, z: LatticeElement) -> bool:
    az = abs(z)
    return any(az.le(abs(a)) for a in A.generators) and any(az.le(abs(b)) for b in B.generators)


# ---------------------------------------------------------------------------
# The generator-level set algebra, keyed by coordinates
# ---------------------------------------------------------------------------
# `hulls.sum_sets` and `union_sets` keep each generator once with
# `dict.fromkeys` over the elements, and `hulls.common_generators` looks A's
# generators up in a set of B's elements; these key a generator by its
# numerators and denominator, or by its Fraction coordinates.


def distinct(gens) -> tuple:
    """The generators in first-seen order, each point once."""
    seen, out = set(), []
    for g in gens:
        if (g.num, g.den) not in seen:
            seen.add((g.num, g.den))
            out.append(g)
    return tuple(out)


def common_generators(A, B) -> tuple:
    """A's generators, in order and with repeats, whose coordinates a generator of B has."""
    bset = {g.coords for g in B.generators}
    return tuple(g for g in A.generators if g.coords in bset)


# ---------------------------------------------------------------------------
# The random-instance layer, the bare phase 1 and the image sums, as they were
# ---------------------------------------------------------------------------
# The stream's draws through `next_word` and an uncached blake2b label word,
# the random instances built from Fractions, `simplex.feasible` with its
# artificial columns stored, the sums of `Decomposition.bound` and
# `LatticeBimorphism` added one scaled element at a time, and
# `LatticeHom.apply` summed on Fractions.


def label_word(label) -> int:
    data = repr(label).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def next_word(rng) -> int:
    """The stream's next word: the counter steps once, and word i is _mix(key + i * golden)."""
    rng._counter += 1
    return _mix((rng._key + rng._counter * _GOLDEN) & ((1 << 64) - 1))


def randint(rng, lo, hi):
    """Uniform integer in [lo, hi]. Each attempt reads the next k words as one
    integer, the first most significant, k the fewest with 2**(64k) >= the
    span: one word for any span up to 2**64."""
    span = hi - lo + 1
    words = max(1, ((span - 1).bit_length() + 63) // 64)
    size = 1 << 64 * words
    limit = size - (size % span)
    while True:
        w = 0
        for _ in range(words):
            w = w << 64 | next_word(rng)
        if w < limit:
            return lo + (w % span)


def random_element(rng, dim, lo=-3, hi=3) -> LatticeElement:
    return LatticeElement(tuple(grid_fraction(rng, lo, hi, 4) for _ in range(dim)))


def random_tensor(rng, n, m, lo=-3, hi=3) -> TensorElement:
    return TensorElement(random_element(rng, n * m, lo, hi).coords, (n, m))


def random_bare_generators(rng, dim, max_gens=4):
    count = rng.randint(1, max_gens)
    return tuple(LatticeElement.make([rng.randint(-5, 5) for _ in range(dim)])
                 for _ in range(count))


def integer_program(rows, rhs):
    """rows.x == rhs on integers: each row and its rhs times the lcm of their denominators."""
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = lcm(b.denominator, *(a.denominator for a in row))
        int_rows.append([a.numerator * (scale // a.denominator) for a in row])
        int_rhs.append(b.numerator * (scale // b.denominator))
    return int_rows, int_rhs


def sum_hull_rows(blocks, x: LatticeElement, balanced: bool):
    """x in hull(G_1) + ... + hull(G_k) as Fraction rows: a mass row per block
    (its columns, and its slack when balanced, summing to 1), then x."""
    signs = (1, -1) if balanced else (1,)
    columns = [(b, s, g) for b, gens in enumerate(blocks) for s in signs for g in gens]
    slacks = range(len(blocks)) if balanced else ()
    mass = [[Fraction(b == k) for b, _, _ in columns] + [Fraction(s == k) for s in slacks]
            for k in range(len(blocks))]
    rows = [[s * g.coords[i] for _, s, g in columns] + [Fraction(0)] * len(slacks)
            for i in range(x.dim)]
    return mass + rows, [Fraction(1)] * len(blocks) + list(x.coords)


def feasible_with_artificials(rows, rhs) -> bool:
    """Integer phase 1 with one stored artificial column per row, free to re-enter."""
    m = len(rows)
    tableau = []
    for i, (ints, b) in enumerate(zip(*integer_program(rows, rhs))):
        if b < 0:
            ints = [-a for a in ints]
            b = -b
        artificial = [0] * m
        artificial[i] = 1
        tableau.append(ints + artificial + [b])
    if not tableau:
        return True
    ncols = len(tableau[0]) - 1
    basis = list(range(ncols - m, ncols))
    obj = [-sum(column) for column in zip(*tableau)]
    obj[ncols - m:ncols] = [0] * m
    d = 1
    while obj[-1]:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return False
        leave = None
        for i, r in enumerate(tableau):
            c = r[enter]
            if c > 0:
                diff = r[-1] * best[1] - best[0] * c if leave is not None else -1
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave, best = i, (r[-1], c)
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for r in [*tableau, obj]:
            if r is pivot_row:
                continue
            f = r[enter]
            if f:
                r[:] = [(p * a - f * b) // d for a, b in zip(r, pivot_row)]
            elif p != d:
                r[:] = [p * a // d for a in r]
        basis[leave] = enter
        d = p
    return True


def decomposition_bound(shape, terms) -> TensorElement:
    total = TensorElement.zero(*shape)
    for x, y in terms:
        total = total + rank_one(x, y)
    return total


def bimorphism_call(phi, x: LatticeElement, y: LatticeElement) -> LatticeElement:
    total = LatticeElement.zero(phi.target_dim)
    for i, xi in enumerate(x.coords):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coords):
            if yj == 0:
                continue
            total = total + phi.images[i][j].scale(xi * yj)
    return total


def bimorphism_apply(phi, u: TensorElement) -> LatticeElement:
    m = phi.source_shape[1]
    total = LatticeElement.zero(phi.target_dim)
    for k, c in enumerate(u.coords):
        if c != 0:
            total = total + phi.images[k // m][k % m].scale(c)
    return total


def hom_apply(hom, x: LatticeElement) -> LatticeElement:
    return LatticeElement(tuple(
        sum((a * c for a, c in zip(row, x.coords)), Fraction(0)) for row in hom.rows
    ))
