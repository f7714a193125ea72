"""The projective Riesz seminorm on the tensor model, as certified intervals.

For Riesz seminorms p on Q^n and q on Q^m, the projective seminorm of a
tensor element u is

    (p (x) q)(u) = inf { sum_k p(x_k) q(y_k) : x_k, y_k >= 0,
                         |u| <= sum_k x_k (x) y_k  entrywise }.

The infimum is a bilinear optimization problem, so this module never returns
a bare number for it. The contract is a `SeminormCertificate`: an interval
[lower, upper] where

* the upper bound carries a `Decomposition` witness (explicit feasible
  x_k, y_k), and
* the lower bound carries a `DualCertificate` witness: an entrywise
  nonnegative matrix M with B(x, y) = sum M_ij x_i y_j dominated by
  p(x) q(y) on the positive cone, whence sum M_ij |u_ij| <= (p (x) q)(u).

Both witnesses re-verify exactly in rational arithmetic. That arithmetic
runs on integers: each factor keeps its rays' costs, coordinates and
reciprocals as integers over one denominator each
(`RieszSeminorm._ray_ints`), elements hold numerators over one denominator,
and every comparison is cross-multiplied; each returned value is built as
one Fraction from an integer numerator and denominator.

One criterion decides domination: with the rays (p(d), d) of each factor
(`RieszSeminorm.rays`), B is dominated by p (x) q when B(d, e) <= p(d) q(e)
for every ray pair. Certificates need each factor's ray supports to
partition its coordinates (`RieszSeminorm.rays_partition`): weighted l1,
the weighted order unit, and l1-of-l-infinity block seminorms (polyhedral
gauges whose generator boxes, less those inside another, have disjoint
supports). The blocks supp(d) x supp(e) then partition the grid, and the
optimal dual puts each block's budget p(d) q(e) on one cell. A factor whose
rays overlap gets no certificate; its own value p(x) is one covering LP over
its rays (`RieszSeminorm._cover`).

The upper-bound search stops at the first candidate of one stream
(`_candidates`) that meets the dual. The block candidate sum_de lam_de d (x) e, with lam_de the
block's largest |u_ij| / (d_i e_j), always does, so every such pair closes
to gap 0 under the default budget; for the weighted kinds a structural
candidate does first (the pure pairs meet `seminorm_closed_form`, exported
for pairs of one kind only, l1 (x) ou the row candidate, ou (x) l1 the
column candidate). Alternating minimization is reached only when a starved
term budget (`Budget.k_max`, the CLI's `--kmax`) filters those out. Its
half-steps use the same rays: with one side fixed, the other side of each
term is a nonnegative combination of the rays of its seminorm, so one LP
with a column per term and ray, at cost p(d), finds the best side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .elements import (
    DimensionMismatch,
    LatticeElement,
    RieszSeminorm,
    SeminormFamily,
    UnsupportedSeminormKind,
    _element,
    _lowest,
)
from .hulls import _close, _report, _violation, random_element, sample_box_point
from .jsonio import FormatError, _quote, as_fraction, fraction_str, require_key
from .rng import SplitStream
from .simplex import InfeasibleLP, LinearProgram, UnboundedLP
from .tensor import (
    Membership,
    TensorElement,
    TensorNbhd,
    _shaped,
    dominating_rank_one,
    matrix_unit,
    nbhd_member,
    random_tensor,
    rank_one,
)

def _require_weighted(p: RieszSeminorm, q: RieszSeminorm):
    """Raise unless both ray lists partition their coordinates (the oracles import this name)."""
    for name, s in (("p", p), ("q", q)):
        if not s.rays_partition:
            raise UnsupportedSeminormKind(
                f"certificates need ray supports that partition the coordinates; {name}'s do not"
            )


def _check_shapes(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement):
    if (p.dim, q.dim) != u.shape:
        raise DimensionMismatch(
            f"seminorms over dims ({p.dim},{q.dim}) applied to tensor of shape {u.shape}"
        )


# Each restart may run for every term count up to k_max, so the count is
# bounded: a gap that cannot close would otherwise keep the search going.
MAX_RESTARTS = 64


@dataclass(frozen=True)
class Budget:
    """Search effort knobs for `seminorm_certify`.

    k_max bounds the number of decomposition terms (default: the entrywise
    count n*m, which is always sufficient for feasibility); restarts, at
    most MAX_RESTARTS, is the number of random alternating-minimization
    starts per term count.
    """

    k_max: int | None = None
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.k_max is not None and self.k_max < 1:
            raise FormatError("k_max", f"must be at least 1, got {_quote(fraction_str(self.k_max))}")
        if not 0 <= self.restarts <= MAX_RESTARTS:
            raise FormatError("restarts", f"must be between 0 and {MAX_RESTARTS}, "
                                          f"got {_quote(fraction_str(self.restarts))}")

    def resolve_k(self, shape: tuple[int, int]) -> int:
        return self.k_max if self.k_max is not None else shape[0] * shape[1]


@dataclass(frozen=True)
class Decomposition:
    """Feasible terms witnessing an upper bound: |u| <= sum x_k (x) y_k."""

    shape: tuple[int, int]
    terms: tuple[tuple[LatticeElement, LatticeElement], ...]

    def __post_init__(self):
        n, m = self.shape
        for k, (x, y) in enumerate(self.terms):
            if x.dim != n or y.dim != m:
                raise DimensionMismatch(f"term {k} has dims ({x.dim},{y.dim}), expected ({n},{m})")
            for name, v in (("x", x), ("y", y)):
                if any(c < 0 for c in v.num):
                    raise ValueError(f"term {k} has a negative {name} coordinate")

    def bound(self) -> TensorElement:
        total = TensorElement.zero(*self.shape)
        for x, y in self.terms:
            total = total + rank_one(x, y)
        return total

    def dominates(self, u: TensorElement) -> bool:
        return abs(u).le(self.bound())

    def value(self, p: RieszSeminorm, q: RieszSeminorm) -> Fraction:
        if not (p.rays_partition and q.rays_partition):
            return sum((p(x) * q(y) for x, y in self.terms), Fraction(0))
        # p(x) q(y) is an integer over x.den y.den and the scales' denominators
        # of p and q; the terms are summed over the lcm of the x.den y.den.
        num, den = 0, 1
        for x, y in self.terms:
            d = x.den * y.den
            common = lcm(den, d)
            num = num * (common // den) + p._ray_total(x) * q._ray_total(y) * (common // d)
            den = common
        return Fraction(num, den * p._ray_scales[2] * q._ray_scales[2])

    def verify(self, p: RieszSeminorm, q: RieszSeminorm, u: TensorElement, claimed_value) -> bool:
        return self.dominates(u) and self.value(p, q) == as_fraction(claimed_value)

    def concat(self, other: "Decomposition") -> "Decomposition":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} vs {other.shape}")
        return Decomposition(self.shape, self.terms + other.terms)

    def scaled(self, alpha) -> "Decomposition":
        alpha = abs(as_fraction(alpha))
        return Decomposition(
            self.shape, tuple((x.scale(alpha), y) for x, y in self.terms)
        )

    def to_json(self) -> list:
        return [{"x": x.to_json(), "y": y.to_json()} for x, y in self.terms]

    @staticmethod
    def from_json(data, shape: tuple[int, int], field_: str = "decomposition") -> "Decomposition":
        if not isinstance(data, list):
            raise FormatError(field_, "expected a list of terms")
        terms = []
        for k, item in enumerate(data):
            x = LatticeElement.from_json(require_key(item, "x", f"{field_}[{k}]"), f"{field_}[{k}].x")
            y = LatticeElement.from_json(require_key(item, "y", f"{field_}[{k}]"), f"{field_}[{k}].y")
            terms.append((x, y))
        return Decomposition(shape, tuple(terms))


@dataclass(frozen=True)
class DualCertificate:
    """An entrywise nonnegative bilinear form dominated by p(x)q(y) on x,y >= 0.

    The domination check is a finite criterion over ray pairs; evaluating
    the form at |u| yields the certified lower bound.
    """

    matrix: TensorElement

    def __post_init__(self):
        bad = self.matrix.first_negative_entry()
        if bad is not None:
            raise ValueError(f"dual matrix entry {bad} is negative")

    def value(self, u: TensorElement) -> Fraction:
        M = self.matrix
        M._check(u)
        return Fraction(sum(a * abs(b) for a, b in zip(M.num, u.num)), M.den * u.den)

    def dominates(self, p: RieszSeminorm, q: RieszSeminorm) -> bool:
        """B(x,y) <= p(x)q(y) for all x,y >= 0, checked on the ray pairs.

        Every x >= 0 lies below a combination sum_d a_d d of the rays with
        a_d >= 0 and sum_d a_d p(d) = p(x), p(d) being the ray's cost, and B
        is nonnegative and bilinear, so B(d, e) <= p(d) q(e) on every ray pair
        (d, e) suffices; it is the whole criterion when every cost is the
        seminorm's value, as for rays that partition the coordinates.
        """
        n, m = self.matrix.shape
        if (p.dim, q.dim) != (n, m):
            raise DimensionMismatch(f"dual matrix {self.matrix.shape} vs seminorm dims ({p.dim},{q.dim})")
        M = self.matrix.num
        (p_rays, cp, dp, _), (q_rays, cq, dq, _) = p._ray_ints, q._ray_ints
        # Both sides of each inequality times every denominator.
        left, right = cp * cq, self.matrix.den * dp * dq
        return all(
            left * sum(di * sum(M[i * m + j] * ej for j, ej, _ in e) for i, di, _ in d)
            <= pd * qe * right
            for pd, d in p_rays
            for qe, e in q_rays
        )

    def to_json(self) -> dict:
        return {"M": self.matrix.to_json()["entries"]}

    @staticmethod
    def from_json(data, field_: str = "dual") -> "DualCertificate":
        entries = require_key(data, "M", field_)
        return DualCertificate(TensorElement.from_json({"entries": entries}, f"{field_}.M"))


@dataclass(frozen=True)
class SeminormCertificate:
    """A certified interval for (p (x) q)(u), with both witnesses attached."""

    lower: Fraction
    upper: Fraction
    dual: DualCertificate
    decomposition: Decomposition

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower

    def verify(self, p: RieszSeminorm, q: RieszSeminorm, u: TensorElement) -> bool:
        return (
            self.lower <= self.upper
            and self.dual.dominates(p, q)
            and self.dual.value(u) == self.lower
            and self.decomposition.verify(p, q, u, self.upper)
        )

    def to_json(self) -> dict:
        return {
            "lower": fraction_str(self.lower),
            "upper": fraction_str(self.upper),
            "gap": fraction_str(self.gap),
            "dual": self.dual.to_json(),
            "decomposition": self.decomposition.to_json(),
        }

    @staticmethod
    def from_json(data, shape: tuple[int, int], field_: str = "certificate") -> "SeminormCertificate":
        lower = as_fraction(require_key(data, "lower", field_), f"{field_}.lower")
        upper = as_fraction(require_key(data, "upper", field_), f"{field_}.upper")
        dual = DualCertificate.from_json(require_key(data, "dual", field_), f"{field_}.dual")
        dec = Decomposition.from_json(
            require_key(data, "decomposition", field_), shape, f"{field_}.decomposition"
        )
        return SeminormCertificate(lower, upper, dual, dec)


# ---------------------------------------------------------------------------
# Closed forms and dual lower bounds
# ---------------------------------------------------------------------------


def _pair_dens(p: RieszSeminorm, q: RieszSeminorm):
    """The denominators of the integer scales p(d) q(e), products d_i e_j and
    reciprocals 1 / (d_i e_j) over the ray pairs (`RieszSeminorm._ray_ints`)."""
    _, cp, dp, rp = p._ray_ints
    _, cq, dq, rq = q._ray_ints
    return cp * cq, dp * dq, rp * rq


def _block_maxima(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement):
    """Per ray pair (d, e), in the order of the rays: (scale, k, r, ratio) for
    the cell k = i * m + j of the block supp(d) x supp(e) with the largest
    ratio |u_k| / (d_i e_j), the first in row-major order on ties.

    All four are integers: the scale p(d) q(e) and the reciprocal
    r = 1 / (d_i e_j) over the denominators of `_pair_dens`, and
    ratio = |u.num[k]| * r, over u.den times the reciprocals' denominator.
    When the rays of p and of q partition their coordinates, the blocks
    partition the grid.
    """
    m = q.dim
    a = u.num
    q_rays = q._ray_ints[0]
    out = []
    for pd, d in p._ray_ints[0]:
        for qe, e in q_rays:
            best = None
            for i, _, ri in d:
                row = i * m
                for j, _, rj in e:
                    r = ri * rj
                    ratio = abs(a[row + j]) * r
                    if best is None or ratio > best[3]:
                        best = (pd * qe, row + j, r, ratio)
            out.append(best)
    return out


def seminorm_closed_form(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement):
    """Exact value for pairs of one kind whose rays partition; None otherwise.

    The value is the sum over ray blocks of p(d) q(e) max |u_ij| / (d_i e_j):
    sum_ij w_i v_j |u_ij| for weighted l1 both sides, max_ij |u_ij| / (w_i v_j)
    for the weighted order unit both sides, an l1 sum of block maxima for
    polyhedral block seminorms. Pairs of different kinds get None.
    """
    _check_shapes(p, q, u)
    if p.kind != q.kind or not (p.rays_partition and q.rays_partition):
        return None
    cden, _, rden = _pair_dens(p, q)
    total = sum(scale * ratio for scale, _, _, ratio in _block_maxima(p, q, u))
    return Fraction(total, cden * rden * u.den)


def _block_dual(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement, maxima) -> DualCertificate:
    """The dual that spends each block's budget p(d) q(e) on its cell with the
    largest |u_ij| / (d_i e_j), read from `_block_maxima`: p(d) q(e) / (d_i e_j)
    there and 0 elsewhere."""
    num = [0] * u.dim
    for scale, k, r, _ in maxima:
        num[k] = scale * r
    cden, _, rden = _pair_dens(p, q)
    return DualCertificate(_shaped(*_lowest(tuple(num), cden * rden), u.shape))


def dual_lower_bound(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement) -> DualCertificate:
    """The optimal entrywise-nonnegative dual form, built in closed form.

    The ray blocks partition the grid (the gate of `_require_weighted`) and
    each block carries one budget p(d) q(e), so the optimum spends each
    budget on the block's cell with the largest |u_ij| / (d_i e_j). The
    construction is re-verified against the criterion before returning.
    """
    _require_weighted(p, q)
    _check_shapes(p, q, u)
    cert = _block_dual(p, q, u, _block_maxima(p, q, u))
    if not cert.dominates(p, q):  # pragma: no cover - construction is tight
        raise RuntimeError("dual construction violated its own criterion")
    return cert


# ---------------------------------------------------------------------------
# Upper bounds: decomposition candidates and alternating minimization
# ---------------------------------------------------------------------------


def _sparse(dim: int, entries, den: int) -> LatticeElement:
    """The element with the integer numerators (index, value) over den, zeros elsewhere."""
    num = [0] * dim
    for i, a in entries:
        num[i] = a
    return _element(*_lowest(tuple(num), den))


def _dominating_candidate(u: TensorElement) -> Decomposition:
    a, b = dominating_rank_one(abs(u))
    return Decomposition(u.shape, ((a, b),))


def _scaled_unit_candidate(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement) -> Decomposition:
    m = u.shape[1]
    # sum_d p(d) d over the disjoint rays: the weights for l1, w for the order unit
    w, v = (_sparse(s.dim, ((i, pd * di) for pd, d in rays for i, di, _ in d), cden * dden)
            for s, (rays, cden, dden, _) in ((p, p._ray_ints), (q, q._ray_ints)))
    # the largest |u_k| / (w_i v_j), as a numerator over a denominator
    top, bottom = 0, 1
    for k, a in enumerate(u.num):
        if not a:
            continue
        denom = w.num[k // m] * v.num[k % m]
        if denom == 0:
            return Decomposition(u.shape, ())  # no multiple of w (x) v covers this entry
        if abs(a) * bottom > top * denom:
            top, bottom = abs(a), denom
    # w scaled by c = top / bottom * w.den * v.den / u.den
    x = _element(*_lowest(tuple(a * top * v.den for a in w.num), bottom * u.den))
    return Decomposition(u.shape, ((x, v),))


def _row_candidate(u: TensorElement) -> Decomposition:
    n, m = u.shape
    terms = []
    for i in range(n):
        row = u.num[i * m:(i + 1) * m]
        if any(row):
            y = _element(*_lowest(tuple(map(abs, row)), u.den))
            terms.append((_sparse(n, ((i, 1),), 1), y))
    return Decomposition(u.shape, tuple(terms))


def _col_candidate(u: TensorElement) -> Decomposition:
    n, m = u.shape
    terms = []
    for j in range(m):
        col = u.num[j::m]
        if any(col):
            x = _element(*_lowest(tuple(map(abs, col)), u.den))
            terms.append((x, _sparse(m, ((j, 1),), 1)))
    return Decomposition(u.shape, tuple(terms))


def _block_candidate(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement,
                     maxima) -> Decomposition:
    """sum_de lam_de d (x) e, with lam_de the block maximum of |u_ij| / (d_i e_j)
    (`_block_maxima`): its value sum_de lam_de p(d) q(e) is the dual's block sum."""
    n, m = u.shape
    (p_rays, _, dp, rp), (q_rays, _, dq, rq) = p._ray_ints, q._ray_ints
    lam_den = u.den * rp * rq  # lam_de = ratio / lam_den
    pairs = [(d, e) for _, d in p_rays for _, e in q_rays]
    return Decomposition(u.shape, tuple(
        (_sparse(n, ((i, ratio * di) for i, di, _ in d), lam_den * dp),
         _sparse(m, ((j, ej) for j, ej, _ in e), dq))
        for (d, e), (_, _, _, ratio) in zip(pairs, maxima)
        if ratio > 0
    ))


def _half_step(p: RieszSeminorm, fixed, u: TensorElement, left: bool):
    """Optimal x-side (or y-side) given the other side, as one exact LP over
    the ray cone of p.

    Minimizes sum_t p(x_t) * coeff_t subject to sum_t x_t (x) y_t >= |u|,
    where coeff_t is the fixed side's seminorm value. Each x_t is a
    combination sum_d a_td d of the rays (p(d), d) of p with a_td >= 0, at
    cost sum_d a_td p(d). Every x >= 0 lies below such a combination of cost
    p(x) and the coverage only grows with x, so the optimum is that of the
    half-step. For weighted l1 the rays are the unit vectors and a_td is x_t's
    own coordinate; for the weighted order unit each term has one column, and
    x_t comes back as a multiple of w.
    """
    n, m = u.shape
    rays = [(pd, LatticeElement.sparse(p.dim, d)) for pd, d in p.rays]
    lp = LinearProgram()
    cols = [[lp.var(cost=pd * coeff) for pd, _ in rays] for _, coeff in fixed]
    au = abs(u)
    for i in range(n):
        for j in range(m):
            free, at = (i, j) if left else (j, i)
            coeffs = {
                a_d: d.coords[free] * other.coords[at]
                for (other, _), a in zip(fixed, cols)
                for a_d, (_, d) in zip(a, rays)
            }
            lp.add(coeffs, ">=", au.coords[i * m + j])
    value, assignment = lp.minimize()
    sides = [
        sum((d.scale(assignment[a_d]) for a_d, (_, d) in zip(a, rays)),
            LatticeElement.zero(p.dim))
        for a in cols
    ]
    return value, sides


def _alternating_minimization(p, q, u, k: int, rng: SplitStream):
    """Exact alternating LP descent over k-term decompositions, at most eight rounds."""
    n, m = u.shape
    ys = []
    for t in range(k):
        ys.append(LatticeElement(
            tuple(rng.fraction(0, 2, 4) + Fraction(1, 8) for _ in range(m))
        ))
    best = None
    for _ in range(8):
        try:
            fixed_y = [(y, q(y)) for y in ys]
            _, xs = _half_step(p, fixed_y, u, left=True)
            fixed_x = [(x, p(x)) for x in xs]
            _, ys = _half_step(q, fixed_x, u, left=False)
        except (InfeasibleLP, UnboundedLP):
            return None  # a fixed side with zero rows can strand the LP
        dec = Decomposition(u.shape, tuple(zip(xs, ys)))
        if not dec.dominates(u):  # pragma: no cover - LP feasibility guarantees this
            return None
        value = dec.value(p, q)
        if best is not None and value >= best[0]:
            return best
        best = (value, dec)
    return best


def _candidates(p, q, u, maxima, budget: Budget, k_max: int):
    """The upper-bound candidates in the order they are tried: the dominating
    rank-one, the scaled unit, the rows, the columns, the block candidate,
    then each alternating-minimization result."""
    yield _dominating_candidate(u)
    yield _scaled_unit_candidate(p, q, u)
    yield _row_candidate(u)
    yield _col_candidate(u)
    yield _block_candidate(p, q, u, maxima)
    rng = SplitStream(budget.seed).split("altmin")
    for k in range(1, k_max + 1):
        for start in range(budget.restarts):
            found = _alternating_minimization(p, q, u, k, rng.split(k, start))
            if found is not None:
                yield found[1]


def seminorm_certify(p: RieszSeminorm, q: RieszSeminorm, u: TensorElement,
                     budget: Budget | None = None) -> SeminormCertificate:
    """A certified interval for (p (x) q)(u).

    The lower bound is the closed-form optimal dual. The upper bound is the
    first strict minimum of the candidate stream (`_candidates`) among the
    candidates that fit the term budget. No decomposition goes below the
    dual, so the search stops at the first candidate that meets it. Both
    bounds re-verify exactly before the certificate is returned.
    """
    budget = budget or Budget()
    _require_weighted(p, q)
    _check_shapes(p, q, u)
    if u.is_zero():
        zero = Decomposition(u.shape, ())
        dual = DualCertificate(TensorElement.zero(*u.shape))
        return SeminormCertificate(Fraction(0), Fraction(0), dual, zero)

    maxima = _block_maxima(p, q, u)
    dual = _block_dual(p, q, u, maxima)
    lower = dual.value(u)
    k_max = budget.resolve_k(u.shape)
    # The dominating rank-one always fits (one term, u != 0), so best is set.
    best: tuple[Fraction, Decomposition] | None = None
    for dec in _candidates(p, q, u, maxima, budget, k_max):
        if not dec.terms or len(dec.terms) > k_max:
            continue
        value = dec.value(p, q)
        if best is None or value < best[0]:
            best = (value, dec)
            if value == lower:
                break

    upper, dec = best
    cert = SeminormCertificate(lower, upper, dual, dec)
    if not cert.verify(p, q, u):  # pragma: no cover - all witnesses re-check
        raise RuntimeError("certificate failed exact re-verification")
    return cert


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


def cross_property_check(p: RieszSeminorm, q: RieszSeminorm, *, samples: int, seed: int,
                         budget: Budget | None = None) -> dict:
    """On rank-one elements the projective seminorm is the product seminorm.

    For every sampled pair the certificate must satisfy
    lower = p(x0) q(y0) = upper exactly when both kinds are pure, and
    lower = p(x0) q(y0) exactly (via the coordinate-evaluation dual) in the
    mixed cases; in this model the row/column decompositions close the upper
    bound to the same value, and the check records that too.
    """
    rng = SplitStream(seed).split("cross-property")
    rep = _report(samples)
    pure = p.kind == q.kind
    for s in range(samples):
        srng = rng.split(s)
        x0 = random_element(srng.split("x"), p.dim)
        y0 = random_element(srng.split("y"), q.dim)
        if s == 0:
            x0 = LatticeElement.zero(p.dim)  # pin the trivial case
        u = rank_one(x0, y0)
        expected = p(x0) * q(y0)
        cert = seminorm_certify(p, q, u, budget)
        ok = cert.lower == expected and cert.upper == expected
        if not ok:
            _violation(rep, s, {
                "x0": x0.to_json(), "y0": y0.to_json(),
                "expected": fraction_str(expected),
                "lower": fraction_str(cert.lower),
                "upper": fraction_str(cert.upper),
            })
    return _close(rep, "cross-seminorm-identity",
                  "the projective seminorm of a rank-one element is the product of the "
                  "factor seminorms" + ("" if pure else " (mixed kinds: dual meets it exactly)"))


def gauge_equivalence_check(W: TensorNbhd, u: TensorElement, *,
                            budget: Budget | None = None) -> dict:
    """Tri-state membership in r*W never contradicts the certificate.

    Probes radii strictly below the certified lower bound (expect
    non-member), between the bounds (any answer is consistent; undecided is
    expected when a genuine gap remains), at the upper bound and above
    (expect member). Also checks the tri-state is monotone along increasing
    radii.
    """
    cert = seminorm_certify(W.p, W.q, u, budget)
    probes = []
    if cert.lower > 0:
        probes.append((cert.lower * Fraction(7, 8), Membership.NON_MEMBER))
        probes.append((cert.lower * Fraction(1, 2), Membership.NON_MEMBER))
    if cert.gap > 0:
        probes.append(((cert.lower + cert.upper) / 2, None))
    if cert.upper > 0:
        probes.append((cert.upper, Membership.MEMBER))
    probes.append((cert.upper + 1, Membership.MEMBER))

    contradictions = []
    answers = []
    for r, expected in probes:
        got = nbhd_member(W, u, radius=r, budget=budget)
        answers.append((r, got))
        if got is Membership.MEMBER and cert.lower > r:
            contradictions.append({"radius": fraction_str(r), "got": got.value,
                                   "reason": "member below certified lower bound"})
        if got is Membership.NON_MEMBER and cert.upper <= r:
            contradictions.append({"radius": fraction_str(r), "got": got.value,
                                   "reason": "non-member above certified upper bound"})
        if expected is not None and got is not expected:
            contradictions.append({"radius": fraction_str(r), "got": got.value,
                                   "expected": expected.value})
    order = {Membership.NON_MEMBER: 0, Membership.UNDECIDED: 1, Membership.MEMBER: 2}
    ranks = [order[a] for _, a in sorted(answers, key=lambda t: t[0])]
    if ranks != sorted(ranks):
        contradictions.append({"reason": "tri-state not monotone in the radius"})
    return {
        "probes": [[fraction_str(r), a.value] for r, a in answers],
        "contradictions": contradictions,
        "ok": not contradictions,
    }


def certificate_axiom_check(p: RieszSeminorm, q: RieszSeminorm, *, samples: int, seed: int,
                            budget: Budget | None = None) -> dict:
    """Seminorm axioms hold at the certificate level, witness by witness.

    * subadditivity: concatenated witnesses dominate u + v with value
      upper(u) + upper(v);
    * balanced homogeneity: scaled witnesses give upper(lam u) = |lam| upper(u),
      and the dual value scales the same way;
    * solidity/monotonicity: |v| <= |u| implies lower(v) <= upper(u).
    """
    rng = SplitStream(seed).split("certificate-axioms")
    rep = _report(samples)
    n, m = p.dim, q.dim
    for s in range(samples):
        srng = rng.split(s)
        u = random_tensor(srng, n, m)
        v = random_tensor(srng, n, m)
        cu = seminorm_certify(p, q, u, budget)
        cv = seminorm_certify(p, q, v, budget)
        lam = srng.fraction(-2, 2, 8)
        problems = []
        joined = cu.decomposition.concat(cv.decomposition)
        if not joined.dominates(u + v):
            problems.append("concatenated witness fails to dominate the sum")
        if joined.value(p, q) != cu.upper + cv.upper:
            problems.append("concatenated witness value is not the sum of uppers")
        scaled = cu.decomposition.scaled(lam)
        if not scaled.dominates(u.scale(lam)):
            problems.append("scaled witness fails to dominate the scaled element")
        if scaled.value(p, q) != abs(lam) * cu.upper:
            problems.append("scaled witness value is not |lam| * upper")
        if cu.dual.value(u.scale(lam)) != abs(lam) * cu.lower:
            problems.append("dual value is not absolutely homogeneous")
        dominated = sample_box_point(srng.split("dominated"), u)
        if seminorm_certify(p, q, dominated, budget).lower > cu.upper:
            problems.append("dominated element certified above the dominating upper bound")
        if problems:
            _violation(rep, s, {"problems": problems})
    return _close(rep, "certificate-axioms",
                  "subadditivity, balanced homogeneity, and solidity hold at certificate level")


def hausdorff_check(P: SeminormFamily, Q: SeminormFamily, *, samples: int, seed: int) -> dict:
    """Separating factor families separate the tensor model.

    For nonzero u, pick an entry (i, j) with the largest |u_ij|; the
    rank-one witness pair x0 = |u_ij| e_i, y0 = e_j must have positive
    product seminorm under some pair of family members, and the dual lower
    bound for u itself must reach at least that product. Non-separating
    families are reported with the direction that kills every member, not
    raised.
    """
    dead_left = P.separation_failures()
    dead_right = Q.separation_failures()
    rep = _report(samples)
    rep["separating"] = {"left": P.separating, "right": Q.separating}
    rep["separation_failures"] = {
        "left": [f"coordinate {i}" for i in dead_left],
        "right": [f"coordinate {j}" for j in dead_right],
    }
    rng = SplitStream(seed).split("hausdorff")
    certifiable = [
        (pp, qq) for pp in P.members for qq in Q.members
        if pp.rays_partition and qq.rays_partition
    ]
    if not certifiable:
        raise UnsupportedSeminormKind(
            "separation certificates need a member on each side with partitioning rays"
        )
    n, m = P.dim, Q.dim
    for s in range(samples):
        srng = rng.split(s)
        u = random_tensor(srng, n, m)
        if s == 0 and dead_left:
            u = matrix_unit(n, m, dead_left[0], 0)  # forced failure witness
        elif s == 0 and dead_right:
            u = matrix_unit(n, m, 0, dead_right[0])
        elif u.is_zero():
            u = matrix_unit(n, m, 0, 0)
        k = max(range(u.dim), key=lambda k: abs(u.coords[k]))
        i, j = divmod(k, m)
        x0 = LatticeElement.unit(n, i, abs(u.coords[k]))
        y0 = LatticeElement.unit(m, j)
        separated = False
        for pp, qq in certifiable:
            target = pp(x0) * qq(y0)
            if target > 0 and dual_lower_bound(pp, qq, u).value(u) >= target:
                separated = True
                break
        if not separated:
            _violation(rep, s, {"u": u.to_json(), "entry": [i, j]})
    _close(rep, "separation",
           "separating factor families certify a positive lower bound for every nonzero tensor")
    rep["expected_separation"] = P.separating and Q.separating
    if not rep["expected_separation"]:
        rep["ok"] = not rep["ok"]  # a non-separating family must be caught failing
    return rep
