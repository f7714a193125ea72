"""Finite-dimensional vector lattices with exact rational coordinates.

The order is coordinatewise, so lattice operations are entrywise max/min and
every computation here is exact. An element holds integer numerators over
one positive denominator, in lowest terms, and its operations run on those
integers; `fractions.Fraction` stays the interface, for inputs and for the
`coords` view. On top of the element type this module provides:

* the constructive Riesz decomposition and disjointification used by the
  hull identities,
* Riesz seminorms of three kinds (weighted l1, weighted order-unit, and
  gauges of polyhedral convex-solid sets), each read through its rays,
* seminorm families with a computed separating flag,
* lattice homomorphisms between coordinate lattices (nonnegative matrices
  with pairwise disjoint columns).
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .jsonio import (
    FormatError,
    _quote,
    as_fraction,
    fraction_list,
    fraction_str,
    parse_fraction_list,
    require_key,
)
from .simplex import LinearProgram


class DimensionMismatch(ValueError):
    pass


class _Infinite:
    """Order-top sentinel for gauges of non-absorbing sets."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self


INFINITE = _Infinite()

_set = object.__setattr__  # how an immutable element sets its own slots


def _lowest(num: tuple[int, ...], den: int):
    """num / den in lowest terms: both divided by their one gcd."""
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return tuple(a // g for a in num), den // g


class LatticeElement:
    """A point of Q^n ordered coordinatewise.

    An element holds its coordinates as integer numerators `num` over one
    positive denominator `den`, in lowest terms: gcd(den, *num) == 1, and
    den == 1 for the zero vector. Every lattice operation runs on those
    integers and reduces its result with one gcd. Fractions stay the API:
    the constructor takes any iterable of ints or Fractions, and `coords`
    is the read-only tuple of lowest-terms Fractions, built on first read.
    Elements are immutable, equal when their values (and types) are, and
    hashable.
    """

    __slots__ = ("num", "den", "_coords")

    def __init__(self, coords):
        coords = tuple(coords)  # read twice below; a tuple passes through as is
        den = lcm(*(c.denominator for c in coords))
        _set(self, "num", tuple(c.numerator * (den // c.denominator) for c in coords))
        _set(self, "den", den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        try:
            return self._coords
        except AttributeError:
            den = self.den
            coords = tuple(Fraction(a, den) for a in self.num)
            _set(self, "_coords", coords)
            return coords

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self):
        return self.num, self.den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LatticeElement(coords={self.coords!r})"

    @staticmethod
    def make(values) -> "LatticeElement":
        return LatticeElement(tuple(as_fraction(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "LatticeElement":
        return _element((0,) * dim, 1)

    @staticmethod
    def unit(dim: int, index: int, value=1) -> "LatticeElement":
        return LatticeElement.sparse(dim, ((index, as_fraction(value)),))

    @staticmethod
    def sparse(dim: int, entries) -> "LatticeElement":
        """The point with the given (index, value) entries and zeros elsewhere."""
        coords = [0] * dim
        for i, c in entries:
            coords[i] = c
        return LatticeElement(coords)

    @property
    def dim(self) -> int:
        return len(self.num)

    def _check(self, other: "LatticeElement"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _like(self, num: tuple[int, ...], den: int) -> "LatticeElement":
        """An element of the same lattice as self holding num / den, already in lowest terms."""
        return _element(num, den)

    def _over_one_den(self, other: "LatticeElement"):
        """Both numerator tuples over one common denominator."""
        self._check(other)
        d, e = self.den, other.den
        if d == e:
            return self.num, other.num, d
        return [a * e for a in self.num], [b * d for b in other.num], d * e

    def join(self, other: "LatticeElement") -> "LatticeElement":
        a, b, den = self._over_one_den(other)
        return self._like(*_lowest(tuple(map(max, a, b)), den))

    def meet(self, other: "LatticeElement") -> "LatticeElement":
        a, b, den = self._over_one_den(other)
        return self._like(*_lowest(tuple(map(min, a, b)), den))

    def __abs__(self) -> "LatticeElement":
        return self._like(tuple(map(abs, self.num)), self.den)

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        a, b, den = self._over_one_den(other)
        return self._like(*_lowest(tuple(map(operator.add, a, b)), den))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        a, b, den = self._over_one_den(other)
        return self._like(*_lowest(tuple(map(operator.sub, a, b)), den))

    def __neg__(self) -> "LatticeElement":
        return self._like(tuple(map(operator.neg, self.num)), self.den)

    def scale(self, alpha) -> "LatticeElement":
        alpha = as_fraction(alpha)
        p = alpha.numerator
        return self._like(*_lowest(tuple(p * a for a in self.num), self.den * alpha.denominator))

    def le(self, other: "LatticeElement") -> bool:
        a, b, _ = self._over_one_den(other)
        return all(map(operator.le, a, b))

    def is_zero(self) -> bool:
        return not any(self.num)

    def to_json(self) -> list[str]:
        return fraction_list(self.coords)

    @staticmethod
    def from_json(data, field: str = "element") -> "LatticeElement":
        return LatticeElement(parse_fraction_list(data, field))


def _element(num: tuple[int, ...], den: int) -> LatticeElement:
    """The point num / den of Q^n, num / den already in lowest terms."""
    out = object.__new__(LatticeElement)
    _set(out, "num", num)
    _set(out, "den", den)
    return out


def riesz_decompose(z: LatticeElement, x: LatticeElement, y: LatticeElement):
    """Split z into z1 + z2 with |z1| <= |x| and |z2| <= |y|.

    Requires |z| <= |x| + |y|; the offending coordinate is reported otherwise.
    The construction is the standard one: clamp z into the order interval
    [-|x|, |x|] and give the remainder to the second summand.
    """
    z._check(x)
    z._check(y)
    bound = abs(x) + abs(y)
    for i, (zi, bi) in enumerate(zip(z.coords, bound.coords)):
        if abs(zi) > bi:
            raise ValueError(
                f"riesz_decompose precondition |z| <= |x|+|y| fails at coordinate {i}: "
                f"|{_quote(fraction_str(zi))}| > {_quote(fraction_str(bi))}"
            )
    ax = abs(x)
    z1 = z.join(-ax).meet(ax)
    z2 = z - z1
    return z1, z2


def disjointify(x: LatticeElement, y: LatticeElement):
    """Carve the common part out of |x| and |y|.

    Returns (x', y') with x' ∧ y' = 0 and x' ∨ y' = x' + y' =
    |x| ∨ |y| - |x| ∧ |y|; each output is dominated by the corresponding
    input (0 <= x' <= |x|, 0 <= y' <= |y|). Note the join of the outputs
    recovers |x| ∨ |y| itself only when |x| ∧ |y| = 0 already.
    """
    ax, ay = abs(x), abs(y)
    common = ax.meet(ay)
    return ax - common, ay - common


# ---------------------------------------------------------------------------
# Riesz seminorms
# ---------------------------------------------------------------------------

WEIGHTED_L1 = "weighted_l1"
WEIGHTED_ORDER_UNIT = "weighted_order_unit"
POLYHEDRAL_GAUGE = "polyhedral_gauge"

SEMINORM_KINDS = (WEIGHTED_L1, WEIGHTED_ORDER_UNIT, POLYHEDRAL_GAUGE)


class UnsupportedSeminormKind(ValueError):
    pass


@dataclass(frozen=True)
class RieszSeminorm:
    """A solid seminorm on Q^n: p(x) = p(|x|) and |x| <= |y| implies p(x) <= p(y).

    Three kinds:

    * ``weighted_l1``       p(x) = sum_i w_i |x_i|, weights w_i >= 0
    * ``weighted_order_unit`` p(x) = max_i |x_i| / w_i, weights w_i > 0
    * ``polyhedral_gauge``  gauge of the convex-solid-balanced hull of a
      finite generator set (may be INFINITE off the generators' span)

    The kind only builds `rays`, which every computation on p reads.
    """

    kind: str
    weights: tuple[Fraction, ...] | None = None
    generators: tuple[LatticeElement, ...] | None = None

    def __post_init__(self):
        if self.kind not in SEMINORM_KINDS:
            raise UnsupportedSeminormKind(f"unknown seminorm kind {_quote(self.kind)}")
        if self.kind == POLYHEDRAL_GAUGE:
            if not self.generators:
                raise ValueError("polyhedral gauge needs at least one generator")
            dims = {g.dim for g in self.generators}
            if len(dims) != 1:
                raise DimensionMismatch("polyhedral gauge generators must share a dimension")
            if dims == {0}:  # as a weighted seminorm needs a weight
                raise ValueError("polyhedral gauge generators need at least one coordinate")
        else:
            if not self.weights:
                raise ValueError("weighted seminorm needs at least one weight")
            for i, w in enumerate(self.weights):
                if w < 0:
                    raise ValueError(f"weight {i} is negative: {_quote(fraction_str(w))}")
                if self.kind == WEIGHTED_ORDER_UNIT and w == 0:
                    raise ValueError(f"order-unit weight {i} must be strictly positive")

    @property
    def dim(self) -> int:
        if self.kind == POLYHEDRAL_GAUGE:
            return self.generators[0].dim
        return len(self.weights)

    @cached_property
    def rays(self) -> tuple:
        """The rays d >= 0 of p as (cost, ((i, d_i), ...)) over d_i != 0: every
        x >= 0 lies below some sum_d a_d d, a_d >= 0, of cost sum_d a_d cost_d
        = p(x), and cost_d >= p(d), with equality at the unit ball's vertices.

        Weighted l1 has the e_i at cost w_i (a zero weight makes e_i a free
        direction), the weighted order unit the one ray w at cost 1, and a
        polyhedral gauge at cost 1 each nonzero box |g_k| that no other
        generator's box contains, equal boxes once, in first-seen order. The
        dropped boxes do not change Sol Conv_b(G), so the rays depend on the
        seminorm, not on how its generators are listed.
        """
        if self.kind == WEIGHTED_L1:
            return tuple((w, ((i, Fraction(1)),)) for i, w in enumerate(self.weights))
        if self.kind == WEIGHTED_ORDER_UNIT:
            return ((Fraction(1), tuple(enumerate(self.weights))),)
        boxes = [abs(g) for g in self.generators if not g.is_zero()]
        return tuple(
            (Fraction(1), tuple((i, c) for i, c in enumerate(b.coords) if c != 0))
            for k, b in enumerate(boxes)
            if not any(b.le(o) and (j < k or b != o) for j, o in enumerate(boxes) if j != k)
        )

    @cached_property
    def rays_partition(self) -> bool:
        """Whether the ray supports partition the coordinates. Then every cost
        is p(d), p(x) = sum_d p(d) max_{i in supp d} |x_i| / d_i, and
        `projective` certifies p (x) q exactly."""
        covered = [i for _, d in self.rays for i, _ in d]
        return len(covered) == self.dim == len(set(covered))

    @cached_property
    def _ray_ints(self) -> tuple:
        # The rays as integers: (cost, ((i, d_i, 1 / d_i), ...)) per ray, the
        # costs, the coordinates and the reciprocals each over one denominator,
        # then those three denominators.
        rays = self.rays
        cden = lcm(*(pd.denominator for pd, _ in rays))
        dden = lcm(*(di.denominator for _, d in rays for _, di in d))
        rden = lcm(*(di.numerator for _, d in rays for _, di in d))
        return (tuple((pd.numerator * (cden // pd.denominator),
                       tuple((i, di.numerator * (dden // di.denominator),
                              di.denominator * (rden // di.numerator)) for i, di in d))
                      for pd, d in rays),
                cden, dden, rden)

    @cached_property
    def _ray_scales(self) -> tuple:
        # The scales p(d) / d_i over one denominator: (i, scale) for the
        # one-coordinate rays, a tuple of them per longer ray, then the
        # denominator.
        rays, cden, _, rden = self._ray_ints
        scales = [tuple((i, pd * r) for i, _, r in d) for pd, d in rays]
        return (tuple(ray[0] for ray in scales if len(ray) == 1),
                tuple(ray for ray in scales if len(ray) > 1), cden * rden)

    def _ray_total(self, x: LatticeElement) -> int:
        """p(x) times x.den and the scales' denominator, for rays that partition."""
        a = x.num
        units, blocks, _ = self._ray_scales
        return (sum(abs(a[i]) * s for i, s in units)
                + sum(max(abs(a[i]) * s for i, s in ray) for ray in blocks))

    def __call__(self, x: LatticeElement):
        if x.dim != self.dim:
            raise DimensionMismatch(f"seminorm over dim {self.dim} applied to dim {x.dim}")
        if self.rays_partition:
            return Fraction(self._ray_total(x), x.den * self._ray_scales[2])
        return self._cover(x)

    def _cover(self, x: LatticeElement):
        """The least cost sum_d cost_d lam_d of a cover sum_d lam_d d >= |x| by
        the rays, lam >= 0, as one LP with a column per ray and a row per
        nonzero coordinate of x; INFINITE when such a coordinate lies in no
        ray's support. Every x >= 0 lies below a combination of the rays of
        cost p(x), and by subadditivity and solidity no cover costs less."""
        if x.is_zero():
            return Fraction(0)
        lp = LinearProgram()
        rows = [{} for _ in range(self.dim)]
        for pd, d in self.rays:
            lam = lp.var(cost=pd)
            for i, di in d:
                rows[i][lam] = di
        for row, a in zip(rows, x.coords):
            if a:
                if not row:
                    return INFINITE
                lp.add(row, ">=", abs(a))
        value, _ = lp.minimize()
        return value

    def in_unit_ball(self, x: LatticeElement) -> bool:
        """Whether p(x) <= 1; without partitioning rays by hull membership, a box
        scan before any LP, where p(x) would solve the covering LP."""
        from . import hulls

        return self(x) <= 1 if self.rays_partition else hulls.member(self.unit_ball(), x)

    def unit_ball(self):
        """Conv_b(Sol(G)), with G the vertices d / p(d) of the rays with p(d) > 0.

        When no ray has p(d) > 0 (the zero seminorm) G is {0}. This is the set
        {p <= 1} unless p vanishes on a ray: for a weighted l1 seminorm with a
        zero weight w_i, {p <= 1} contains every multiple of e_i, while this
        set has no extent along e_i (its gauge there is INFINITE).
        """
        from . import hulls

        gens = tuple(
            LatticeElement.sparse(self.dim, ((i, c / pd) for i, c in ray))
            for pd, ray in self.rays if pd > 0
        ) or (LatticeElement.zero(self.dim),)
        return hulls.GeneratedSet(gens, ("Sol", "Conv_b"))

    @staticmethod
    def from_json(data, field: str = "seminorm") -> "RieszSeminorm":
        kind = require_key(data, "kind", field)
        if kind == POLYHEDRAL_GAUGE:
            gens = require_key(data, "generators", field)
            if not isinstance(gens, list) or not gens:
                raise FormatError(f"{field}.generators", "expected a nonempty list")
            parts = {"generators": tuple(
                LatticeElement.from_json(g, f"{field}.generators[{i}]")
                for i, g in enumerate(gens)
            )}
        elif kind in (WEIGHTED_L1, WEIGHTED_ORDER_UNIT):
            parts = {"weights": parse_fraction_list(require_key(data, "weights", field),
                                                    f"{field}.weights")}
        else:
            raise FormatError(f"{field}.kind", f"unknown seminorm kind {_quote(kind)}")
        try:
            return RieszSeminorm(kind, **parts)
        except ValueError as exc:  # a weight or dimension the seminorm rejects
            raise FormatError(field, str(exc)) from None


def weighted_l1(weights) -> RieszSeminorm:
    return RieszSeminorm(WEIGHTED_L1, weights=tuple(as_fraction(w) for w in weights))


def weighted_order_unit(weights) -> RieszSeminorm:
    return RieszSeminorm(WEIGHTED_ORDER_UNIT, weights=tuple(as_fraction(w) for w in weights))


def polyhedral_gauge(generators) -> RieszSeminorm:
    return RieszSeminorm(POLYHEDRAL_GAUGE, generators=tuple(generators))


@dataclass(frozen=True)
class SeminormFamily:
    members: tuple[RieszSeminorm, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a seminorm family needs at least one member")
        dims = {p.dim for p in self.members}
        if len(dims) != 1:
            raise DimensionMismatch("family members must share a dimension")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def separation_failures(self) -> list[int]:
        """Basis directions on which every member vanishes."""
        dead = []
        for i in range(self.dim):
            e = LatticeElement.unit(self.dim, i)
            if all(p(e) == 0 for p in self.members):
                dead.append(i)
        return dead

    @property
    def separating(self) -> bool:
        return not self.separation_failures()


# ---------------------------------------------------------------------------
# Lattice homomorphisms between coordinate lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeHom:
    """A linear map preserving join/meet: nonnegative matrix, disjoint columns.

    On coordinate lattices that means every output row touches at most one
    input coordinate. `rows[j][i]` is the coefficient of input i in output j.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for j, row in enumerate(self.rows):
            nonzero = 0
            for i, a in enumerate(row):
                if a < 0:
                    raise ValueError(f"hom entry ({j},{i}) is negative: {a}")
                if a != 0:
                    nonzero += 1
            if nonzero > 1:
                raise ValueError(
                    f"hom row {j} has {nonzero} nonzero entries; columns must be disjoint"
                )

    @property
    def source_dim(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, x: LatticeElement) -> LatticeElement:
        if x.dim != self.source_dim:
            raise DimensionMismatch(f"hom over dim {self.source_dim} applied to dim {x.dim}")
        return LatticeElement(
            tuple(
                sum((a * c for a, c in zip(row, x.coords)), Fraction(0)) for row in self.rows
            )
        )
