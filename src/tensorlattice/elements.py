"""Finite-dimensional vector lattices with exact rational coordinates.

The order is coordinatewise, so lattice operations are entrywise max/min and
every computation here is exact (`fractions.Fraction` end to end). On top of
the element type this module provides:

* the constructive Riesz decomposition and disjointification used by the
  hull identities,
* Riesz seminorms of three kinds (weighted l1, weighted order-unit, and
  gauges of polyhedral convex-solid sets),
* seminorm families with a computed separating flag,
* lattice homomorphisms between coordinate lattices (nonnegative matrices
  with pairwise disjoint columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jsonio import FormatError, as_fraction, fraction_list, parse_fraction_list, require_key


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


@dataclass(frozen=True)
class LatticeElement:
    """A point of Q^n ordered coordinatewise."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def make(values) -> "LatticeElement":
        return LatticeElement(tuple(as_fraction(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "LatticeElement":
        return LatticeElement((Fraction(0),) * dim)

    @staticmethod
    def unit(dim: int, index: int, value=1) -> "LatticeElement":
        return LatticeElement.sparse(dim, ((index, as_fraction(value)),))

    @staticmethod
    def sparse(dim: int, entries) -> "LatticeElement":
        """The point with the given (index, value) entries and zeros elsewhere."""
        coords = [Fraction(0)] * dim
        for i, c in entries:
            coords[i] = c
        return LatticeElement(tuple(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: "LatticeElement"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def join(self, other: "LatticeElement") -> "LatticeElement":
        self._check(other)
        return LatticeElement(tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def meet(self, other: "LatticeElement") -> "LatticeElement":
        self._check(other)
        return LatticeElement(tuple(min(a, b) for a, b in zip(self.coords, other.coords)))

    def __abs__(self) -> "LatticeElement":
        return LatticeElement(tuple(abs(a) for a in self.coords))

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        self._check(other)
        return LatticeElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        self._check(other)
        return LatticeElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(tuple(-a for a in self.coords))

    def scale(self, alpha) -> "LatticeElement":
        alpha = as_fraction(alpha)
        return LatticeElement(tuple(alpha * a for a in self.coords))

    def le(self, other: "LatticeElement") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def positive_part(self) -> "LatticeElement":
        return LatticeElement(tuple(max(a, Fraction(0)) for a in self.coords))

    def to_json(self) -> list[str]:
        return fraction_list(self.coords)

    @staticmethod
    def from_json(data, field: str = "element") -> "LatticeElement":
        return LatticeElement(parse_fraction_list(data, field))


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
                f"|{zi}| > {bi}"
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
    """

    kind: str
    weights: tuple[Fraction, ...] | None = None
    generators: tuple[LatticeElement, ...] | None = None

    def __post_init__(self):
        if self.kind not in SEMINORM_KINDS:
            raise UnsupportedSeminormKind(f"unknown seminorm kind {self.kind!r}")
        if self.kind == POLYHEDRAL_GAUGE:
            if not self.generators:
                raise ValueError("polyhedral gauge needs at least one generator")
            dims = {g.dim for g in self.generators}
            if len(dims) != 1:
                raise DimensionMismatch("polyhedral gauge generators must share a dimension")
        else:
            if not self.weights:
                raise ValueError("weighted seminorm needs at least one weight")
            for i, w in enumerate(self.weights):
                if w < 0:
                    raise ValueError(f"weight {i} is negative: {w}")
                if self.kind == WEIGHTED_ORDER_UNIT and w == 0:
                    raise ValueError(f"order-unit weight {i} must be strictly positive")

    @property
    def dim(self) -> int:
        if self.kind == POLYHEDRAL_GAUGE:
            return self.generators[0].dim
        return len(self.weights)

    def __call__(self, x: LatticeElement):
        if x.dim != self.dim:
            raise DimensionMismatch(f"seminorm over dim {self.dim} applied to dim {x.dim}")
        if self.kind == WEIGHTED_L1:
            return sum((w * abs(c) for w, c in zip(self.weights, x.coords)), Fraction(0))
        if self.kind == WEIGHTED_ORDER_UNIT:
            return max(abs(c) / w for w, c in zip(self.weights, x.coords))
        from . import hulls  # deferred: single gauge implementation lives there

        return hulls.gauge(self.unit_ball(), x)

    def rays(self):
        """The rays d >= 0 whose multiples d / p(d) are the maximal vertices of
        the positive unit ball, each as (p(d), ((i, d_i), ...)) over d_i != 0.

        Weighted l1 has the unit vectors e_i with p(e_i) = w_i (a zero weight
        makes e_i an unbounded direction); the weighted order unit has the one
        ray w with p(w) = 1. Polyhedral gauges have no ray set here.
        """
        if self.kind == WEIGHTED_L1:
            return [(w, ((i, Fraction(1)),)) for i, w in enumerate(self.weights)]
        if self.kind == WEIGHTED_ORDER_UNIT:
            return [(Fraction(1), tuple(enumerate(self.weights)))]
        raise UnsupportedSeminormKind(
            f"{self.kind!r} has no ray set; certificates need weighted l1 or "
            f"weighted order-unit seminorms"
        )

    def unit_ball(self):
        """The set {p <= 1} as a convex-solid-balanced generated set."""
        from . import hulls

        if self.kind == POLYHEDRAL_GAUGE:
            gens = self.generators
        else:
            gens = tuple(
                LatticeElement.sparse(self.dim, ((i, c / pd) for i, c in ray))
                for pd, ray in self.rays() if pd > 0
            )
            if not gens:
                raise ValueError("unit ball of the zero seminorm is not generated")
        return hulls.GeneratedSet(tuple(gens), ("Sol", "Conv_b"))

    def to_json(self) -> dict:
        if self.kind == POLYHEDRAL_GAUGE:
            return {"kind": self.kind, "generators": [g.to_json() for g in self.generators]}
        return {"kind": self.kind, "weights": fraction_list(self.weights)}

    @staticmethod
    def from_json(data, field: str = "seminorm") -> "RieszSeminorm":
        kind = require_key(data, "kind", field)
        if kind == POLYHEDRAL_GAUGE:
            gens = require_key(data, "generators", field)
            if not isinstance(gens, list) or not gens:
                raise FormatError(f"{field}.generators", "expected a nonempty list")
            return RieszSeminorm(
                kind,
                generators=tuple(
                    LatticeElement.from_json(g, f"{field}.generators[{i}]")
                    for i, g in enumerate(gens)
                ),
            )
        if kind in (WEIGHTED_L1, WEIGHTED_ORDER_UNIT):
            weights = parse_fraction_list(require_key(data, "weights", field), f"{field}.weights")
            return RieszSeminorm(kind, weights=weights)
        raise FormatError(f"{field}.kind", f"unknown seminorm kind {kind!r}")


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

    @staticmethod
    def make(rows) -> "LatticeHom":
        return LatticeHom(tuple(tuple(as_fraction(a) for a in row) for row in rows))

    @property
    def source_dim(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def target_dim(self) -> int:
        return len(self.rows)

    def apply(self, x: LatticeElement) -> LatticeElement:
        if x.dim != self.source_dim:
            raise DimensionMismatch(f"hom over dim {self.source_dim} applied to dim {x.dim}")
        return LatticeElement(
            tuple(
                sum((a * c for a, c in zip(row, x.coords)), Fraction(0)) for row in self.rows
            )
        )
