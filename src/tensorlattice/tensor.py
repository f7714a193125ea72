"""The finite-dimensional tensor model: entrywise-ordered matrices.

The tensor product of two coordinate lattices of dimensions n and m is
realized as the lattice of n by m rational matrices with entrywise order,
which is the coordinate lattice on n*m coordinates: a `TensorElement` is a
`LatticeElement` over the row-major entries that also carries its shape.
``rank_one`` is the outer product. This model supports the density facts the
rest of the package leans on:

* every positive element is dominated by a single rank-one element
  (`dominating_rank_one`),
* every positive element is the entrywise supremum of finitely many rank-one
  elements (`rank_one_sup_recover`),
* the matrix units are themselves rank-one, so rank-one elements generate
  everything.

On top of the model sit the canonical zero neighborhoods
W(U, V) = Conv_b(Sol(U ⊗ V)) with U = {p <= 1} and V = {q <= 1} for Riesz
seminorms p, q (`TensorNbhd`; a generated factor Conv_b(Sol(G)) is the
polyhedral gauge of G), with

* a sampler producing points of W together with explicit witnesses,
* an exact witness verifier, which decides each factor point by
  p(x) <= 1 (no LP when the rays of p partition the coordinates),
* a tri-state membership test backed by seminorm certificates, and
* `base_axiom_check`, the witness-level verification that the W(U, V) form a
  neighborhood base of a locally convex-solid topology (additivity, balance,
  translation, intersection).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .elements import (
    INFINITE,
    DimensionMismatch,
    LatticeElement,
    RieszSeminorm,
    _element,
    _lowest,
    _set,
)
from .hulls import (
    CONV,
    CONV_B,
    SOL,
    GeneratedSet,
    _close,
    _close_checks,
    _report,
    _violation,
    gauge,
    random_element,
    sample_box_point,
    sample_hull_point,
    scale_set,
)
from .jsonio import FormatError, _quote, as_fraction, fraction_list, fraction_str, require_key
from .rng import SplitStream


class TensorElement(LatticeElement):
    """An n x m matrix over Q with entrywise lattice order.

    It is the coordinate lattice on n*m coordinates: `num` and `coords` hold
    the entries row by row, so entry (i, j) is `coords[i * m + j]`, and
    every lattice operation is the inherited one. `shape` only keeps n x m
    and m x n apart.
    """

    __slots__ = ("shape",)

    def __init__(self, coords, shape: tuple[int, int]):
        n, m = shape
        _check_shape(n, m, len(coords))
        super().__init__(coords)
        _set(self, "shape", shape)

    def _key(self):
        return self.num, self.den, self.shape

    def __repr__(self):
        return f"TensorElement(coords={self.coords!r}, shape={self.shape!r})"

    def _like(self, num, den) -> "TensorElement":
        return _shaped(num, den, self.shape)

    def _check(self, other: "TensorElement"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch: {self.shape} vs {other.shape}")

    @staticmethod
    def make(rows) -> "TensorElement":
        rows = [tuple(as_fraction(v) for v in row) for row in rows]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows in tensor element")
        return TensorElement(tuple(v for row in rows for v in row),
                             (len(rows), len(rows[0]) if rows else 0))

    @staticmethod
    def zero(n: int, m: int) -> "TensorElement":
        return TensorElement((0,) * (n * m), (n, m))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows, as a derived view of the row-major coordinates."""
        m = self.shape[1]
        return tuple(self.coords[k:k + m] for k in range(0, len(self.coords), m))

    def first_negative_entry(self):
        for k, v in enumerate(self.num):
            if v < 0:
                return divmod(k, self.shape[1])
        return None

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "entries": [fraction_list(row) for row in self.entries]}

    @staticmethod
    def from_json(data, field: str = "tensor") -> "TensorElement":
        entries = require_key(data, "entries", field)
        if not isinstance(entries, list) or not entries:
            raise FormatError(f"{field}.entries", "expected a nonempty list of rows")
        coords = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or not row:
                raise FormatError(f"{field}.entries[{i}]", "expected a nonempty row")
            if len(row) != len(entries[0]):
                raise FormatError(f"{field}.entries[{i}]",
                                  f"expected {len(entries[0])} entries like row 0, got {len(row)}")
            coords.extend(as_fraction(v, f"{field}.entries[{i}][{j}]") for j, v in enumerate(row))
        u = TensorElement(tuple(coords), (len(entries), len(entries[0])))
        if "shape" in data:
            shape = data["shape"]
            if not (isinstance(shape, list) and len(shape) == 2 and list(u.shape) == shape):
                raise FormatError(f"{field}.shape", f"does not match the entries' shape {list(u.shape)}")
        return u


def _check_shape(n: int, m: int, size: int):
    if n < 1 or m < 1:
        raise ValueError("a tensor element needs a nonempty shape")
    if size != n * m:
        raise DimensionMismatch(f"cannot reshape dim {size} to {n}x{m}")


def _shaped(num: tuple[int, ...], den: int, shape: tuple[int, int]) -> TensorElement:
    """The tensor element num / den of the given shape; num / den in lowest terms."""
    out = object.__new__(TensorElement)
    _set(out, "num", num)
    _set(out, "den", den)
    _set(out, "shape", shape)
    return out


def rank_one(x: LatticeElement, y: LatticeElement) -> TensorElement:
    num = tuple(a * b for a in x.num for b in y.num)
    _check_shape(x.dim, y.dim, len(num))
    return _shaped(*_lowest(num, x.den * y.den), (x.dim, y.dim))


def matrix_unit(n: int, m: int, i: int, j: int, value=1) -> TensorElement:
    return rank_one(LatticeElement.unit(n, i, value), LatticeElement.unit(m, j))


def dominating_rank_one(u: TensorElement):
    """A rank-one upper bound a (x) b >= u for positive u: row maxima against ones."""
    n, m = u.shape
    bad = u.first_negative_entry()
    if bad is not None:
        i, j = bad
        raise ValueError(f"dominating_rank_one needs u >= 0; entry ({i},{j}) is {u.coords[i * m + j]}")
    a = _element(*_lowest(tuple(max(u.num[i * m:(i + 1) * m]) for i in range(n)), u.den))
    return a, _element((1,) * m, 1)


def rank_one_sup_recover(c: TensorElement):
    """Positive c as an entrywise supremum of rank-one elements.

    Returns pairs (c_ij e_i, e_j) over the nonzero entries; their rank-one
    products are pairwise disjoint matrix-unit multiples whose supremum is c.
    Empty family for c = 0 (supremum convention 0).
    """
    n, m = c.shape
    bad = c.first_negative_entry()
    if bad is not None:
        i, j = bad
        raise ValueError(f"rank_one_sup_recover needs c >= 0; entry ({i},{j}) is {c.coords[i * m + j]}")
    return [
        (LatticeElement.unit(n, k // m, v), LatticeElement.unit(m, k % m))
        for k, v in enumerate(c.coords)
        if v != 0
    ]


def sup_of_rank_ones(pairs, shape: tuple[int, int]) -> TensorElement:
    out = TensorElement.zero(*shape)
    for x, y in pairs:
        out = out.join(rank_one(x, y))
    return out


class Membership(str, enum.Enum):
    MEMBER = "member"
    NON_MEMBER = "non-member"
    UNDECIDED = "undecided"


_CONVEX_SOLID = ((SOL, CONV_B), (SOL, CONV))


@dataclass(frozen=True)
class TensorNbhd:
    """W(U, V) = Conv_b(Sol(U (x) V)) with U = {p <= 1} and V = {q <= 1}.

    `p` and `q` decide both membership paths: the certificates of
    `nbhd_member` and the witness checks of `verify_nbhd_witness`. `left`
    and `right` are convex-solid sets inside U and V used only for
    sampling; `from_seminorms` takes the unit balls, which miss the
    directions on which a seminorm vanishes. A neighborhood of generated
    factors is `from_seminorms(polyhedral_gauge(G), polyhedral_gauge(H))`.
    """

    left: GeneratedSet
    right: GeneratedSet
    p: RieszSeminorm
    q: RieszSeminorm

    def __post_init__(self):
        for name, side in (("left", self.left), ("right", self.right)):
            if side.decoration not in _CONVEX_SOLID:
                raise ValueError(
                    f"{name} factor must be convex-solid (decoration Sol then Conv/Conv_b), "
                    f"got {_quote(side.decoration)}"
                )

    @staticmethod
    def from_seminorms(p: RieszSeminorm, q: RieszSeminorm) -> "TensorNbhd":
        return TensorNbhd(p.unit_ball(), q.unit_ball(), p, q)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.dim, self.q.dim

    @staticmethod
    def from_json(data, field: str = "nbhd") -> "TensorNbhd":
        return TensorNbhd.from_seminorms(
            RieszSeminorm.from_json(require_key(data, "p", field), f"{field}.p"),
            RieszSeminorm.from_json(require_key(data, "q", field), f"{field}.q"),
        )


def nbhd_member(W: TensorNbhd, u: TensorElement, radius=1, budget=None) -> Membership:
    """Tri-state membership of u in radius * W, decided by certificates.

    Member when the certified upper bound is at most the radius, non-member
    when the certified lower bound exceeds it, undecided otherwise. The
    certificates need seminorms whose ray supports partition the
    coordinates; other factors raise `UnsupportedSeminormKind` here and are
    handled by the witness-based checks.
    """
    if W.shape != u.shape:
        raise DimensionMismatch(f"neighborhood over {W.shape} probed with {u.shape}")
    radius = as_fraction(radius)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {_quote(fraction_str(radius))}")
    if u.is_zero():
        return Membership.MEMBER
    from . import projective  # deferred: projective builds on this module

    cert = projective.seminorm_certify(W.p, W.q, u, budget)
    if cert.upper <= radius:
        return Membership.MEMBER
    if cert.lower > radius:
        return Membership.NON_MEMBER
    return Membership.UNDECIDED


# ---------------------------------------------------------------------------
# Witness-based membership
# ---------------------------------------------------------------------------
# A witness for u in W(U, V) is a list of (lam_k, z_k, x_k, y_k) with
#   u = sum lam_k z_k,  sum |lam_k| <= 1,  |z_k| <= |x_k| (x) |y_k|,
#   x_k in U,  y_k in V.
# Everything is verified exactly; the sampler constructs such witnesses.


def random_tensor(rng: SplitStream, n: int, m: int, lo=-3, hi=3) -> TensorElement:
    """An n x m tensor with entries on the quarter grid of [lo, hi], drawn row by row."""
    flat = random_element(rng, n * m, lo, hi)
    _check_shape(n, m, flat.dim)
    return _shaped(flat.num, flat.den, (n, m))


def sample_nbhd_point(U: GeneratedSet, V: GeneratedSet, rng: SplitStream, margin=Fraction(0)):
    """A point of (1 - margin) * W(U, V) with its membership witness of 1 to 3 terms.

    With margin > 0 the factor points are also pulled into the interior
    ((1 - margin) * U and (1 - margin) * V), which the translation axiom
    needs.
    """
    margin = Fraction(margin)
    count = rng.randint(1, 3)
    lams = rng.balanced_weights(count, ceiling=1 - margin)
    shrink = 1 - margin
    witness = []
    u = TensorElement.zero(U.dim, V.dim)
    for k in range(count):
        trng = rng.split("term", k)
        x = sample_hull_point(trng.split("x"), U).scale(shrink)
        y = sample_hull_point(trng.split("y"), V).scale(shrink)
        z = sample_box_point(trng.split("z"), rank_one(x, y))
        witness.append((lams[k], z, x, y))
        u = u + z.scale(lams[k])
    return u, witness


def verify_nbhd_witness(W: TensorNbhd, u: TensorElement, witness) -> bool:
    """Exact check of a witness for u in W(U, V) (format above).

    Each factor point is checked against U = {p <= 1} and V = {q <= 1}, as
    `nbhd_member` does.
    """
    total = Fraction(0)
    acc = TensorElement.zero(*W.shape)
    for lam, z, x, y in witness:
        lam = as_fraction(lam)
        total += abs(lam)
        if not abs(z).le(rank_one(abs(x), abs(y))):
            return False
        if not (W.p.in_unit_ball(x) and W.q.in_unit_ball(y)):
            return False
        acc = acc + z.scale(lam)
    return total <= 1 and acc == u


def _signed_padded(witness):
    """Rewrite a witness so the coefficients are nonnegative and sum to 1.

    Signs move into the z_k (solid bounds are symmetric) and a zero term
    absorbs the slack. Product-combination steps need coefficient sums of
    exactly 1: for balanced weights the raw sums may be anything in [-1, 1].
    """
    if not witness:
        raise ValueError("cannot normalize an empty witness")
    out = []
    total = Fraction(0)
    for lam, z, x, y in witness:
        lam = as_fraction(lam)
        if lam < 0:
            lam, z = -lam, -z
        out.append((lam, z, x, y))
        total += lam
    if total > 1:
        raise ValueError(f"witness mass {total} exceeds 1")
    if total < 1:
        _, z0, x0, y0 = out[0]
        out.append((
            1 - total,
            TensorElement.zero(*z0.shape),
            LatticeElement.zero(x0.dim),
            LatticeElement.zero(y0.dim),
        ))
    return out


# ---------------------------------------------------------------------------
# Base axioms
# ---------------------------------------------------------------------------


def base_axiom_check(W1: TensorNbhd, W2: TensorNbhd, *, seed: int, samples: int) -> dict:
    """Witness-level verification of the neighborhood-base axioms.

    * additivity: W(U/2, V) + W(U/2, V) lands in W(U, V), by doubling the
      halved witnesses and halving their coefficients;
    * balance: scaling a member by |lam| <= 1 scales its witness;
    * translation: around an interior point z of W (margin 1/4), adding any
      w from W(U/4, V/4) stays in W, via the padded product witness whose
      terms are bounded by (|x_i|+|u_j|) (x) (|y_i|+|v_j|);
    * intersection: a neighborhood built inside both factor intersections
      lands in W1 and W2.

    W2 supplies the second neighborhood for the intersection axiom.
    """
    if W1.shape != W2.shape:
        raise DimensionMismatch(f"neighborhoods over {W1.shape} vs {W2.shape}")
    rng = SplitStream(seed).split("nbhd-base")
    # factor pairs to sample from: W(U/2, V), and W1's factors pulled inside
    # W2's for the intersection axiom; built once, since they draw nothing
    half = (scale_set(W1.left, Fraction(1, 2)), W1.right)
    inner = (_shrink_into(W1.left, W2.left), _shrink_into(W1.right, W2.right))
    report = {axiom: _report(samples)
              for axiom in ("additivity", "balance", "translation", "intersection")}

    for s in range(samples):
        srng = rng.split(s)

        # additivity: u1 + u2 with u1, u2 in W(U/2, V)
        arng = srng.split("add")
        u1, wit1 = sample_nbhd_point(*half, arng.split(0))
        u2, wit2 = sample_nbhd_point(*half, arng.split(1))
        combined = [
            (lam / 2, z.scale(2), x.scale(2), y)
            for lam, z, x, y in wit1 + wit2
        ]
        if not verify_nbhd_witness(W1, u1 + u2, combined):
            _violation(report["additivity"], s)

        # balance: lam * u for |lam| <= 1
        brng = srng.split("balance")
        u, wit = sample_nbhd_point(W1.left, W1.right, brng.split("point"))
        lam = brng.choice([Fraction(-1), Fraction(1), brng.fraction(-1, 1, 8)])
        scaled = [(lam * c, z, x, y) for c, z, x, y in wit]
        if not verify_nbhd_witness(W1, u.scale(lam), scaled):
            _violation(report["balance"], s)

        # translation: interior z plus a small neighborhood
        trng = srng.split("translate")
        eta = Fraction(1, 4)
        z, zwit = sample_nbhd_point(W1.left, W1.right, trng.split("z"), margin=eta)
        w, wwit = sample_nbhd_point(scale_set(W1.left, eta), scale_set(W1.right, eta),
                                    trng.split("w"))
        zs = _signed_padded(zwit)
        ws = _signed_padded(wwit)
        product = [
            (li * gj, zi + wj, abs(xi) + abs(uj), abs(yi) + abs(vj))
            for li, zi, xi, yi in zs
            for gj, wj, uj, vj in ws
        ]
        if not verify_nbhd_witness(W1, z + w, product):
            _violation(report["translation"], s)

        # intersection: a point of the pulled-in neighborhood lies in W1 and W2
        v, vwit = sample_nbhd_point(*inner, srng.split("intersect"))
        ok = verify_nbhd_witness(W1, v, vwit) and verify_nbhd_witness(W2, v, vwit)
        if not ok:
            _violation(report["intersection"], s)

    return _close_checks(report, "nbhd-base",
                         "the sets Conv_b(Sol(U (x) V)) satisfy the zero-neighborhood base axioms")


def _shrink_into(A: GeneratedSet, B: GeneratedSet) -> GeneratedSet:
    """A generated convex-solid subset of A that also sits inside B."""
    gens = []
    for g in A.generators:
        r = gauge(B, g)
        if r is INFINITE:
            continue  # direction not absorbed by B; drop it
        gens.append(g if r <= 1 else g.scale(Fraction(1, 1) / r))
    if not gens:
        gens = [LatticeElement.zero(A.dim)]
    return GeneratedSet(tuple(gens), A.decoration)


def nbhd_solidity_check(W: TensorNbhd, *, seed: int, samples: int) -> dict:
    """Certified membership is never contradicted on dominated elements.

    If u is certified inside W and |v| <= |u|, then v must not be certified
    outside (its certified lower bound cannot exceed 1).
    """
    from . import projective

    rng = SplitStream(seed).split("nbhd-solid")
    rep = _report(samples)
    n, m = W.shape
    for s in range(samples):
        srng = rng.split(s)
        u = random_tensor(srng, n, m, -2, 2)
        cert_u = projective.seminorm_certify(W.p, W.q, u)
        if cert_u.upper > 1:
            # pull u onto the boundary so membership is certain
            u = u.scale(Fraction(1, 1) / cert_u.upper)
            cert_u = projective.seminorm_certify(W.p, W.q, u)
        if cert_u.upper > 1:
            continue  # membership premise not certified; nothing to contradict
        v = sample_box_point(srng.split("v"), u)
        cert_v = projective.seminorm_certify(W.p, W.q, v)
        if cert_v.lower > 1:
            _violation(rep, s, {"u": u.to_json(), "v": v.to_json()})
    return _close(rep, "nbhd-solidity",
                  "certified neighborhood membership is solid (downward closed in |.|)")
