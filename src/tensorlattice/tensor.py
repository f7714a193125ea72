"""The finite-dimensional tensor model: entrywise-ordered matrices.

The tensor product of two coordinate lattices of dimensions n and m is
realized as the lattice of n by m rational matrices with entrywise order;
``rank_one`` is the outer product. This model supports the density facts the
rest of the package leans on:

* every positive element is dominated by a single rank-one element
  (`dominating_rank_one`),
* every positive element is the entrywise supremum of finitely many rank-one
  elements (`rank_one_sup_recover`),
* the matrix units are themselves rank-one, so rank-one elements generate
  everything.

On top of the model sit the canonical zero neighborhoods
W(U, V) = Conv_b(Sol(U ⊗ V)) for convex-solid U, V (`TensorNbhd`), with

* a sampler producing points of W together with explicit witnesses,
* an exact witness verifier,
* a tri-state membership test backed by seminorm certificates, and
* `base_axiom_check`, the witness-level verification that the W(U, V) form a
  neighborhood base of a locally convex-solid topology (additivity, balance,
  translation, intersection).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .elements import INFINITE, DimensionMismatch, LatticeElement, RieszSeminorm
from .hulls import (
    CONV,
    CONV_B,
    SOL,
    GeneratedSet,
    gauge,
    member,
    sample_hull_point,
    scale_set,
)
from .jsonio import FormatError, as_fraction, fraction_list, require_key
from .rng import SplitStream


@dataclass(frozen=True)
class TensorElement:
    """An n x m matrix over Q with entrywise lattice order."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("a tensor element needs a nonempty shape")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows in tensor element")

    @staticmethod
    def make(rows) -> "TensorElement":
        return TensorElement(tuple(tuple(as_fraction(v) for v in row) for row in rows))

    @staticmethod
    def zero(n: int, m: int) -> "TensorElement":
        return TensorElement(tuple((Fraction(0),) * m for _ in range(n)))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def _check(self, other: "TensorElement"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch: {self.shape} vs {other.shape}")

    def _map(self, fn) -> "TensorElement":
        return TensorElement(tuple(tuple(fn(v) for v in row) for row in self.entries))

    def _zip(self, other: "TensorElement", fn) -> "TensorElement":
        self._check(other)
        return TensorElement(
            tuple(
                tuple(fn(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def join(self, other: "TensorElement") -> "TensorElement":
        return self._zip(other, max)

    def meet(self, other: "TensorElement") -> "TensorElement":
        return self._zip(other, min)

    def __abs__(self) -> "TensorElement":
        return self._map(abs)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "TensorElement":
        return self._map(lambda a: -a)

    def scale(self, alpha) -> "TensorElement":
        alpha = as_fraction(alpha)
        return self._map(lambda a: alpha * a)

    def le(self, other: "TensorElement") -> bool:
        self._check(other)
        return all(
            a <= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.entries for v in row)

    def first_negative_entry(self):
        for i, row in enumerate(self.entries):
            for j, v in enumerate(row):
                if v < 0:
                    return i, j
        return None

    def flatten(self) -> LatticeElement:
        return LatticeElement(tuple(v for row in self.entries for v in row))

    @staticmethod
    def from_flat(x: LatticeElement, shape: tuple[int, int]) -> "TensorElement":
        n, m = shape
        if x.dim != n * m:
            raise DimensionMismatch(f"cannot reshape dim {x.dim} to {n}x{m}")
        return TensorElement(
            tuple(tuple(x.coords[i * m + j] for j in range(m)) for i in range(n))
        )

    def to_json(self) -> dict:
        n, m = self.shape
        return {"shape": [n, m], "entries": [fraction_list(row) for row in self.entries]}

    @staticmethod
    def from_json(data, field: str = "tensor") -> "TensorElement":
        entries = require_key(data, "entries", field)
        if not isinstance(entries, list) or not entries:
            raise FormatError(f"{field}.entries", "expected a nonempty list of rows")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or not row:
                raise FormatError(f"{field}.entries[{i}]", "expected a nonempty row")
            rows.append(tuple(as_fraction(v, f"{field}.entries[{i}][{j}]") for j, v in enumerate(row)))
        u = TensorElement(tuple(rows))
        if "shape" in data:
            shape = data["shape"]
            if not (isinstance(shape, list) and len(shape) == 2 and list(u.shape) == shape):
                raise FormatError(f"{field}.shape", f"shape {shape!r} does not match entries {u.shape}")
        return u


def rank_one(x: LatticeElement, y: LatticeElement) -> TensorElement:
    return TensorElement(tuple(tuple(a * b for b in y.coords) for a in x.coords))


def matrix_unit(n: int, m: int, i: int, j: int, value=1) -> TensorElement:
    return rank_one(LatticeElement.unit(n, i, value), LatticeElement.unit(m, j))


def dominating_rank_one(u: TensorElement):
    """A rank-one upper bound a (x) b >= u for positive u: row maxima against ones."""
    bad = u.first_negative_entry()
    if bad is not None:
        i, j = bad
        raise ValueError(f"dominating_rank_one needs u >= 0; entry ({i},{j}) is {u.entries[i][j]}")
    n, m = u.shape
    a = LatticeElement(tuple(max(row) for row in u.entries))
    b = LatticeElement((Fraction(1),) * m)
    return a, b


def rank_one_sup_recover(c: TensorElement):
    """Positive c as an entrywise supremum of rank-one elements.

    Returns pairs (c_ij e_i, e_j) over the nonzero entries; their rank-one
    products are pairwise disjoint matrix-unit multiples whose supremum is c.
    Empty family for c = 0 (supremum convention 0).
    """
    bad = c.first_negative_entry()
    if bad is not None:
        i, j = bad
        raise ValueError(f"rank_one_sup_recover needs c >= 0; entry ({i},{j}) is {c.entries[i][j]}")
    n, m = c.shape
    return [
        (LatticeElement.unit(n, i, v), LatticeElement.unit(m, j))
        for i, row in enumerate(c.entries)
        for j, v in enumerate(row)
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
    """W(U, V) = Conv_b(Sol(U (x) V)) for convex-solid balanced U, V.

    `p` and `q` are carried along when the neighborhood came from seminorm
    unit balls; tri-state membership needs them (see `nbhd_member`).
    """

    left: GeneratedSet
    right: GeneratedSet
    p: RieszSeminorm | None = None
    q: RieszSeminorm | None = None

    def __post_init__(self):
        for name, side in (("left", self.left), ("right", self.right)):
            if side.decoration not in _CONVEX_SOLID:
                raise ValueError(
                    f"{name} factor must be convex-solid (decoration Sol then Conv/Conv_b), "
                    f"got {side.decoration}"
                )

    @staticmethod
    def from_seminorms(p: RieszSeminorm, q: RieszSeminorm) -> "TensorNbhd":
        return TensorNbhd(p.unit_ball(), q.unit_ball(), p, q)

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.dim, self.right.dim

    def to_json(self) -> dict:
        if self.p is not None and self.q is not None:
            return {"p": self.p.to_json(), "q": self.q.to_json()}
        return {"left": self.left.to_json(), "right": self.right.to_json()}

    @staticmethod
    def from_json(data, field: str = "nbhd") -> "TensorNbhd":
        if isinstance(data, dict) and "p" in data and "q" in data:
            return TensorNbhd.from_seminorms(
                RieszSeminorm.from_json(data["p"], f"{field}.p"),
                RieszSeminorm.from_json(data["q"], f"{field}.q"),
            )
        left = GeneratedSet.from_json(require_key(data, "left", field), f"{field}.left")
        right = GeneratedSet.from_json(require_key(data, "right", field), f"{field}.right")
        return TensorNbhd(left, right)


def nbhd_member(W: TensorNbhd, u: TensorElement, radius=1, budget=None) -> Membership:
    """Tri-state membership of u in radius * W, decided by certificates.

    Member when the certified upper bound is at most the radius, non-member
    when the certified lower bound exceeds it, undecided otherwise. Requires
    a neighborhood built from seminorms (`TensorNbhd.from_seminorms`);
    general polyhedral factors are handled by the witness-based checks, not
    by this decision procedure.
    """
    if W.shape != u.shape:
        raise DimensionMismatch(f"neighborhood over {W.shape} probed with {u.shape}")
    radius = as_fraction(radius)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if u.is_zero():
        return Membership.MEMBER
    if W.p is None or W.q is None:
        raise ValueError(
            "tri-state membership needs a seminorm-backed neighborhood; "
            "build it with TensorNbhd.from_seminorms"
        )
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


def sample_tensor_box(rng: SplitStream, bound: TensorElement, denominator: int = 4) -> TensorElement:
    ab = abs(bound)
    return TensorElement(
        tuple(
            tuple(rng.fraction(-c, c, denominator) if c != 0 else Fraction(0) for c in row)
            for row in ab.entries
        )
    )


def sample_nbhd_point(W: TensorNbhd, rng: SplitStream, margin=Fraction(0), max_terms: int = 3):
    """A point of (1 - margin) * W(U, V) with its membership witness.

    With margin > 0 the factor points are also pulled into the interior
    ((1 - margin) * U and (1 - margin) * V), which the translation axiom
    needs.
    """
    margin = Fraction(margin)
    count = rng.randint(1, max_terms)
    lams = rng.balanced_weights(count, ceiling=1 - margin)
    shrink = 1 - margin
    witness = []
    u = TensorElement.zero(*W.shape)
    for k in range(count):
        trng = rng.split("term", k)
        x = sample_hull_point(trng.split("x"), W.left).scale(shrink)
        y = sample_hull_point(trng.split("y"), W.right).scale(shrink)
        z = sample_tensor_box(trng.split("z"), rank_one(x, y))
        witness.append((lams[k], z, x, y))
        u = u + z.scale(lams[k])
    return u, witness


def verify_nbhd_witness(W: TensorNbhd, u: TensorElement, witness) -> bool:
    total = Fraction(0)
    acc = TensorElement.zero(*W.shape)
    for lam, z, x, y in witness:
        lam = as_fraction(lam)
        total += abs(lam)
        if not abs(z).le(rank_one(abs(x), abs(y))):
            return False
        if not member(W.left, x) or not member(W.right, y):
            return False
        acc = acc + z.scale(lam)
    return total <= 1 and acc.entries == u.entries


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


# The per-statement report shape shared by every sampled property check
# (here, in `projective` and in `suite`): at most three witnesses are kept.
def _report(samples):
    return {"samples": samples, "violations": 0, "witnesses": []}


def _violation(rep, index, payload=None):
    rep["violations"] += 1
    if len(rep["witnesses"]) < 3:
        entry = {"index": index}
        if payload:
            entry.update(payload)
        rep["witnesses"].append(entry)


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
    half = TensorNbhd(scale_set(W1.left, Fraction(1, 2)), W1.right)
    report = {
        "additivity": _report(samples),
        "balance": _report(samples),
        "translation": _report(samples),
        "intersection": _report(samples),
    }

    for s in range(samples):
        srng = rng.split(s)

        # additivity: u1 + u2 with u1, u2 in W(U/2, V)
        arng = srng.split("add")
        u1, wit1 = sample_nbhd_point(half, arng.split(0))
        u2, wit2 = sample_nbhd_point(half, arng.split(1))
        combined = [
            (lam / 2, z.scale(2), x.scale(2), y)
            for lam, z, x, y in wit1 + wit2
        ]
        if not verify_nbhd_witness(W1, u1 + u2, combined):
            _violation(report["additivity"], s)

        # balance: lam * u for |lam| <= 1
        brng = srng.split("balance")
        u, wit = sample_nbhd_point(W1, brng.split("point"))
        lam = brng.choice([Fraction(-1), Fraction(1), brng.fraction(-1, 1, 8)])
        scaled = [(lam * c, z, x, y) for c, z, x, y in wit]
        if not verify_nbhd_witness(W1, u.scale(lam), scaled):
            _violation(report["balance"], s)

        # translation: interior z plus a small neighborhood
        trng = srng.split("translate")
        eta = Fraction(1, 4)
        z, zwit = sample_nbhd_point(W1, trng.split("z"), margin=eta)
        small = TensorNbhd(
            scale_set(W1.left, eta), scale_set(W1.right, eta)
        )
        w, wwit = sample_nbhd_point(small, trng.split("w"))
        zs = _signed_padded(zwit)
        ws = _signed_padded(wwit)
        product = [
            (li * gj, zi + wj, abs(xi) + abs(uj), abs(yi) + abs(vj))
            for li, zi, xi, yi in zs
            for gj, wj, uj, vj in ws
        ]
        if not verify_nbhd_witness(W1, z + w, product):
            _violation(report["translation"], s)

        # intersection: pull W1's factors inside W2's and check both
        irng = srng.split("intersect")
        inner_left = _shrink_into(W1.left, W2.left)
        inner_right = _shrink_into(W1.right, W2.right)
        inner = TensorNbhd(inner_left, inner_right)
        v, vwit = sample_nbhd_point(inner, irng)
        ok = verify_nbhd_witness(W1, v, vwit) and verify_nbhd_witness(W2, v, vwit)
        if not ok:
            _violation(report["intersection"], s)

    ok = all(rep["violations"] == 0 for rep in report.values())
    return {
        "id": "nbhd-base",
        "statement": "the sets Conv_b(Sol(U (x) V)) satisfy the zero-neighborhood base axioms",
        "checks": report,
        "ok": ok,
    }


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


def nbhd_solidity_check(W: TensorNbhd, *, seed: int, samples: int, budget=None) -> dict:
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
        u = TensorElement(
            tuple(
                tuple(srng.fraction(-2, 2, 4) for _ in range(m)) for _ in range(n)
            )
        )
        cert_u = projective.seminorm_certify(W.p, W.q, u, budget)
        if cert_u.upper > 1:
            # pull u onto the boundary so membership is certain
            u = u.scale(Fraction(1, 1) / cert_u.upper)
            cert_u = projective.seminorm_certify(W.p, W.q, u, budget)
        if cert_u.upper > 1:
            continue  # membership premise not certified; nothing to contradict
        v = sample_tensor_box(srng.split("v"), u)
        cert_v = projective.seminorm_certify(W.p, W.q, v, budget)
        if cert_v.lower > 1:
            _violation(rep, s, {"u": u.to_json(), "v": v.to_json()})
    rep["id"] = "nbhd-solidity"
    rep["statement"] = "certified neighborhood membership is solid (downward closed in |.|)"
    rep["ok"] = rep["violations"] == 0
    return rep
