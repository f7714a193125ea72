"""Lattice bimorphisms out of coordinate lattices and the maps they induce.

A lattice bimorphism on Q^n x Q^m is pinned down by its grid of values on
basis pairs: images g_ij that are entrywise nonnegative and pairwise
disjoint in the target lattice (g_ij and g_kl meet at zero whenever
(i, j) != (k, l)). Every such grid induces a unique lattice homomorphism on
the tensor model, u |-> sum_ij u_ij g_ij, and that map factors the
bimorphism through rank-ones: T(x (x) y) = Phi(x, y).

The induced map is checked both algebraically (join, absolute value, and
solidity preservation, which genuinely fail when the disjointness premise
is dropped) and topologically: `continuity_certificate` produces the exact
operator constant C with r(T(u)) <= C * (p (x) q)(u), a tightness witness
attaining it, and a hull-level check that neighborhood witnesses map into
the solid convex hull of their factor images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elements import INFINITE, DimensionMismatch, LatticeElement, RieszSeminorm
from .jsonio import FormatError, fraction_str, require_key
from .rng import SplitStream
from .tensor import (
    TensorElement,
    TensorNbhd,
    _report,
    _violation,
    rank_one,
    sample_nbhd_point,
    sample_tensor_box,
)
from . import hulls


class BimorphismDefect(ValueError):
    """The image grid violates a bimorphism requirement."""


@dataclass(frozen=True)
class LatticeBimorphism:
    """A grid of basis-pair images, Phi(e_i, f_j) = images[i][j].

    `verified` records whether the disjointness and positivity premises were
    checked at construction. `unchecked` deliberately skips them so that the
    property reports can demonstrate what breaks without them.
    """

    images: tuple[tuple[LatticeElement, ...], ...]
    verified: bool = True

    def __post_init__(self):
        if not self.images or not self.images[0]:
            raise BimorphismDefect("image grid must be nonempty")
        m = len(self.images[0])
        dims = set()
        for i, row in enumerate(self.images):
            if len(row) != m:
                raise BimorphismDefect(f"image row {i} has {len(row)} columns, expected {m}")
            for j, g in enumerate(row):
                dims.add(g.dim)
        if len(dims) != 1:
            raise BimorphismDefect("images must share the target dimension")
        if not self.verified:
            return
        flat = [(i, j, g) for i, row in enumerate(self.images) for j, g in enumerate(row)]
        for i, j, g in flat:
            for k, c in enumerate(g.coords):
                if c < 0:
                    raise BimorphismDefect(f"image ({i},{j}) has negative coordinate {k}: {c}")
        for a in range(len(flat)):
            for b in range(a + 1, len(flat)):
                i, j, g = flat[a]
                k, l, h = flat[b]
                if not g.meet(h).is_zero():
                    raise BimorphismDefect(
                        f"images ({i},{j}) and ({k},{l}) are not disjoint"
                    )

    @staticmethod
    def make(images) -> "LatticeBimorphism":
        return LatticeBimorphism(tuple(tuple(row) for row in images))

    @staticmethod
    def unchecked(images) -> "LatticeBimorphism":
        return LatticeBimorphism(tuple(tuple(row) for row in images), verified=False)

    @staticmethod
    def canonical(n: int, m: int) -> "LatticeBimorphism":
        """The bimorphism into Q^(n*m) whose induced map is entry flattening."""
        return LatticeBimorphism(tuple(
            tuple(LatticeElement.unit(n * m, i * m + j) for j in range(m))
            for i in range(n)
        ))

    @property
    def source_shape(self) -> tuple[int, int]:
        return len(self.images), len(self.images[0])

    @property
    def target_dim(self) -> int:
        return self.images[0][0].dim

    def __call__(self, x: LatticeElement, y: LatticeElement) -> LatticeElement:
        n, m = self.source_shape
        if x.dim != n or y.dim != m:
            raise DimensionMismatch(
                f"bimorphism over ({n},{m}) applied to dims ({x.dim},{y.dim})"
            )
        total = LatticeElement.zero(self.target_dim)
        for i, xi in enumerate(x.coords):
            if xi == 0:
                continue
            for j, yj in enumerate(y.coords):
                if yj == 0:
                    continue
                total = total + self.images[i][j].scale(xi * yj)
        return total

    def to_json(self) -> dict:
        return {
            "target_dim": self.target_dim,
            "images": [[g.to_json() for g in row] for row in self.images],
        }

    @staticmethod
    def from_json(data, field: str = "bimorphism") -> "LatticeBimorphism":
        target_dim = require_key(data, "target_dim", field)
        rows = require_key(data, "images", field)
        if not isinstance(rows, list) or not rows:
            raise FormatError(f"{field}.images", "expected a nonempty list of rows")
        images = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise FormatError(f"{field}.images[{i}]", "expected a list")
            images.append(tuple(
                LatticeElement.from_json(g, f"{field}.images[{i}][{j}]")
                for j, g in enumerate(row)
            ))
        phi = LatticeBimorphism(tuple(images))
        if phi.target_dim != target_dim:
            raise FormatError(
                f"{field}.target_dim",
                f"declared {target_dim} but images live in dimension {phi.target_dim}",
            )
        return phi


@dataclass(frozen=True)
class InducedHom:
    """The unique linear extension of a bimorphism to the tensor model."""

    bimorphism: LatticeBimorphism

    @property
    def source_shape(self) -> tuple[int, int]:
        return self.bimorphism.source_shape

    @property
    def target_dim(self) -> int:
        return self.bimorphism.target_dim

    def apply(self, u: TensorElement) -> LatticeElement:
        if u.shape != self.source_shape:
            raise DimensionMismatch(
                f"induced map over {self.source_shape} applied to {u.shape}"
            )
        total = LatticeElement.zero(self.target_dim)
        for i, row in enumerate(u.entries):
            for j, c in enumerate(row):
                if c != 0:
                    total = total + self.bimorphism.images[i][j].scale(c)
        return total


def induce_hom(phi: LatticeBimorphism) -> InducedHom:
    """The induced lattice homomorphism; insists on a verified bimorphism."""
    if not phi.verified:
        raise BimorphismDefect(
            "only verified bimorphisms induce lattice homomorphisms; "
            "use LatticeBimorphism.make"
        )
    return InducedHom(phi)


def _sample_tensor(rng: SplitStream, n: int, m: int, lo=-3, hi=3) -> TensorElement:
    return TensorElement(tuple(
        tuple(rng.fraction(lo, hi, 4) for _ in range(m)) for _ in range(n)
    ))


def hom_property_report(phi: LatticeBimorphism, *, samples: int, seed: int) -> dict:
    """Exact checks that the induced map is a lattice homomorphism.

    Factorization and additivity are linear-algebra identities that hold for
    any image grid; join preservation, absolute-value preservation, and
    solidity are the lattice half, and they are exactly what the
    disjointness premise buys. An unchecked grid with overlapping images
    shows up here as nonzero violation counts, not as an exception.
    """
    T = InducedHom(phi)
    n, m = phi.source_shape
    rng = SplitStream(seed).split("hom-properties")
    checks = {
        name: _report(samples)
        for name in ("factorization", "additivity", "join", "absolute_value", "solidity")
    }

    for s in range(samples):
        srng = rng.split(s)
        x = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(n)))
        y = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(m)))
        u = _sample_tensor(srng.split("u"), n, m)
        v = _sample_tensor(srng.split("v"), n, m)
        if T.apply(rank_one(x, y)) != phi(x, y):
            _violation(checks["factorization"], s, {"x": x.to_json(), "y": y.to_json()})
        if T.apply(u + v) != T.apply(u) + T.apply(v):
            _violation(checks["additivity"], s, {"u": u.to_json(), "v": v.to_json()})
        if T.apply(u.join(v)) != T.apply(u).join(T.apply(v)):
            _violation(checks["join"], s, {"u": u.to_json(), "v": v.to_json()})
        if T.apply(abs(u)) != abs(T.apply(u)):
            _violation(checks["absolute_value"], s, {"u": u.to_json()})
        # a lattice hom is solid: |w| <= |u| forces |T(w)| <= |T(u)|
        dominated = sample_tensor_box(srng.split("dominated"), u)
        if not abs(T.apply(dominated)).le(abs(T.apply(u))):
            _violation(checks["solidity"], s, {"a": u.to_json(), "u": dominated.to_json()})
    out = {
        "id": "hom-property",
        "statement": (
            "the induced map factors the bimorphism and preserves joins, "
            "absolute values, and solidity"
        ),
        "verified_premises": phi.verified,
        "checks": checks,
        "ok": all(rep["violations"] == 0 for rep in checks.values()),
    }
    return out


def hom_agreement_check(phi: LatticeBimorphism, psi: LatticeBimorphism, *,
                        samples: int, seed: int) -> dict:
    """Uniqueness: maps agreeing on the matrix units agree everywhere.

    Two induced maps coincide on all of the tensor model precisely when
    their image grids are identical; random tensors provide the extensional
    side of the same statement.
    """
    if phi.source_shape != psi.source_shape or phi.target_dim != psi.target_dim:
        raise DimensionMismatch("bimorphisms must share source shape and target dimension")
    same_images = phi.images == psi.images
    T, S = InducedHom(phi), InducedHom(psi)
    n, m = phi.source_shape
    rng = SplitStream(seed).split("hom-agreement")
    disagreements = 0
    witness = None
    for s in range(samples):
        u = _sample_tensor(rng.split(s), n, m)
        if T.apply(u) != S.apply(u):
            disagreements += 1
            if witness is None:
                witness = u.to_json()
    ok = (disagreements == 0) == same_images
    return {
        "id": "hom-uniqueness",
        "statement": "induced maps agree everywhere iff they agree on basis pairs",
        "identical_images": same_images,
        "disagreements": disagreements,
        "witness": witness,
        "samples": samples,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Continuity
# ---------------------------------------------------------------------------


def _ratio(value, denom):
    """value / denom in the extended order: positive/0 is INFINITE."""
    if value is INFINITE:
        return INFINITE
    if denom == 0:
        return INFINITE if value > 0 else Fraction(0)
    return value / denom


def _max_extended(values):
    best = Fraction(0)
    for v in values:
        if v is INFINITE:
            return INFINITE
        if v > best:
            best = v
    return best


def continuity_constant(phi: LatticeBimorphism, p: RieszSeminorm, q: RieszSeminorm,
                        r: RieszSeminorm):
    """The exact operator constant C with r(T(u)) <= C * (p (x) q)(u).

    The maximum of r(Phi(d, e)) / (p(d) q(e)) over the ray pairs (d, e) of
    the factor seminorms (`RieszSeminorm.rays`), attained at d (x) e: for
    l1 (x) l1 the matrix units, for order-unit both sides w (x) v.

    INFINITE signals an unbounded direction: a tensor with projective
    seminorm zero whose image has positive target seminorm.
    """
    n, m = phi.source_shape
    if (p.dim, q.dim) != (n, m):
        raise DimensionMismatch(
            f"seminorm dims ({p.dim},{q.dim}) do not match the bimorphism source {phi.source_shape}"
        )
    if r.dim != phi.target_dim:
        raise DimensionMismatch(
            f"target seminorm dim {r.dim} does not match the bimorphism target {phi.target_dim}"
        )
    right = [(qe, LatticeElement.sparse(m, e)) for qe, e in q.rays()]
    candidates = []
    for pd, d in p.rays():
        d = LatticeElement.sparse(n, d)
        for qe, e in right:
            candidates.append((_ratio(r(phi(d, e)), pd * qe), rank_one(d, e)))
    constant = _max_extended(c for c, _ in candidates)
    direction = None
    for c, d in candidates:
        if c is constant or (constant is not INFINITE and c == constant):
            direction = d
            break
    return constant, direction


def continuity_certificate(phi: LatticeBimorphism, p: RieszSeminorm, q: RieszSeminorm,
                           r: RieszSeminorm, *, samples: int, seed: int,
                           budget=None) -> dict:
    """Certify r(T(u)) <= C * (p (x) q)(u) with C exact and attained.

    Three layers:

    * the constant itself, with the direction attaining it (or the
      unbounded direction when C is INFINITE, checked to have projective
      seminorm zero and positive image seminorm);
    * random-sample domination r(T(u)) <= C * upper(u) through certificates;
    * hull-level continuity: a sampled neighborhood witness sum_k lam_k z_k
      maps to a point of the solid convex balanced hull generated by the
      factor images Phi(|x_k|, |y_k|), checked term by term and then by an
      exact membership program.
    """
    from . import projective

    T = induce_hom(phi)
    C, direction = continuity_constant(phi, p, q, r)
    report = {
        "id": "continuity-constant",
        "statement": "the induced map is seminorm-continuous with an exact operator constant",
        "constant": "INFINITE" if C is INFINITE else fraction_str(C),
        "samples": samples,
        "violations": 0,
        "witnesses": [],
    }

    if C is INFINITE:
        cert = projective.seminorm_certify(p, q, direction, budget)
        image_norm = r(T.apply(direction))
        report["unbounded_direction"] = {
            "u": direction.to_json(),
            "projective_upper": fraction_str(cert.upper),
            "image_seminorm": "INFINITE" if image_norm is INFINITE else fraction_str(image_norm),
        }
        report["ok"] = cert.upper == 0 and image_norm > 0
        return report

    tightness = None
    if direction is not None and not direction.is_zero():
        cert = projective.seminorm_certify(p, q, direction, budget)
        attained = r(T.apply(direction))
        tightness = {
            "u": direction.to_json(),
            "value": fraction_str(cert.upper),
            "image_seminorm": fraction_str(attained),
            "attains": cert.lower == cert.upper and attained == C * cert.upper,
        }
    report["tightness"] = tightness

    rng = SplitStream(seed).split("continuity")
    n, m = phi.source_shape
    for s in range(samples):
        u = _sample_tensor(rng.split(s), n, m)
        cert = projective.seminorm_certify(p, q, u, budget)
        val = r(T.apply(u))
        if val is INFINITE or val > C * cert.upper:
            report["violations"] += 1
            if len(report["witnesses"]) < 3:
                report["witnesses"].append({
                    "index": s,
                    "u": u.to_json(),
                    "image_seminorm": "INFINITE" if val is INFINITE else fraction_str(val),
                    "bound": fraction_str(C * cert.upper),
                })

    W = TensorNbhd.from_seminorms(p, q)
    hull_rep = {"samples": samples, "violations": 0, "witnesses": []}
    for s in range(samples):
        srng = rng.split("hull", s)
        point, witness = sample_nbhd_point(W, srng)
        gens = []
        termwise_ok = True
        for lam, z, xk, yk in witness:
            g = phi(abs(xk), abs(yk))
            gens.append(g)
            if not abs(T.apply(z)).le(g):
                termwise_ok = False
        image_set = hulls.GeneratedSet(tuple(gens), ("Sol", "Conv_b"))
        inside = hulls.member(image_set, T.apply(point))
        if not (termwise_ok and inside):
            hull_rep["violations"] += 1
            if len(hull_rep["witnesses"]) < 3:
                hull_rep["witnesses"].append({
                    "index": s,
                    "point": point.to_json(),
                    "termwise": termwise_ok,
                    "member": inside,
                })
    report["hull_continuity"] = hull_rep
    report["ok"] = (
        report["violations"] == 0
        and hull_rep["violations"] == 0
        and (tightness is None or tightness["attains"])
    )
    return report
