"""Lattice bimorphisms out of coordinate lattices and the maps they induce.

A lattice bimorphism on Q^n x Q^m is pinned down by its grid of values on
basis pairs: images g_ij that are entrywise nonnegative and pairwise
disjoint in the target lattice (g_ij and g_kl meet at zero whenever
(i, j) != (k, l)). Every such grid induces a unique lattice homomorphism on
the tensor model, u |-> sum_ij u_ij g_ij (Fremlin's universal property),
and `LatticeBimorphism.apply` is that map: it factors the bimorphism
through rank-ones, T(x (x) y) = Phi(x, y). Both are one call of
`elements.combination` over the image grid.

The induced map is checked both algebraically (join, absolute value, and
solidity preservation, which genuinely fail when the disjointness premise
is dropped, so `hom_property_report` also runs on unchecked grids) and
topologically: `continuity_certificate`, which insists on a verified grid,
produces the exact operator constant C with r(T(u)) <= C * (p (x) q)(u), a
tightness witness attaining it, and a hull-level check that neighborhood
witnesses map into the solid convex hull of their factor images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elements import INFINITE, DimensionMismatch, LatticeElement, RieszSeminorm, combination
from .jsonio import fraction_str
from .rng import SplitStream
from .tensor import (
    TensorElement,
    random_tensor,
    rank_one,
    sample_nbhd_point,
)
from . import hulls, projective
from .hulls import _close_checks, _report, _violation, random_element, sample_box_point


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
            dims.update(g.dim for g in row)
        if len(dims) != 1:
            raise BimorphismDefect("images must share the target dimension")
        if not self.verified:
            return
        owner = {}
        for i, row in enumerate(self.images):
            for j, g in enumerate(row):
                for k, c in enumerate(g.coords):
                    if c < 0:
                        raise BimorphismDefect(f"image ({i},{j}) has negative coordinate {k}: {c}")
                    if c > 0:
                        if k in owner:
                            a, b = owner[k]
                            raise BimorphismDefect(
                                f"images ({a},{b}) and ({i},{j}) are not disjoint"
                            )
                        owner[k] = (i, j)

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
        return combination(((a * b, g) for a, row in zip(x.num, self.images)
                            for b, g in zip(y.num, row)), self.images[0][0], x.den * y.den)

    def apply(self, u: TensorElement) -> LatticeElement:
        """The induced map T(u) = sum_ij u_ij Phi(e_i, f_j)."""
        if u.shape != self.source_shape:
            raise DimensionMismatch(
                f"induced map over {self.source_shape} applied to {u.shape}"
            )
        images = (g for row in self.images for g in row)
        return combination(zip(u.num, images), self.images[0][0], u.den)


def hom_property_report(phi: LatticeBimorphism, *, samples: int, seed: int) -> dict:
    """Exact checks that the induced map is a lattice homomorphism.

    Factorization and additivity are linear-algebra identities that hold for
    any image grid; join preservation, absolute-value preservation, and
    solidity are the lattice half, and they are exactly what the
    disjointness premise buys. An unchecked grid with overlapping images
    shows up here as nonzero violation counts, not as an exception.
    """
    n, m = phi.source_shape
    rng = SplitStream(seed).split("hom-properties")
    checks = {
        name: _report(samples)
        for name in ("factorization", "additivity", "join", "absolute_value", "solidity")
    }

    for s in range(samples):
        srng = rng.split(s)
        x = random_element(srng, n)
        y = random_element(srng, m)
        u = random_tensor(srng.split("u"), n, m)
        v = random_tensor(srng.split("v"), n, m)
        if phi.apply(rank_one(x, y)) != phi(x, y):
            _violation(checks["factorization"], s, {"x": x.to_json(), "y": y.to_json()})
        if phi.apply(u + v) != phi.apply(u) + phi.apply(v):
            _violation(checks["additivity"], s, {"u": u.to_json(), "v": v.to_json()})
        if phi.apply(u.join(v)) != phi.apply(u).join(phi.apply(v)):
            _violation(checks["join"], s, {"u": u.to_json(), "v": v.to_json()})
        if phi.apply(abs(u)) != abs(phi.apply(u)):
            _violation(checks["absolute_value"], s, {"u": u.to_json()})
        # a lattice hom is solid: |w| <= |u| forces |T(w)| <= |T(u)|
        dominated = sample_box_point(srng.split("dominated"), u)
        if not abs(phi.apply(dominated)).le(abs(phi.apply(u))):
            _violation(checks["solidity"], s, {"a": u.to_json(), "u": dominated.to_json()})
    return _close_checks(checks, "hom-property",
                         "the induced map factors the bimorphism and preserves joins, "
                         "absolute values, and solidity", verified_premises=phi.verified)


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
    n, m = phi.source_shape
    rng = SplitStream(seed).split("hom-agreement")
    differ = [u for u in (random_tensor(rng.split(s), n, m) for s in range(samples))
              if phi.apply(u) != psi.apply(u)]
    return {
        "id": "hom-uniqueness",
        "statement": "induced maps agree everywhere iff they agree on basis pairs",
        "identical_images": same_images,
        "disagreements": len(differ),
        "witness": differ[0].to_json() if differ else None,
        "samples": samples,
        "ok": (not differ) == same_images,
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


def continuity_constant(phi: LatticeBimorphism, p: RieszSeminorm, q: RieszSeminorm,
                        r: RieszSeminorm):
    """The exact operator constant C with r(T(u)) <= C * (p (x) q)(u).

    The maximum of r(T(d (x) e)) / (p(d) q(e)) over the rays d (x) e of
    `projective.TensorSeminorm(p, q)`, attained at that ray: for
    l1 (x) l1 the matrix units, for order-unit both sides w (x) v. A ray's
    cost is at least p(d), with equality at the vertices, so every kind fits.

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
    rays = [(cost, TensorElement(LatticeElement.sparse(n * m, ray).coords, (n, m)))
            for cost, ray in projective.TensorSeminorm(p, q).rays]
    return max(((_ratio(r(phi.apply(t)), cost), t) for cost, t in rays),
               key=lambda cd: cd[0], default=(Fraction(0), None))


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
    if not phi.verified:
        raise BimorphismDefect(
            "only verified bimorphisms induce lattice homomorphisms; "
            "use LatticeBimorphism.make"
        )
    C, direction = continuity_constant(phi, p, q, r)
    report = {
        "id": "continuity-constant",
        "statement": "the induced map is seminorm-continuous with an exact operator constant",
        "constant": "INFINITE" if C is INFINITE else fraction_str(C),
        **_report(samples),
    }

    if C is INFINITE:
        cert = projective.seminorm_certify(p, q, direction, budget)
        image_norm = r(phi.apply(direction))
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
        attained = r(phi.apply(direction))
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
        u = random_tensor(rng.split(s), n, m)
        cert = projective.seminorm_certify(p, q, u, budget)
        val = r(phi.apply(u))
        if val is INFINITE or val > C * cert.upper:
            _violation(report, s, {
                "u": u.to_json(),
                "image_seminorm": "INFINITE" if val is INFINITE else fraction_str(val),
                "bound": fraction_str(C * cert.upper),
            })

    U, V = p.unit_ball(), q.unit_ball()
    hull_rep = _report(samples)
    for s in range(samples):
        srng = rng.split("hull", s)
        point, witness = sample_nbhd_point(U, V, srng)
        gens = []
        termwise_ok = True
        for lam, z, xk, yk in witness:
            g = phi(abs(xk), abs(yk))
            gens.append(g)
            if not abs(phi.apply(z)).le(g):
                termwise_ok = False
        image_set = hulls.GeneratedSet(tuple(gens), ("Sol", "Conv_b"))
        inside = hulls.member(image_set, phi.apply(point))
        if not (termwise_ok and inside):
            _violation(hull_rep, s, {
                "point": point.to_json(), "termwise": termwise_ok, "member": inside,
            })
    report["hull_continuity"] = hull_rep
    report["ok"] = (
        report["violations"] == 0
        and hull_rep["violations"] == 0
        and (tightness is None or tightness["attains"])
    )
    return report
