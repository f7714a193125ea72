"""One-shot property suite: every law, axiom, and certificate check in one report.

`run_suite` drives the hull-law suite, the constructive decomposition
operations, the seminorm and certificate axioms, the neighborhood-base
axioms, gauge/tri-state consistency, the rank-one cross property, the
separation check, and the universal-property checks, and folds them into a
single machine-readable report with one pass/fail line per statement.

Determinism contract: the report is a function of (seed, sizes) only.
Every sample draws from its own stream, derived from the seed, the statement
and the sample index, and each hull law runs whole as one task, so the report
is byte-identical no matter how many workers ran the laws. Reports contain
no timestamps and serialize with sorted keys.
"""

from __future__ import annotations

import functools
import multiprocessing
from fractions import Fraction

from . import hulls, projective, universal
from .elements import (
    LatticeElement,
    SeminormFamily,
    riesz_decompose,
    disjointify,
    polyhedral_gauge,
    weighted_l1,
    weighted_order_unit,
)
from .rng import SplitStream
from .tensor import (
    TensorElement,
    TensorNbhd,
    _report,
    _violation,
    base_axiom_check,
    dominating_rank_one,
    matrix_unit,
    nbhd_solidity_check,
    rank_one,
    rank_one_sup_recover,
    sup_of_rank_ones,
)


# ---------------------------------------------------------------------------
# Constructive decompositions (exact postcondition sampling)
# ---------------------------------------------------------------------------


def riesz_decomposition_check(*, samples: int, seed: int, dim_hi: int = 6) -> dict:
    """z = z1 + z2 with |z1| <= |x| and |z2| <= |y| whenever |z| <= |x| + |y|."""
    rng = SplitStream(seed).split("riesz-decomposition")
    rep = _report(samples)
    for s in range(samples):
        srng = rng.split(s)
        dim = srng.randint(1, dim_hi)
        x = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(dim)))
        y = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(dim)))
        bound = abs(x) + abs(y)
        z = LatticeElement(tuple(
            srng.fraction(-b, b, 4) if b != 0 else Fraction(0) for b in bound.coords
        ))
        z1, z2 = riesz_decompose(z, x, y)
        formula = z.join(-abs(x)).meet(abs(x))
        good = (
            z1 + z2 == z
            and abs(z1).le(abs(x))
            and abs(z2).le(abs(y))
            and z1 == formula
        )
        if not good:
            _violation(rep, s, {"z": z.to_json(), "x": x.to_json(), "y": y.to_json()})
    rep["id"] = "riesz-decomposition"
    rep["statement"] = (
        "any z dominated by |x| + |y| splits exactly into parts dominated by |x| and |y|"
    )
    rep["ok"] = rep["violations"] == 0
    return rep


def disjointify_check(*, samples: int, seed: int, dim_hi: int = 6) -> dict:
    """The carved pair is disjoint, dominated, and sums to |x| v |y| - |x| ^ |y|."""
    rng = SplitStream(seed).split("disjointify")
    rep = _report(samples)
    for s in range(samples):
        srng = rng.split(s)
        dim = srng.randint(1, dim_hi)
        x = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(dim)))
        y = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(dim)))
        xp, yp = disjointify(x, y)
        ax, ay = abs(x), abs(y)
        common = ax.meet(ay)
        zero = LatticeElement.zero(dim)
        good = (
            xp == ax - common
            and yp == ay - common
            and xp.meet(yp).is_zero()
            and xp.join(yp) == xp + yp
            and xp.join(yp) == ax.join(ay) - common
            and xp.le(ax) and yp.le(ay)
            and zero.le(xp) and zero.le(yp)
        )
        if not good:
            _violation(rep, s, {"x": x.to_json(), "y": y.to_json()})
    rep["id"] = "disjointification"
    rep["statement"] = (
        "carving the common part of |x| and |y| leaves a disjoint pair whose join is "
        "|x| v |y| minus |x| ^ |y|"
    )
    rep["ok"] = rep["violations"] == 0
    return rep


def seminorm_axiom_check(*, samples: int, seed: int) -> dict:
    """Positivity, absolute homogeneity, subadditivity, and solidity per kind."""
    rng = SplitStream(seed).split("seminorm-axioms")
    rep = _report(samples)
    for s in range(samples):
        srng = rng.split(s)
        dim = srng.randint(1, 4)
        kind = srng.choice(("l1", "ou", "poly"))
        if kind == "l1":
            p = weighted_l1([Fraction(srng.randint(0, 3)) for _ in range(dim)])
        elif kind == "ou":
            p = weighted_order_unit([Fraction(srng.randint(1, 3)) for _ in range(dim)])
        else:
            # include an order unit so the gauge is finite everywhere
            gens = [LatticeElement(tuple(Fraction(1) for _ in range(dim)))]
            gens.append(LatticeElement(tuple(srng.fraction(0, 2, 2) for _ in range(dim))))
            p = polyhedral_gauge(gens)
        x = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(dim)))
        y = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(dim)))
        lam = srng.fraction(-2, 2, 8)
        v = LatticeElement(tuple(
            srng.fraction(-c, c, 4) if c != 0 else Fraction(0) for c in abs(x).coords
        ))
        px = p(x)  # a gauge LP for the polyhedral kind, so evaluated once
        problems = []
        if px < 0:
            problems.append("negative value")
        if p(x.scale(lam)) != abs(lam) * px:
            problems.append("homogeneity")
        if p(x + y) > px + p(y):
            problems.append("subadditivity")
        if p(abs(x)) != px:
            problems.append("absolute value")
        if p(v) > px:
            problems.append("solidity")
        if problems:
            _violation(rep, s, {"kind": p.kind, "problems": problems})
    rep["id"] = "seminorm-axioms"
    rep["statement"] = (
        "every seminorm kind is positive, absolutely homogeneous, subadditive, and solid"
    )
    rep["ok"] = rep["violations"] == 0
    return rep


def tensor_model_check(*, samples: int, seed: int) -> dict:
    """The rank-one generators are dense in the entrywise model, exactly.

    Matrix units are rank-ones, nonnegative tensors are suprema of the
    rank-ones below them, every nonnegative tensor sits under a rank-one
    bound, and the absolute value passes through rank-ones factorwise. The
    zero-distance approximation degenerate case (an element approximates
    itself below any nonnegative rank-one scale) is asserted as the trivial
    base case.
    """
    rng = SplitStream(seed).split("tensor-model")
    rep = _report(samples)
    for s in range(samples):
        srng = rng.split(s)
        n, m = srng.randint(1, 3), srng.randint(1, 3)
        c = abs(TensorElement(tuple(
            tuple(srng.fraction(-3, 3, 4) for _ in range(m)) for _ in range(n)
        )))
        problems = []
        if sup_of_rank_ones(rank_one_sup_recover(c), c.shape) != c:
            problems.append("sup recovery")
        a, b = dominating_rank_one(c)
        if not c.le(rank_one(a, b)):
            problems.append("dominating bound")
        i, j = srng.randint(0, n - 1), srng.randint(0, m - 1)
        val = srng.fraction(0, 3, 4)
        if matrix_unit(n, m, i, j, val) != rank_one(
            LatticeElement.unit(n, i, val), LatticeElement.unit(m, j)
        ):
            problems.append("matrix unit as rank-one")
        x = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(n)))
        y = LatticeElement(tuple(srng.fraction(-3, 3, 4) for _ in range(m)))
        if abs(rank_one(x, y)) != rank_one(abs(x), abs(y)):
            problems.append("abs through rank-one")
        diff = rank_one(x, y) - rank_one(x, y)
        if not abs(diff).le(c.scale(Fraction(1, 8)) + rank_one(abs(x), abs(y))):
            problems.append("self-approximation base case")
        if problems:
            _violation(rep, s, {"problems": problems})
    rep["id"] = "tensor-model-density"
    rep["statement"] = (
        "rank-one elements generate the tensor model: matrix units, suprema, and "
        "dominating bounds are all exact"
    )
    rep["ok"] = rep["violations"] == 0
    return rep


# ---------------------------------------------------------------------------
# Hull laws, one task per law
# ---------------------------------------------------------------------------


def hull_law_suite_sharded(*, triples: int, seed: int, dim_lo: int = 1, dim_hi: int = 5,
                           workers: int = 1) -> list[dict]:
    """All eleven hull laws, each run whole; the worker count never changes the reports."""
    run_law = functools.partial(
        hulls.hull_law_suite, triples=triples, seed=seed, dim_lo=dim_lo, dim_hi=dim_hi,
    )
    laws = sorted(hulls.LAW_EXPECTATIONS)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(run_law, laws, chunksize=1)
    return [run_law(law) for law in laws]


# ---------------------------------------------------------------------------
# Gauge / tri-state consistency instances
# ---------------------------------------------------------------------------


def _kind_pairs():
    p1 = weighted_l1([1, 2])
    q1 = weighted_l1([1, 1])
    po = weighted_order_unit([1, 2])
    qo = weighted_order_unit([1, 1])
    return ((p1, q1), (po, qo), (p1, qo), (po, q1))


def gauge_consistency_suite(*, samples: int, seed: int) -> dict:
    """Tri-state membership versus certificates across radius bands.

    Random instances cycle through the four weighted kind pairs; two pinned
    instances run under a starved budget so the undecided band is genuinely
    exercised (the full-budget runs close their gaps).
    """
    rng = SplitStream(seed).split("gauge-consistency")
    pairs = _kind_pairs()
    total = {"samples": 0, "probes": 0, "contradictions": 0, "witnesses": []}
    for s in range(samples):
        srng = rng.split(s)
        p, q = pairs[s % len(pairs)]
        u = TensorElement(tuple(
            tuple(srng.fraction(-3, 3, 4) for _ in range(q.dim)) for _ in range(p.dim)
        ))
        W = TensorNbhd.from_seminorms(p, q)
        rep = projective.gauge_equivalence_check(W, p, q, u, seed=seed)
        total["samples"] += 1
        total["probes"] += len(rep["probes"])
        if rep["contradictions"]:
            total["contradictions"] += len(rep["contradictions"])
            if len(total["witnesses"]) < 3:
                total["witnesses"].append({"index": s, "contradictions": rep["contradictions"]})
    starved = projective.Budget(k_max=1, restarts=0)
    gap_instances = [
        (weighted_l1([1, 1]), weighted_order_unit([1, 2]),
         TensorElement.make([[2, 0], [0, 1]])),
        (weighted_order_unit([1, 2]), weighted_l1([1, 1]),
         TensorElement.make([[0, 2], [1, 0]])),
    ]
    for k, (p, q, u) in enumerate(gap_instances):
        W = TensorNbhd.from_seminorms(p, q)
        rep = projective.gauge_equivalence_check(W, p, q, u, seed=seed, budget=starved)
        total["samples"] += 1
        total["probes"] += len(rep["probes"])
        if rep["contradictions"]:
            total["contradictions"] += len(rep["contradictions"])
            if len(total["witnesses"]) < 3:
                total["witnesses"].append({"fixture": k, "contradictions": rep["contradictions"]})
    total["id"] = "gauge-seminorm-consistency"
    total["statement"] = (
        "tri-state neighborhood membership never contradicts the certified seminorm "
        "interval, at radii below, inside, and above it"
    )
    total["ok"] = total["contradictions"] == 0
    return total


# ---------------------------------------------------------------------------
# The full suite
# ---------------------------------------------------------------------------


def run_suite(*, seed: int = 42, triples: int = 60, samples: int = 80,
              workers: int = 1, k_max=None, restarts: int = 2) -> dict:
    """Every property line in one deterministic report.

    The report depends only on (seed, triples, samples, k_max, restarts);
    worker count changes scheduling, never bytes.
    """
    budget = projective.Budget(k_max=k_max, restarts=restarts, seed=seed)
    statements: list[dict] = []

    def line(section, rep, *, expect_ok=True):
        entry = {"section": section}
        entry.update(rep)
        if not expect_ok:
            entry["expected_failure_demonstrated"] = rep["ok"]
        statements.append(entry)

    # hull laws and solid closure
    for rep in hull_law_suite_sharded(triples=triples, seed=seed, workers=workers):
        line("hull-laws", rep)
    line("hull-laws", hulls.solid_closure_check(samples=samples, seed=seed))

    # constructive operations and element-level axioms
    line("lattice-core", riesz_decomposition_check(samples=samples, seed=seed))
    line("lattice-core", disjointify_check(samples=samples, seed=seed))
    line("lattice-core", seminorm_axiom_check(samples=samples, seed=seed))

    # tensor model density
    line("tensor-model", tensor_model_check(samples=samples, seed=seed))

    # neighborhood base axioms
    W1 = TensorNbhd.from_seminorms(weighted_l1([1, 2]), weighted_order_unit([1, 1]))
    W2 = TensorNbhd.from_seminorms(weighted_order_unit([2, 1]), weighted_l1([1, 1]))
    base = base_axiom_check(W1, W2, seed=seed, samples=samples)
    for axiom, sub in sorted(base["checks"].items()):
        statements.append({
            "section": "neighborhood-base",
            "id": f"nbhd-base-{axiom}",
            "statement": {
                "additivity": "half-scaled neighborhoods sum into the original",
                "balance": "neighborhoods absorb scalars of modulus at most one",
                "translation": "interior points translate a shrunken neighborhood inside",
                "intersection": "the intersected-factor neighborhood sits inside both factors",
            }[axiom],
            "samples": sub["samples"],
            "violations": sub["violations"],
            "witnesses": sub["witnesses"],
            "ok": sub["violations"] == 0,
        })
    line("neighborhood-base", nbhd_solidity_check(W1, seed=seed, samples=samples))

    # gauge consistency and the certified seminorm
    line("projective-seminorm", gauge_consistency_suite(samples=samples, seed=seed))
    cross_total = {"id": "cross-seminorm-identity",
                   "statement": "rank-one elements certify exactly the product of factor values",
                   "pairs": [], "ok": True}
    for p, q in _kind_pairs():
        rep = projective.cross_property_check(p, q, samples=samples, seed=seed, budget=budget)
        cross_total["pairs"].append({
            "kinds": [p.kind, q.kind],
            "samples": rep["samples"],
            "violations": rep["violations"],
            "witnesses": rep["witnesses"],
        })
        cross_total["ok"] = cross_total["ok"] and rep["ok"]
    line("projective-seminorm", cross_total)
    line("projective-seminorm", projective.certificate_axiom_check(
        weighted_l1([1, 2]), weighted_order_unit([1, 1]), samples=max(10, samples // 4),
        seed=seed, budget=budget,
    ))

    # separation
    P = SeminormFamily((weighted_l1([1, 1]), weighted_order_unit([1, 1])))
    Q = SeminormFamily((weighted_l1([1, 1, 1]),))
    sep = projective.hausdorff_check(P, Q, samples=samples, seed=seed)
    sep["id"] = "separation-positivity"
    line("separation", sep)
    Pbad = SeminormFamily((weighted_l1([1, 0]),))
    Qok = SeminormFamily((weighted_l1([1, 1]),))
    bad = projective.hausdorff_check(Pbad, Qok, samples=max(5, samples // 8), seed=seed)
    bad["id"] = "separation-negative-fixture"
    bad["statement"] = (
        "a family blind to a coordinate direction fails to separate tensors "
        "concentrated on it, with a reported witness"
    )
    line("separation", bad, expect_ok=False)

    # universal property
    phi = universal.LatticeBimorphism.canonical(2, 2)
    hom = universal.hom_property_report(phi, samples=samples, seed=seed)
    statements.append({
        "section": "universal-property",
        "id": "factorization-identity",
        "statement": "the induced map agrees with the bimorphism on every rank-one pair",
        "samples": hom["checks"]["factorization"]["samples"],
        "violations": hom["checks"]["factorization"]["violations"],
        "witnesses": hom["checks"]["factorization"]["witnesses"],
        "ok": hom["checks"]["factorization"]["violations"] == 0,
    })
    line("universal-property", hom)
    broken = universal.LatticeBimorphism.unchecked([
        [LatticeElement.make([1]), LatticeElement.make([1])],
    ])
    neg = universal.hom_property_report(broken, samples=max(10, samples // 4), seed=seed)
    neg["id"] = "hom-negative-fixture"
    neg["statement"] = (
        "overlapping images break join and absolute-value preservation, and the "
        "report says so"
    )
    neg["ok"] = (
        not neg["checks"]["join"]["violations"] == 0
        and not neg["checks"]["absolute_value"]["violations"] == 0
        and neg["checks"]["factorization"]["violations"] == 0
        and neg["checks"]["additivity"]["violations"] == 0
    )
    line("universal-property", neg, expect_ok=False)
    agree = universal.hom_agreement_check(phi, phi, samples=max(10, samples // 4), seed=seed)
    line("universal-property", agree)

    r1 = weighted_l1([1, 1, 1, 1])
    cont_lines = {"id": "continuity-constant", "pairs": [], "ok": True,
                  "statement": "induced maps carry an exact, attained operator constant"}
    for p, q in _kind_pairs():
        rep = universal.continuity_certificate(
            phi, p, q, r1, samples=max(10, samples // 4), seed=seed, budget=budget,
        )
        cont_lines["pairs"].append({
            "kinds": [p.kind, q.kind],
            "constant": rep["constant"],
            "violations": rep["violations"],
            "hull_violations": rep["hull_continuity"]["violations"],
        })
        cont_lines["ok"] = cont_lines["ok"] and rep["ok"]
    # homogeneity of the constant: tripled images triple C
    tripled = universal.LatticeBimorphism.make([
        [g.scale(3) for g in row] for row in phi.images
    ])
    p0, q0 = _kind_pairs()[0]
    c_base, _ = universal.continuity_constant(phi, p0, q0, r1)
    c_tripled, _ = universal.continuity_constant(tripled, p0, q0, r1)
    cont_lines["scaling"] = {
        "base": str(c_base),
        "tripled": str(c_tripled),
        "ok": c_tripled == 3 * c_base,
    }
    cont_lines["ok"] = cont_lines["ok"] and cont_lines["scaling"]["ok"]
    line("universal-property", cont_lines)

    return {
        "config": {
            "seed": seed,
            "triples": triples,
            "samples": samples,
            "k_max": k_max,
            "restarts": restarts,
        },
        "statements": statements,
        "all_ok": all(s["ok"] for s in statements),
    }
