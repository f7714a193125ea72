"""One-shot property suite: every law, axiom, and certificate check in one report.

`run_suite` drives the hull-law suite, the constructive decomposition
operations, the seminorm and certificate axioms, the neighborhood-base
axioms, gauge/tri-state consistency, the rank-one cross property, the
separation check, and the universal-property checks, and folds them into a
single machine-readable report with one pass/fail line per statement.

Every sampled check records through the report helpers of `hulls`
(`_report`, `_violation`, `_count`, `_close`, `_close_checks`, and `_observe`
for the hull laws and solid closure) and draws through the samplers
`random_element`, `sample_box_point` and `tensor.random_tensor`.

Determinism contract: the report is a function of (seed, sizes) only.
Every sample draws from its own stream, derived from the seed, the statement
and the sample index, and each hull law runs whole as one task, so the report
is byte-identical no matter how many workers ran the laws. Reports contain
no timestamps and serialize with sorted keys.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import hulls, projective, universal
from .hulls import _close, _count, _report, _violation, random_element, sample_box_point
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
    base_axiom_check,
    dominating_rank_one,
    matrix_unit,
    nbhd_solidity_check,
    random_tensor,
    rank_one,
    rank_one_sup_recover,
    sup_of_rank_ones,
)


# ---------------------------------------------------------------------------
# Constructive decompositions (exact postcondition sampling)
# ---------------------------------------------------------------------------


def riesz_decomposition_check(*, samples: int, seed: int) -> dict:
    """z = z1 + z2 with |z1| <= |x| and |z2| <= |y| whenever |z| <= |x| + |y|, in dims 1..6."""
    rng = SplitStream(seed).split("riesz-decomposition")
    rep = _report(samples)
    for s in range(samples):
        srng = rng.split(s)
        dim = srng.randint(1, 6)
        x = random_element(srng, dim)
        y = random_element(srng, dim)
        z = sample_box_point(srng, abs(x) + abs(y))
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
    return _close(rep, "riesz-decomposition",
                  "any z dominated by |x| + |y| splits exactly into parts dominated by |x| and |y|")


def disjointify_check(*, samples: int, seed: int) -> dict:
    """The carved pair is disjoint, dominated, and sums to |x| v |y| - |x| ^ |y|, in dims 1..6."""
    rng = SplitStream(seed).split("disjointify")
    rep = _report(samples)
    for s in range(samples):
        srng = rng.split(s)
        dim = srng.randint(1, 6)
        x = random_element(srng, dim)
        y = random_element(srng, dim)
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
    return _close(rep, "disjointification",
                  "carving the common part of |x| and |y| leaves a disjoint pair whose join is "
                  "|x| v |y| minus |x| ^ |y|")


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
        x = random_element(srng, dim)
        y = random_element(srng, dim)
        lam = srng.fraction(-2, 2, 8)
        v = sample_box_point(srng, x)
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
    return _close(rep, "seminorm-axioms",
                  "every seminorm kind is positive, absolutely homogeneous, subadditive, and solid")


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
        c = abs(random_tensor(srng, n, m))
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
        x = random_element(srng, n)
        y = random_element(srng, m)
        if abs(rank_one(x, y)) != rank_one(abs(x), abs(y)):
            problems.append("abs through rank-one")
        diff = rank_one(x, y) - rank_one(x, y)
        if not abs(diff).le(c.scale(Fraction(1, 8)) + rank_one(abs(x), abs(y))):
            problems.append("self-approximation base case")
        if problems:
            _violation(rep, s, {"problems": problems})
    return _close(rep, "tensor-model-density",
                  "rank-one elements generate the tensor model: matrix units, suprema, and "
                  "dominating bounds are all exact")


# ---------------------------------------------------------------------------
# Hull laws, one task per law
# ---------------------------------------------------------------------------


def hull_law_suite_sharded(*, triples: int, seed: int, workers: int = 1) -> list[dict]:
    """All eleven hull laws, each run whole; the worker count never changes the reports."""
    run_law = functools.partial(hulls.hull_law_suite, triples=triples, seed=seed)
    laws = sorted(hulls.LAW_EXPECTATIONS)
    if workers > 1:
        import multiprocessing
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
    nbhds = [TensorNbhd.from_seminorms(p, q) for p, q in _kind_pairs()]
    # (witness tag, W, u, budget): the random instances, then the fixtures
    instances = []
    for s in range(samples):
        W = nbhds[s % len(nbhds)]
        instances.append(({"index": s}, W, random_tensor(rng.split(s), *W.shape), None))
    starved = projective.Budget(k_max=1, restarts=0)
    l1, order_unit = weighted_l1([1, 1]), weighted_order_unit([1, 2])
    instances += [
        ({"fixture": 0}, TensorNbhd.from_seminorms(l1, order_unit),
         TensorElement.make([[2, 0], [0, 1]]), starved),
        ({"fixture": 1}, TensorNbhd.from_seminorms(order_unit, l1),
         TensorElement.make([[0, 2], [1, 0]]), starved),
    ]
    total = {"samples": len(instances), "probes": 0, "contradictions": 0, "witnesses": []}
    for tag, W, u, budget in instances:
        rep = projective.gauge_equivalence_check(W, u, budget=budget)
        total["probes"] += len(rep["probes"])
        if rep["contradictions"]:
            _count(total, {**tag, "contradictions": rep["contradictions"]},
                   "contradictions", len(rep["contradictions"]))
    return _close(total, "gauge-seminorm-consistency",
                  "tri-state neighborhood membership never contradicts the certified seminorm "
                  "interval, at radii below, inside, and above it", "contradictions")


# ---------------------------------------------------------------------------
# The full suite
# ---------------------------------------------------------------------------


def run_suite(*, seed: int = 42, triples: int = 60, samples: int = 80,
              workers: int = 1, k_max=None, restarts: int = 2) -> dict:
    """Every property line in one deterministic report.

    The report depends only on (seed, triples, samples, k_max, restarts);
    worker count changes scheduling, never bytes. The budget (k_max,
    restarts) reaches only cross-seminorm-identity, certificate-axioms and
    continuity-constant: nbhd-solidity and the random instances of
    gauge-seminorm-consistency certify at the default budget.
    """
    budget = projective.Budget(k_max=k_max, restarts=restarts, seed=seed)
    statements: list[dict] = []

    def line(section, rep, *, expect_ok=True):
        entry = {"section": section}
        entry.update(rep)
        if not expect_ok:
            entry["expected_failure_demonstrated"] = rep["ok"]
        statements.append(entry)

    def check_line(section, check, statement_id, statement):
        """One sub-check of a report (samples, violations, witnesses) as its own line."""
        line(section, _close(dict(check), statement_id, statement))

    def pair_line(statement_id, statement, check, fields):
        """One statement over the kind pairs: `fields` of each pair's report, ok when all are."""
        reports = [(p, q, check(p, q)) for p, q in _kind_pairs()]
        return {
            "id": statement_id,
            "statement": statement,
            "pairs": [{"kinds": [p.kind, q.kind], **fields(rep)} for p, q, rep in reports],
            "ok": all(rep["ok"] for _, _, rep in reports),
        }

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
        check_line("neighborhood-base", sub, f"nbhd-base-{axiom}", {
            "additivity": "half-scaled neighborhoods sum into the original",
            "balance": "neighborhoods absorb scalars of modulus at most one",
            "translation": "interior points translate a shrunken neighborhood inside",
            "intersection": "the intersected-factor neighborhood sits inside both factors",
        }[axiom])
    line("neighborhood-base", nbhd_solidity_check(W1, seed=seed, samples=samples))

    # gauge consistency and the certified seminorm
    line("projective-seminorm", gauge_consistency_suite(samples=samples, seed=seed))
    line("projective-seminorm", pair_line(
        "cross-seminorm-identity",
        "rank-one elements certify exactly the product of factor values",
        lambda p, q: projective.cross_property_check(p, q, samples=samples, seed=seed,
                                                     budget=budget),
        lambda rep: {key: rep[key] for key in ("samples", "violations", "witnesses")},
    ))
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
    check_line("universal-property", hom["checks"]["factorization"], "factorization-identity",
               "the induced map agrees with the bimorphism on every rank-one pair")
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
    # When sampling found no break: the images of e_00 and e_01 overlap, so
    # that pair breaks joins and its difference breaks absolute values.
    e00, e01 = TensorElement.make([[1, 0]]), TensorElement.make([[0, 1]])
    T, joins, absolutes = broken.apply, neg["checks"]["join"], neg["checks"]["absolute_value"]
    if not joins["violations"] and T(e00.join(e01)) != T(e00).join(T(e01)):
        _violation(joins, "fixture", {"u": e00.to_json(), "v": e01.to_json()})
    if not absolutes["violations"] and T(abs(e00 - e01)) != abs(T(e00 - e01)):
        _violation(absolutes, "fixture", {"u": (e00 - e01).to_json()})
    violations = {name: check["violations"] for name, check in neg["checks"].items()}
    neg["ok"] = (
        violations["join"] > 0
        and violations["absolute_value"] > 0
        and violations["factorization"] == 0
        and violations["additivity"] == 0
    )
    line("universal-property", neg, expect_ok=False)
    agree = universal.hom_agreement_check(phi, phi, samples=max(10, samples // 4), seed=seed)
    line("universal-property", agree)

    r1 = weighted_l1([1, 1, 1, 1])
    cont_lines = pair_line(
        "continuity-constant",
        "induced maps carry an exact, attained operator constant",
        lambda p, q: universal.continuity_certificate(
            phi, p, q, r1, samples=max(10, samples // 4), seed=seed, budget=budget,
        ),
        lambda rep: {"constant": rep["constant"], "violations": rep["violations"],
                     "hull_violations": rep["hull_continuity"]["violations"]},
    )
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
