"""Spans around the library's public functions, and the per-layer metrics.

`Tracer.install` wraps each function in `TARGETS` and rebinds the wrapper
under every name that refers to the function in a loaded `tensorlattice`
module (`tensor` imports `member` from `hulls`, `cli` imports `nbhd_member`
from `tensor`, and so on); `uninstall` puts the originals back. Spans stay in
memory as `[name, start, end, parent, info, hidden]` and are written out once
the run is over. A span's self time is its duration minus the time its child
spans cover, minus `hidden`: the tracer's own bookkeeping for those children.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction

# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _bits(values) -> int:
    most = 0
    for v in values:
        if isinstance(v, Fraction):
            most = max(most, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, int):
            most = max(most, v.bit_length())
    return most


def _describe_lp(args, kwargs, result, exc):
    rows, rhs, costs = args
    m, n = len(rows), len(costs)
    bits = max(_bits(rhs), _bits(costs), max((_bits(row) for row in rows), default=0))
    if result is not None:
        value, x = result
        bits = max(bits, _bits(x), _bits((value,)))
    return {"cells": m * (n + m + 1), "bits": bits, "infeasible": exc is not None}


def _describe_certify(args, kwargs, result, exc):
    return {"gap_zero": result is not None and result.gap == 0}


def _describe_nbhd(args, kwargs, result, exc):
    return {"undecided": result is not None and result.value == "undecided"}


def _keep_result(args, kwargs, result, exc):
    # Suite checkers: the report object, whose final "id" names the statement.
    return {"result": result}


# (module, attribute path, describe). Span names are "module.attribute".
TARGETS = (
    ("simplex", "solve_standard", _describe_lp),
    ("simplex", "LinearProgram.minimize", None),
    ("simplex", "LinearProgram.feasible", None),
    ("hulls", "member", None),
    ("hulls", "gauge", None),
    ("hulls", "hull_law_suite", None),
    ("hulls", "solid_closure_check", _keep_result),
    ("projective", "seminorm_certify", _describe_certify),
    ("projective", "dual_lower_bound", None),
    ("projective", "seminorm_closed_form", None),
    ("projective", "cross_property_check", _keep_result),
    ("projective", "certificate_axiom_check", _keep_result),
    ("projective", "hausdorff_check", _keep_result),
    ("tensor", "nbhd_member", _describe_nbhd),
    ("tensor", "verify_nbhd_witness", None),
    ("tensor", "base_axiom_check", _keep_result),
    ("tensor", "nbhd_solidity_check", _keep_result),
    ("universal", "continuity_certificate", _keep_result),
    ("universal", "continuity_constant", _keep_result),
    ("universal", "hom_property_report", _keep_result),
    ("universal", "hom_agreement_check", _keep_result),
    ("suite", "run_suite", None),
    ("suite", "hull_law_suite_sharded", _keep_result),
    ("suite", "riesz_decomposition_check", _keep_result),
    ("suite", "disjointify_check", _keep_result),
    ("suite", "seminorm_axiom_check", _keep_result),
    ("suite", "tensor_model_check", _keep_result),
    ("suite", "gauge_consistency_suite", _keep_result),
    ("cli", "main", None),
)

# Suite checkers whose result carries no statement id of its own.
STATEMENT_OF = {
    "suite.hull_law_suite_sharded": "hull-law",  # hull-law-1 .. hull-law-11
    "universal.continuity_constant": "continuity-constant",
}

# One timer per checker call of `run_suite`; a call that emits several
# statements (hull-law-*, nbhd-base-*) has one timer.
SUITE_STATEMENTS = (
    "hull-law", "solid-closure", "riesz-decomposition", "disjointification",
    "seminorm-axioms", "tensor-model-density", "nbhd-base", "nbhd-solidity",
    "gauge-seminorm-consistency", "cross-seminorm-identity", "certificate-axioms",
    "separation-positivity", "separation-negative-fixture", "hom-property",
    "hom-negative-fixture", "hom-uniqueness", "continuity-constant",
)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Tracer:
    """The spans and the pivot count of one traced pass."""

    def __init__(self):
        self.spans = []
        self.pivots = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, describe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if describe is not None:
                    span[4] = describe(args, kwargs, result, exc)
                    if parent >= 0:
                        spans[parent][5] += clock() - span[2]

        return traced

    def _count_pivots(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            self.pivots += 1
            return fn(*args)

        return counted

    def install(self, lib):
        modules = [lib.package] + [getattr(lib, name) for name in lib.MODULES]
        for module_name, path, describe in TARGETS:
            owner = getattr(lib, module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original, describe)
            if classes:
                self._rebind(owner, attr, wrapper)
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, wrapper)
        self._rebind(lib.simplex, "_pivot", self._count_pivots(lib.simplex._pivot))

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -----------------------------------------------------------------------
    # Reading
    # -----------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] - s[5] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict:
        own = self.self_times()
        by_name = {}
        for s, self_s in zip(self.spans, own):
            row = by_name.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += self_s
        return by_name

    def write(self, path: str):
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[s[0], s[1] - origin, s[2] - origin, s[3]] for s in self.spans],
            "pivots": self.pivots,
            "by_name": self.summary(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    own = tracer.self_times()

    def ancestors(index):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def outer_s(*names):
        """Time inside the named functions, counting nested calls once."""
        return sum((spans[i][2] - spans[i][1] for i in named(*names)
                    if not any(a in names for a in ancestors(i))), 0.0)

    def self_s(*names):
        return sum((own[i] for i in named(*names)), 0.0)

    lps = [spans[i][4] for i in named("simplex.solve_standard")]
    lp_in = {}
    for i in named("simplex.solve_standard"):
        for a in set(ancestors(i)):
            lp_in[a] = lp_in.get(a, 0) + 1
    hull_calls = len(named("hulls.member", "hulls.gauge"))
    certify = [spans[i][4] for i in named("projective.seminorm_certify")]
    nbhd = [spans[i][4] for i in named("tensor.nbhd_member")]

    metrics = {
        "simplex.lp_count": (len(lps), "count"),
        "simplex.pivots": (tracer.pivots, "count"),
        "simplex.cells": (sum(lp["cells"] for lp in lps), "count"),
        "simplex.max_bits": (max((lp["bits"] for lp in lps), default=0), "bits"),
        "simplex.solve_s": (outer_s("simplex.solve_standard"), "s"),
        "simplex.build_s": (self_s("simplex.LinearProgram.minimize",
                                   "simplex.LinearProgram.feasible"), "s"),
        "simplex.infeasible_ratio": (_ratio(sum(lp["infeasible"] for lp in lps), len(lps)), "ratio"),
        "hulls.member_calls": (len(named("hulls.member")), "count"),
        "hulls.member_s": (outer_s("hulls.member"), "s"),
        "hulls.gauge_calls": (len(named("hulls.gauge")), "count"),
        "hulls.gauge_s": (outer_s("hulls.gauge"), "s"),
        "hulls.lp_per_call": (_ratio(lp_in.get("hulls.member", 0) + lp_in.get("hulls.gauge", 0),
                                     hull_calls), "ratio"),
        "hulls.law_s": (outer_s("hulls.hull_law_suite"), "s"),
        "projective.certify_calls": (len(certify), "count"),
        "projective.certify_s": (outer_s("projective.seminorm_certify"), "s"),
        "projective.dual_s": (outer_s("projective.dual_lower_bound"), "s"),
        "projective.closed_form_s": (outer_s("projective.seminorm_closed_form"), "s"),
        "projective.gap_zero_ratio": (_ratio(sum(c["gap_zero"] for c in certify), len(certify)),
                                      "ratio"),
        "projective.certify_lp_count": (lp_in.get("projective.seminorm_certify", 0), "count"),
        "tensor.nbhd_member_calls": (len(nbhd), "count"),
        "tensor.nbhd_member_s": (outer_s("tensor.nbhd_member"), "s"),
        "tensor.undecided_ratio": (_ratio(sum(c["undecided"] for c in nbhd), len(nbhd)), "ratio"),
        "tensor.witness_verify_calls": (len(named("tensor.verify_nbhd_witness")), "count"),
        "tensor.witness_verify_s": (outer_s("tensor.verify_nbhd_witness"), "s"),
        "tensor.base_axiom_s": (outer_s("tensor.base_axiom_check"), "s"),
        "universal.continuity_s": (outer_s("universal.continuity_certificate",
                                           "universal.continuity_constant"), "s"),
        "universal.hom_report_s": (outer_s("universal.hom_property_report"), "s"),
        "cli.overhead_s": (self_s("cli.main"), "s"),
    }
    metrics.update(_suite_metrics(spans))
    return metrics


def _suite_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-statement time: every direct child span of `run_suite`."""
    per_statement = dict.fromkeys(SUITE_STATEMENTS + ("other",), 0.0)
    suite_s = covered = 0.0
    for s in spans:
        if s[0] == "suite.run_suite":
            suite_s += s[2] - s[1]
        elif s[3] >= 0 and spans[s[3]][0] == "suite.run_suite":
            result = (s[4] or {}).get("result")
            statement = result.get("id") if isinstance(result, dict) else STATEMENT_OF.get(s[0])
            key = statement if statement in per_statement else "other"
            per_statement[key] += s[2] - s[1]
            covered += s[2] - s[1]
    metrics = {f"suite.{k}_s": (v, "s") for k, v in per_statement.items()}
    metrics["suite.statement_share"] = (_ratio(covered, suite_s), "ratio")
    return metrics
