"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run it from the repository root. For each workload it asserts that every
metric BENCHMARK.json lists is printed with its unit, plain and traced; that
the traced pass returns byte-identical outputs to the plain one; that the
simplex counts repeat exactly across two traced runs; and that every answer
checks out. Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import CliCertify, HullLP, Suite

SEED = 7
REPEATED_COUNTS = ("simplex.lp_count", "simplex.pivots", "simplex.cells")


def tiny(workload, round_requests: int):
    """The workload with short rounds and a replay of one round: a second or two each."""
    workload.round_requests = round_requests
    workload.min_rounds = 1
    workload.rate = 2 * round_requests
    return workload


TINY = {
    "suite": lambda: tiny(Suite(SEED, triples=2, samples=4), 1),
    "cli-certify": lambda: tiny(CliCertify(SEED), 24),
    "hull-lp": lambda: tiny(HullLP(SEED), 18),
}


def expect_metrics(result: dict, listed: list[dict], label: str):
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in listed}
    assert printed == wanted, f"{label}: printed {printed}, BENCHMARK.json lists {wanted}"


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TINY)
    sys.path.insert(0, run.SRC)
    sys.dont_write_bytecode = True
    for name, make in TINY.items():
        plain = run.run(make(), 1, False)
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        expect_metrics(plain, spec["end_to_end"], f"{name} plain")
        traced = [run.run(make(), 1, True) for _ in range(2)]
        for result in traced:
            assert result["correct"] and result["failed"] == 0, (name, result)
            expect_metrics(result, spec["per_layer"], f"{name} traced")
            assert result["metrics"]["trace_mismatch_count"]["value"] == 0, name
        first, second = ({k: r["metrics"][k]["value"] for k in REPEATED_COUNTS} for r in traced)
        assert first == second, f"{name}: simplex counts differ between runs: {first} {second}"
        print(f"ok {name}: {plain['attempted']} plain requests, simplex counts {first}")
    return 0


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run from the repository root")
    sys.exit(main())
