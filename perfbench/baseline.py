"""Record the baseline: every workload, plain and traced, at seed 42 and at the held-out seed 7.

    python3 perfbench/baseline.py

Run it from the repository root on an otherwise idle machine. It runs
run.py once per (workload, seed, trace) and writes perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SEEDS = {"default": 42, "held_out": 7}
SECONDS = 20


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = []
    environment = None
    for workload in (w["name"] for w in spec["workloads"]):
        for label, seed in SEEDS.items():
            for trace in (0, 1):
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
                lines = subprocess.run(argv, capture_output=True, text=True,
                                       check=True).stdout.splitlines()
                environment = json.loads(lines[-2])["environment"]
                result = json.loads(lines[-1])
                runs.append({"workload": workload, "seed": seed, "seed_role": label,
                             "trace": trace, "result": result})
                print(workload, seed, trace, "correct" if result["correct"] else "WRONG",
                      flush=True)
    for key in ("workload", "seed", "trace"):
        environment.pop(key)
    payload = {"environment": environment, "seconds": SECONDS, "runs": runs}
    with open(os.path.join("perfbench", "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
