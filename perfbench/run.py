"""Run one tensorlattice benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 42 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ./src and
touches nothing outside the checkout. Workloads are in workloads.py. Every
load is one client in a closed loop: the next request starts when the
previous one has returned.

With --trace 0 the run sets up (import, input generation, warm-up; five
times, reporting the median), then sends requests until they have kept the
library busy for --seconds and at least the workload's minimum number have
been answered, and reports the end-to-end metrics. With --trace 1 it sends a
fixed number of requests (sized from --seconds) twice, plain and with
every public function of each layer wrapped (tracing.py), and reports the
per-layer metrics of the traced pass; the spans go to
perfbench/out/trace-<workload>-seed<seed>.json. Every answer is checked after
the timed phase; a wrong answer or an exception counts as failed and never
stops the run.

Standard output ends with two JSON lines: the environment, then
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status 0 when that result was printed, 2 when ./src holds no library.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
MODULES = ("elements", "jsonio", "rng", "simplex", "hulls", "tensor",
           "projective", "universal", "suite", "cli")
SETUP_REPEATS = 5
TRACE_BLOCKS = 6
# Request kinds whose own median latency the traced run reports, from its plain pass.
KIND_P50 = {"seminorm": "seminorm_p50_ms", "nbhd-member": "nbhd_member_p50_ms",
            "member": "member_p50_ms", "gauge": "gauge_p50_ms"}


class Failure:
    """An exception raised by the library while answering a request."""

    def __init__(self, text: str):
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Failure) and other.text == self.text


def import_library():
    """A fresh import of every tensorlattice module from ./src."""
    for name in [n for n in sys.modules if n.split(".")[0] == "tensorlattice"]:
        del sys.modules[name]
    package = importlib.import_module("tensorlattice")
    if os.path.dirname(package.__file__) != os.path.join(SRC, "tensorlattice"):
        raise ImportError(f"tensorlattice came from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"tensorlattice.{name}") for name in MODULES}
    return types.SimpleNamespace(package=package, MODULES=MODULES, **modules)


def set_up(workload, prefetch: int):
    """Import, generate the first `prefetch` requests and warm up, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library()
        stream = workload.requests()
        first = list(itertools.islice(stream, prefetch))
        workload.setup(lib)
        times.append(time.perf_counter() - start)
    return lib, itertools.chain(first, stream), statistics.median(times)


class Pass:
    """Requests sent in one closed loop, with their outputs and latencies."""

    def __init__(self):
        self.requests = []
        self.outputs = []
        self.latencies = []

    def extend(self, other: "Pass"):
        self.requests += other.requests
        self.outputs += other.outputs
        self.latencies += other.latencies


def send(workload, lib, requests, *, count=None, seconds=None) -> Pass:
    """Send requests one at a time: `count` of them, or whole rounds until `seconds`
    of busy time and the workload's minimum number of rounds."""
    done = Pass()
    busy = 0.0
    least = workload.min_rounds * workload.round_requests
    for request in requests:
        start = time.perf_counter()
        try:
            output = workload.run(lib, request)
        except Exception:
            output = Failure(traceback.format_exc())
        elapsed = time.perf_counter() - start
        busy += elapsed
        done.requests.append(request)
        done.outputs.append(output)
        done.latencies.append(elapsed)
        sent = len(done.requests)
        if sent == count or (count is None and busy >= seconds and sent >= least
                             and sent % workload.round_requests == 0):
            break
    return done


def count_failed(workload, lib, done: Pass) -> int:
    """Check every answer; a check that raises counts the answer as wrong."""
    memo = {}
    failed = 0
    for request, output in zip(done.requests, done.outputs):
        try:
            ok = not isinstance(output, Failure) and workload.check(lib, request, output, memo)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            sys.stderr.write(f"wrong answer to {request.kind} {request.args!r}: {output!r}\n"[:2000])
    return failed


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, done: Pass, setup_s: float) -> dict:
    lat = done.latencies
    r = workload.round_requests
    rounds = [sum(lat[i:i + r]) for i in range(0, len(lat), r)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1000, "ms"),
        "latency_p99_ms": (percentile(lat, 99) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_replay(workload, lib, requests):
    """The same requests plain and traced; returns (plain pass, per-layer metrics, mismatches).

    The two passes take turns block by block, each going first in every other
    block, so that drift in machine speed cancels out of trace_overhead_ratio.
    """
    tracer = Tracer()
    plain, traced = Pass(), Pass()
    size = -(-len(requests) // TRACE_BLOCKS)
    for number, start in enumerate(range(0, len(requests), size)):
        block = requests[start:start + size]
        for with_trace in ((False, True) if number % 2 == 0 else (True, False)):
            if not with_trace:
                plain.extend(send(workload, lib, block, count=len(block)))
                continue
            tracer.install(lib)
            try:
                traced.extend(send(workload, lib, block, count=len(block)))
            finally:
                tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-seed{workload.seed}.json"))
    mismatches = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
    metrics = layer_metrics(tracer)
    metrics["trace_overhead_ratio"] = (sum(traced.latencies) / sum(plain.latencies), "ratio")
    metrics["trace_mismatch_count"] = (mismatches, "count")
    for kind, name in KIND_P50.items():
        lat = [t for r, t in zip(plain.requests, plain.latencies) if r.kind == kind]
        metrics[name] = (percentile(lat, 50) * 1000 if lat else 0.0, "ms")
    return plain, metrics, mismatches


def trace_count(workload, seconds: int) -> int:
    """Whole rounds for a traced replay: about `seconds` for both passes on the
    reference machine."""
    rounds = max(1, round(seconds * workload.rate / 2 / workload.round_requests))
    return rounds * workload.round_requests


def environment(args) -> dict:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "tensorlattice")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(workload, seconds: int, trace: bool):
    """One benchmark run; returns the result object that run.py prints last."""
    if trace:
        count = trace_count(workload, seconds)
        lib, requests, _ = set_up(workload, count)
        done, metrics, mismatches = traced_replay(
            workload, lib, list(itertools.islice(requests, count))
        )
        failed = count_failed(workload, lib, done) + mismatches
        metrics["failed_ratio"] = (failed / len(done.requests), "ratio")
    else:
        lib, requests, setup_s = set_up(workload, workload.min_rounds * workload.round_requests)
        done = send(workload, lib, requests, seconds=seconds)
        metrics = end_to_end(workload, done, setup_s)
        failed = count_failed(workload, lib, done)
    return {
        "correct": failed == 0,
        "attempted": len(done.requests),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tensorlattice", "__init__.py")):
        sys.stderr.write(f"error: no tensorlattice package under {SRC}; "
                         "run from the repository root\n")
        return 2
    sys.path.insert(0, SRC)
    # Compile the library from source on every import, as in a fresh checkout,
    # so set-up time does not depend on bytecode left by earlier runs.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(OUT, "no-bytecode")
    result = run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
