"""The three benchmark workloads: input generation, requests and answer checks.

Each workload turns a seed into a deterministic stream of requests. A
request is one call a user would make: a whole suite report, one CLI query,
or one hull membership or gauge call. `run` performs the call and returns
its output; `check` decides afterwards, outside any timed region, whether
the output is right (`memo` carries facts from earlier answers of the same
run). Inputs come from `random.Random`, never from the library's own
generator, so the library only ever sees finished inputs. Warm-up draws from
a separate stream of a fixed seed, so no timed input has been seen before and
set-up does the same work for every seed.

A round is `round_requests` consecutive requests that cover the workload's
input mix once (every shape and kind in turn), so all rounds of a run, and
of runs with other seeds, do the same mix of work. A timed run sends at least
`min_rounds` rounds and only whole rounds. `rate` is the number of requests
per second on a 2-core reference machine, used to size the traced replay.

The library is passed in as `lib`, a namespace of freshly imported
`tensorlattice` modules (see `run.import_library`).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

# sha256 of `json.dumps(run_suite(seed=42, triples=60, samples=80), sort_keys=True,
# indent=2) + "\n"`, the bytes `tensorlattice suite --seed 42` prints.
SUITE_SEED42_SHA256 = "834fb63cfe7d17b2f7777b3a0efaf7a5b7dd560b91a329c1bec7fa06bfdffaed"
SUITE_STATEMENTS = 31

L1 = "weighted_l1"
OU = "weighted_order_unit"
KIND_PAIRS = ((L1, L1), (OU, OU), (L1, OU), (OU, L1))
DECORATIONS = (("Conv",), ("Conv_b",), ("Sol", "Conv"), ("Sol", "Conv_b"))
CONVEX_SOLID = (("Sol", "Conv"), ("Sol", "Conv_b"))
MAX_DENOMINATOR = 8
WARM_UP_SEED = 0


class Request:
    """One user call: `kind` names it, `args` are its generated inputs."""

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: tuple):
        self.kind = kind
        self.args = args


def _rng(seed: int, *labels) -> random.Random:
    # str seeds hash through sha512, so the stream does not depend on PYTHONHASHSEED
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _positive(rng: random.Random, hi: int) -> Fraction:
    den = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(1, hi * den), den)


def _text(values) -> list[str]:
    return [str(v) for v in values]


# ---------------------------------------------------------------------------
# suite: the full 31-statement property report
# ---------------------------------------------------------------------------


class Suite:
    """`run_suite` reports, one per request: the workload seed first, then seeds
    derived from it."""

    name = "suite"
    round_requests = 1
    min_rounds = 1
    rate = 1 / 11

    def __init__(self, seed: int, triples: int = 60, samples: int = 80):
        self.seed = seed
        self.triples = triples
        self.samples = samples

    def setup(self, lib):
        # Warm-up: one small report touches every module the full one does.
        lib.suite.run_suite(seed=WARM_UP_SEED, triples=2, samples=2, workers=1)

    def requests(self, stream: str = "run"):
        yield Request("report", (self.seed,))
        for index in itertools.count(1):
            yield Request("report", (_rng(self.seed, stream, index).randrange(2**31),))

    def run(self, lib, request: Request):
        (seed,) = request.args
        report = lib.suite.run_suite(
            seed=seed, triples=self.triples, samples=self.samples, workers=1
        )
        return json.dumps(report, sort_keys=True, indent=2) + "\n"

    def check(self, lib, request: Request, blob, memo) -> bool:
        report = json.loads(blob)
        if report["all_ok"] is not True or len(report["statements"]) != SUITE_STATEMENTS:
            return False
        if request.args[0] == 42 and (self.triples, self.samples) == (60, 80):
            return hashlib.sha256(blob.encode()).hexdigest() == SUITE_SEED42_SHA256
        return True


# ---------------------------------------------------------------------------
# cli-certify: `seminorm` and `member` queries through cli.main
# ---------------------------------------------------------------------------


def projective_value(p_kind, w, q_kind, v, entries) -> Fraction:
    """(p (x) q)(u) for weighted seminorms, from the textbook formulas.

    l1 (x) l1 is the weighted l1 norm of the matrix, ou (x) ou its weighted
    max norm, and a mixed pair is the l1 sum of order-unit norms taken along
    the l1 side's coordinate (l1(X) = l1 (x)_pi X).
    """
    a = [[abs(c) for c in row] for row in entries]
    n, m = len(a), len(a[0])
    if (p_kind, q_kind) == (L1, L1):
        return sum((w[i] * v[j] * a[i][j] for i in range(n) for j in range(m)), Fraction(0))
    if (p_kind, q_kind) == (OU, OU):
        return max(a[i][j] / (w[i] * v[j]) for i in range(n) for j in range(m))
    if p_kind == L1:
        return sum((w[i] * max(a[i][j] / v[j] for j in range(m)) for i in range(n)), Fraction(0))
    return sum((v[j] * max(a[i][j] / w[i] for i in range(n)) for j in range(m)), Fraction(0))


class CliCertify:
    """Alternating `seminorm P Q U` and `member {p,q} U --radius r` CLI calls.

    Input k uses kind pair k mod 4, positive weights in (0, 3] and entries
    in [-3, 3], all with denominator at most 8. The radius of the member
    query cycles below, at and above the exact value of the seminorm. Shapes
    1x1 to 5x5 take turns in blocks of twelve inputs (every kind pair and
    radius band once), so every run of a given length sees the same mix of
    sizes and only the entries depend on the seed.
    """

    name = "cli-certify"
    SHAPES = tuple((n, m) for n in range(1, 6) for m in range(1, 6))
    BLOCK = 12  # inputs per shape: every kind pair and radius band once
    round_requests = 2 * BLOCK * len(SHAPES)
    min_rounds = 2
    rate = 300

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, lib):
        warm_up = CliCertify(WARM_UP_SEED).requests("warm-up")
        for _ in range(20):
            self.run(lib, next(warm_up))

    def _input(self, stream: str, k: int):
        rng = _rng(self.seed, stream, k)
        p_kind, q_kind = KIND_PAIRS[k % len(KIND_PAIRS)]
        n, m = self.SHAPES[k // self.BLOCK % len(self.SHAPES)]
        w = [_positive(rng, 3) for _ in range(n)]
        v = [_positive(rng, 3) for _ in range(m)]
        entries = [[Fraction(0) if rng.random() < 0.25 else _rational(rng, -3, 3)
                    for _ in range(m)] for _ in range(n)]
        if not any(c for row in entries for c in row):
            entries[rng.randrange(n)][rng.randrange(m)] = _positive(rng, 3)
        value = projective_value(p_kind, w, q_kind, v, entries)
        shift = Fraction(rng.randint(1, 8), 16)
        radius = value * (1 - shift, 1, 1 + shift)[k % 3]
        p = json.dumps({"kind": p_kind, "weights": _text(w)})
        q = json.dumps({"kind": q_kind, "weights": _text(v)})
        u = json.dumps({"shape": [n, m], "entries": [_text(row) for row in entries]})
        return p, q, u, radius, value

    def requests(self, stream: str = "run"):
        for k in itertools.count():
            p, q, u, radius, value = self._input(stream, k)
            yield Request("seminorm", (k, value, ["seminorm", p, q, u]))
            target = json.dumps({"p": json.loads(p), "q": json.loads(q)})
            yield Request("nbhd-member",
                          (k, radius, ["member", target, u, "--radius", str(radius)]))

    def run(self, lib, request: Request):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(request.args[2])
        return code, out.getvalue(), err.getvalue()

    def check(self, lib, request: Request, output, memo) -> bool:
        """`memo` maps an input index to the interval its seminorm query certified."""
        if request.kind == "seminorm":
            return self._check_seminorm(lib, request, output, memo)
        return self._check_member(request, output, memo)

    @staticmethod
    def _check_seminorm(lib, request, output, intervals) -> bool:
        k, value, argv = request.args
        code, out, err = output
        if code != 0 or err:
            return False
        payload = json.loads(out)
        p = lib.elements.RieszSeminorm.from_json(json.loads(argv[1]))
        q = lib.elements.RieszSeminorm.from_json(json.loads(argv[2]))
        u = lib.tensor.TensorElement.from_json(json.loads(argv[3]))
        cert = lib.projective.SeminormCertificate.from_json(payload, u.shape)
        intervals[k] = (cert.lower, cert.upper)
        closed = payload["closed_form"]
        pure = p.kind == q.kind
        return (
            cert.verify(p, q, u)
            and cert.lower == cert.upper == value
            and (closed == str(value) if pure else closed is None)
        )

    @staticmethod
    def _check_member(request, output, intervals) -> bool:
        k, radius, _ = request.args
        code, out, err = output
        if k not in intervals or err:
            return False
        lower, upper = intervals[k]
        if upper <= radius:
            expected = "member"
        elif lower > radius:
            expected = "non-member"
        else:
            expected = "undecided"
        payload = json.loads(out)
        return (
            code == (2 if expected == "undecided" else 0)
            and payload == {"membership": expected, "radius": str(radius)}
        )


# ---------------------------------------------------------------------------
# hull-lp: hull membership and gauge, decided by the exact simplex
# ---------------------------------------------------------------------------


class HullLP:
    """`hulls.member` on the four LP-backed decorations, `hulls.gauge` on the two
    convex-solid ones.

    Every query has its own set: dimension 2 to 6, 2 to 6 generators with
    coordinates in [-3, 3] of denominator at most 8, and at most 24
    coordinates in all, which leaves out only the four largest shapes (the
    LPs of `Sol` decorations grow with that count). The 21 shapes take turns
    by cycle, so every run of a given length sees the same mix of sizes and
    only the coordinates depend on the seed. A query point is a
    (balanced or convex) combination of generators, or of points of their
    boxes for `Sol` decorations, so the generator knows it lies inside; or
    that point scaled until one coordinate leaves the box of largest
    generator coordinates, so it is known to lie outside.
    """

    name = "hull-lp"
    SHAPES = tuple((d, c) for d in range(2, 7) for c in range(2, 7) if d * c <= 24)
    # One cycle: an inside and an outside member query per decoration, then
    # one gauge query, on the convex-solid decorations in turn.
    MEMBERS = tuple(("member", d, inside) for d in DECORATIONS for inside in (True, False))
    round_requests = (len(MEMBERS) + 1) * len(SHAPES)
    min_rounds = 6
    rate = 42

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, lib):
        warm_up = HullLP(WARM_UP_SEED).requests("warm-up")
        for _ in range(2 * (len(self.MEMBERS) + 1)):
            self.run(lib, next(warm_up))

    def _input(self, stream: str, k: int):
        rng = _rng(self.seed, stream, k)
        cycle, slot = divmod(k, len(self.MEMBERS) + 1)
        if slot < len(self.MEMBERS):
            kind, deco, inside = self.MEMBERS[slot]
        else:
            kind, deco, inside = "gauge", CONVEX_SOLID[cycle % 2], rng.random() < 0.5
        dim, count = self.SHAPES[cycle % len(self.SHAPES)]
        gens = [[_rational(rng, -3, 3) for _ in range(dim)] for _ in range(count)]
        for g in gens:
            if not any(g):
                g[rng.randrange(dim)] = _positive(rng, 3)
        if "Conv_b" in deco:
            raw = [rng.randint(-8, 8) or 1 for _ in range(count)]
            mass = Fraction(rng.randint(1, 8), 8)
            weights = [Fraction(r) * mass / sum(abs(x) for x in raw) for r in raw]
        else:
            raw = [rng.randint(0, 8) for _ in range(count)]
            raw[rng.randrange(count)] += 1
            weights = [Fraction(r, sum(raw)) for r in raw]
        if "Sol" in deco:
            terms = [[c * Fraction(rng.randint(-8, 8), 8) for c in g] for g in gens]
        else:
            terms = gens
        point = [sum((wk * t[i] for wk, t in zip(weights, terms)), Fraction(0))
                 for i in range(dim)]
        if not any(point):
            # A lone generator, or a nonzero point of its box, lies in all four hulls.
            point = list(terms[0]) if any(terms[0]) else list(gens[0])
        box = [max(abs(g[i]) for g in gens) for i in range(dim)]
        if not inside:
            ratio, i = max((abs(c) / box[i], i) for i, c in enumerate(point) if c)
            stretch = (1 + Fraction(rng.randint(1, 8), 16)) / ratio
            point = [c * stretch for c in point]
        return kind, deco, gens, point, inside

    def requests(self, stream: str = "run"):
        for k in itertools.count():
            kind, deco, gens, point, inside = self._input(stream, k)
            yield Request(kind, (deco, gens, point, inside))

    @staticmethod
    def _set(lib, deco, gens, scale=1):
        LatticeElement = lib.elements.LatticeElement
        return lib.hulls.GeneratedSet(
            tuple(LatticeElement(tuple(c * scale for c in g)) for g in gens), deco
        )

    def run(self, lib, request: Request):
        deco, gens, point, _ = request.args
        S = self._set(lib, deco, gens)
        x = lib.elements.LatticeElement(tuple(point))
        if request.kind == "member":
            return lib.hulls.member(S, x)
        return lib.hulls.gauge(S, x)

    def check(self, lib, request: Request, answer, memo) -> bool:
        deco, gens, point, inside = request.args
        if request.kind == "member":
            return answer is inside
        return self._check_gauge(lib, deco, gens, point, answer) and (answer <= 1) == inside

    def _check_gauge(self, lib, deco, gens, point, g) -> bool:
        """x lies in g * S and not in g' * S for g' just below g."""
        if not isinstance(g, Fraction) or g <= 0:
            return False
        x = lib.elements.LatticeElement(tuple(point))
        below = g * Fraction(1023, 1024)
        return (lib.hulls.member(self._set(lib, deco, gens, g), x)
                and not lib.hulls.member(self._set(lib, deco, gens, below), x))


WORKLOADS = {cls.name: cls for cls in (Suite, CliCertify, HullLP)}
