from collections import Counter
from fractions import Fraction

import pytest

import oracles
from tensorlattice import hulls, simplex
from tensorlattice.rng import SplitStream
from tensorlattice.simplex import (
    InfeasibleLP,
    LinearProgram,
    UnboundedLP,
    feasible,
    solve_standard,
)
from tensorlattice.suite import run_suite


def test_standard_form_basic():
    # min x0 + x1  s.t.  x0 + 2 x1 = 4
    value, sol = solve_standard([[Fraction(1), Fraction(2)]], [Fraction(4)],
                                [Fraction(1), Fraction(1)])
    assert value == 2
    assert sol == [Fraction(0), Fraction(2)]


def test_degenerate_rhs():
    value, sol = solve_standard(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
        [Fraction(0), Fraction(0)],
        [Fraction(3), Fraction(5)],
    )
    assert value == 0
    assert sol == [Fraction(0), Fraction(0)]


def test_infeasible_detected():
    with pytest.raises(InfeasibleLP):
        solve_standard([[Fraction(1)], [Fraction(1)]],
                       [Fraction(1), Fraction(2)],
                       [Fraction(0)])


def test_unbounded_detected():
    lp = LinearProgram()
    x = lp.var(cost=-1)
    lp.add({x: 1}, ">=", 0)
    with pytest.raises(UnboundedLP):
        lp.minimize()


def test_builder_inequalities():
    # min 2x + 3y  s.t.  x + y >= 4, x <= 3
    lp = LinearProgram()
    x = lp.var(cost=2)
    y = lp.var(cost=3)
    lp.add({x: 1, y: 1}, ">=", 4)
    lp.add({x: 1}, "<=", 3)
    value, sol = lp.minimize()
    assert value == 9
    assert sol[x] == 3 and sol[y] == 1


def test_exact_fractional_answer():
    lp = LinearProgram()
    x = lp.var(cost=1)
    lp.add({x: 3}, ">=", Fraction(1, 7))
    value, _ = lp.minimize()
    assert value == Fraction(1, 21)


def test_feasible_probe_does_not_mutate():
    lp = LinearProgram()
    x = lp.var(cost=1)
    lp.add({x: 1}, ">=", 2)
    assert lp.feasible()
    value, _ = lp.minimize()
    assert value == 2


def test_determinism_same_build_same_solution():
    def build():
        lp = LinearProgram()
        xs = [lp.var(cost=c) for c in (3, 1, 4, 1)]
        lp.add({xs[0]: 1, xs[1]: 2, xs[2]: 1}, ">=", 5)
        lp.add({xs[1]: 1, xs[3]: 3}, ">=", 4)
        lp.add({xs[0]: 1, xs[3]: 1}, "<=", 6)
        return lp.minimize()

    assert build() == build()


def _random_program(r):
    """A small random bounded-feasible program and its matrix description."""
    nvars = r.randint(2, 5)
    lp = LinearProgram()
    costs = [Fraction(r.randint(0, 6)) for _ in range(nvars)]
    xs = [lp.var(cost=c) for c in costs]
    rows = []
    for _ in range(r.randint(1, 4)):
        coeffs = [Fraction(r.randint(0, 4)) for _ in range(nvars)]
        if all(c == 0 for c in coeffs):
            coeffs[r.randint(0, nvars - 1)] = Fraction(1)
        rhs = Fraction(r.randint(0, 8))
        lp.add({x: c for x, c in zip(xs, coeffs) if c != 0}, ">=", rhs)
        rows.append((coeffs, rhs))
    for x in xs:
        lp.add({x: 1}, "<=", 10)  # box keeps it bounded
    return lp, costs, rows, nvars


def test_agrees_with_scipy_on_random_programs():
    scipy = pytest.importorskip("scipy.optimize")
    rng = SplitStream(2024).split("lp-cross")
    checked = 0
    for t in range(40):
        r = rng.split(t)
        lp, costs, rows, nvars = _random_program(r)
        value, _ = lp.minimize()
        a_ub = [[-float(c) for c in coeffs] for coeffs, _ in rows]
        b_ub = [-float(rhs) for _, rhs in rows]
        res = scipy.linprog(
            [float(c) for c in costs],
            A_ub=a_ub, b_ub=b_ub,
            bounds=[(0, 10)] * nvars,
            method="highs",
        )
        assert res.success
        assert abs(float(value) - res.fun) < 1e-7, (value, res.fun)
        checked += 1
    assert checked == 40


# ---------------------------------------------------------------------------
# The sparse row update against the dense one it replaced
# ---------------------------------------------------------------------------


def _dense_pivot(tableau, obj, basis, row, col):
    """The dense row update: every cell of every row the pivot touches."""
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    pivot_row = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, pivot_row)]
    if obj[col] != 0:
        f = obj[col]
        obj[:] = [a - f * b for a, b in zip(obj, pivot_row)]
    basis[row] = col


_SPARSE_PIVOT = simplex._pivot


def _entry(r, lo=-3, hi=3):
    return r.fraction(lo, hi, denominator=4)


def _box_shaped(r):
    """Like `hulls._box_program`: |z_k| <= lam_k |g_k| split into u + v - c lam_k <= 0.

    The point is a generator scaled by 0 (a zero right-hand side), inside, or
    stretched past the generators' bounding box; the gauge form minimizes the
    mass and the membership form fixes it with an == row.
    """
    dim, count = r.randint(2, 4), r.randint(2, 4)
    gens = [[_entry(r) for _ in range(dim)] for _ in range(count)]
    scale = r.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5)])
    x = [scale * c for c in r.choice(gens)]
    objective = r.randint(0, 1) == 1
    lp = LinearProgram()
    lam = [lp.var(cost=1 if objective else 0) for _ in gens]
    split = {}
    for k, g in enumerate(gens):
        for i, c in enumerate(g):
            if c != 0:
                u, v = lp.var(), lp.var()
                split[k, i] = (u, v)
                lp.add({u: 1, v: 1, lam[k]: -abs(c)}, "<=", 0)
    for i in range(dim):
        coeffs = {}
        for k in range(count):
            if (k, i) in split:
                u, v = split[k, i]
                coeffs[u], coeffs[v] = 1, -1
        if coeffs or x[i] != 0:
            lp.add(coeffs, "==", x[i])
    if not objective:
        lp.add({v: 1 for v in lam}, "==", 1)
    return lp


def _sum_hull_shaped(r):
    """Like `hulls._sum_hull_member`: one mass row per block, then x coordinate-wise.

    Balanced blocks get +/- columns under a <= 1 mass row, convex blocks an
    == 1 mass row; random costs add a phase 2.
    """
    dim, balanced = r.randint(1, 3), r.randint(0, 1) == 1
    lp = LinearProgram()
    columns = [[] for _ in range(dim)]
    for _ in range(r.randint(1, 3)):
        gens = [[_entry(r) for _ in range(dim)] for _ in range(r.randint(1, 3))]
        block = []
        for g in gens:
            signs = (1, -1) if balanced else (1,)
            for sign in signs:
                var = lp.var(cost=r.randint(0, 3))
                block.append(var)
                for i, c in enumerate(g):
                    if c != 0:
                        columns[i].append((var, sign * c))
        lp.add({v: 1 for v in block}, "<=" if balanced else "==", 1)
    for col in columns:
        lp.add(dict(col), "==", _entry(r, -2, 2))
    return lp


def _degenerate(r):
    """Rows with zero right-hand sides, some repeated, and costs of either sign."""
    nvars = r.randint(2, 5)
    lp = LinearProgram()
    xs = [lp.var(cost=r.randint(-2, 3)) for _ in range(nvars)]
    rows = [({x: _entry(r) for x in xs if r.randint(0, 2)}, r.choice(["<=", ">=", "=="]))
            for _ in range(r.randint(1, 4))]
    for coeffs, sense in rows + rows[: r.randint(0, 1)]:
        lp.add(coeffs, sense, 0)
    if r.randint(0, 1):
        for x in xs:
            lp.add({x: 1}, "<=", r.randint(1, 4))
    return lp


def _general(r):
    """Mixed senses and right-hand sides; infeasible and unbounded ones occur."""
    nvars = r.randint(1, 5)
    lp = LinearProgram()
    xs = [lp.var(cost=r.randint(-3, 3)) for _ in range(nvars)]
    for _ in range(r.randint(1, 5)):
        coeffs = {x: _entry(r) for x in xs if r.randint(0, 1)}
        lp.add(coeffs, r.choice(["<=", ">=", "=="]), _entry(r, -4, 4))
    return lp


def _solve_with(monkeypatch, pivot, lp):
    """The (row, col) of every pivot, then (value, solution) or the exception class."""
    trail = []

    def recording(tableau, obj, basis, row, col):
        trail.append((row, col))
        assert len(trail) <= 1000, "the simplex cycles"  # Bland's rule terminates
        pivot(tableau, obj, basis, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    try:
        outcome = lp.minimize()
    except (InfeasibleLP, UnboundedLP) as exc:
        outcome = type(exc)
    return trail, outcome


def test_sparse_pivot_takes_the_dense_pivots(monkeypatch):
    rng = SplitStream(2024).split("sparse-pivot")
    outcomes = set()
    for name, build in (("box", _box_shaped), ("sum-hull", _sum_hull_shaped),
                        ("degenerate", _degenerate), ("general", _general)):
        for t in range(60):
            lp = build(rng.split(name, t))
            sparse = _solve_with(monkeypatch, _SPARSE_PIVOT, lp)
            dense = _solve_with(monkeypatch, _dense_pivot, lp)
            assert sparse == dense, (name, t)
            outcomes.add(sparse[1] if isinstance(sparse[1], type) else "optimal")
    # every outcome of the simplex is compared, not only the optimal one
    assert outcomes == {"optimal", InfeasibleLP, UnboundedLP}


# ---------------------------------------------------------------------------
# The integer phase 1 of `feasible` against the Fraction two-phase method
# ---------------------------------------------------------------------------


def _has_solution(rows, rhs):
    """The Fraction simplex's answer to whether rows.x == rhs has a solution x >= 0."""
    try:
        solve_standard(rows, rhs, [Fraction(0)] * len(rows[0]))
    except InfeasibleLP:
        return False
    return True


def _rational_program(r):
    """rows.x == rhs with entries over mixed denominators.

    The right-hand side is the image of a random x >= 0 (feasible), all
    zero (degenerate) or random with either sign; some programs get a zero
    row, some a scaled copy of one of their rows.
    """
    m, n = r.randint(1, 5), r.randint(1, 6)
    rows = [[r.fraction(-4, 4, denominator=6) if r.randint(0, 2) else Fraction(0)
             for _ in range(n)] for _ in range(m)]
    kind = r.randint(0, 2)
    if kind == 0:
        x = [r.fraction(0, 3, denominator=5) if r.randint(0, 1) else 0 for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    elif kind == 1:
        rhs = [Fraction(0)] * m
    else:
        rhs = [r.fraction(-5, 5, denominator=6) for _ in range(m)]
    if r.randint(0, 3) == 0:
        rows[r.randint(0, m - 1)] = [Fraction(0)] * n
    if r.randint(0, 2) == 0:
        i, k = r.randint(0, m - 1), r.choice([Fraction(1), Fraction(-2), Fraction(1, 3)])
        rows.append([k * a for a in rows[i]])
        rhs.append(k * rhs[i])
    return rows, rhs


def _standard_form(monkeypatch, lp):
    """The (rows, rhs) that `lp.feasible()` hands to `solve_standard`."""
    seen = []

    def capture(rows, rhs, costs):
        seen.append((rows, rhs))
        raise InfeasibleLP

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "solve_standard", capture)
        lp.feasible()
    return seen[0]


def _feasible(rows, rhs):
    """`feasible` on a rational program, scaled row by row to integers first."""
    return feasible(*oracles.integer_program(rows, rhs))


def test_feasible_fixtures():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert feasible([], [])
    assert feasible([[0, 0]], [0])
    assert not feasible([[0, 0]], [1])
    assert _feasible([[-half, third]], [Fraction(-1)])  # x = (2, 0), a negative rhs
    assert not _feasible([[half, third]], [Fraction(-1)])
    assert feasible([[-3, 2]], [-6])  # the same two rows on integers
    assert not feasible([[3, 2]], [-6])
    assert feasible([[1, 1], [1, 1]], [2, 2])  # a duplicated row
    assert not feasible([[1, 1], [2, 2]], [2, 3])
    assert feasible([[1, -1], [1, 1]], [0, 0])  # degenerate: only x = 0
    assert not feasible([[1, 1]], [-1])
    assert feasible([[2, 4]], [3])  # x = (3/2, 0): integer rows, a rational solution


def test_feasible_agrees_with_solve_standard(monkeypatch):
    rng = SplitStream(2024).split("integer-phase-1")
    verdicts = {True: 0, False: 0}
    for t in range(800):
        rows, rhs = _rational_program(rng.split("rational", t))
        got = _feasible(rows, rhs)
        assert got == _has_solution(rows, rhs), t
        verdicts[got] += 1
    for name, build in (("box", _box_shaped), ("sum-hull", _sum_hull_shaped),
                        ("degenerate", _degenerate), ("general", _general)):
        for t in range(60):
            rows, rhs = _standard_form(monkeypatch, build(rng.split(name, t)))
            got = _feasible(rows, rhs)
            assert got == _has_solution(rows, rhs), (name, t)
            verdicts[got] += 1
    assert sum(verdicts.values()) >= 1000
    assert min(verdicts.values()) >= 200, verdicts


def test_feasible_agrees_with_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    rng = SplitStream(2024).split("integer-phase-1")
    for t in range(200):
        rows, rhs = _rational_program(rng.split("rational", t))
        res = scipy.linprog(
            [0.0] * len(rows[0]),
            A_eq=[[float(a) for a in row] for row in rows],
            b_eq=[float(b) for b in rhs],
            bounds=[(0, None)] * len(rows[0]),
            method="highs",
        )
        assert res.status in (0, 2), res.message
        assert _feasible(rows, rhs) == (res.status == 0), t


def _multiple(a, b):
    """Whether the row a is a nonzero multiple of the nonzero row b."""
    k = next((Fraction(x) / y for x, y in zip(a, b) if y), 0)
    return k != 0 and all(x == k * y for x, y in zip(a, b))


def test_feasible_against_stored_artificials(monkeypatch):
    """Phase 1 without artificial columns against phase 1 with them (free to
    re-enter) and the Fraction two-phase method, on programs with zero rows,
    repeated rows, negative right-hand sides and degenerate optima."""
    rng = SplitStream(2026).split("implicit-artificials")
    seen = {"feasible": 0, "infeasible": 0, "zero-row": 0, "repeated": 0,
            "negative": 0, "degenerate": 0}
    programs = [_rational_program(rng.split("rational", t)) for t in range(600)]
    for name, build in (("box", _box_shaped), ("sum-hull", _sum_hull_shaped),
                        ("degenerate", _degenerate), ("general", _general)):
        programs += [_standard_form(monkeypatch, build(rng.split(name, t))) for t in range(40)]
    for t, (rows, rhs) in enumerate(programs):
        got = _feasible(rows, rhs)
        assert got == oracles.feasible_with_artificials(rows, rhs) == _has_solution(rows, rhs), t
        seen["feasible" if got else "infeasible"] += 1
        seen["zero-row"] += any(not any(row) for row in rows)
        seen["repeated"] += any(_multiple(rows[i], rows[j])
                                for i in range(len(rows)) for j in range(i))
        seen["negative"] += any(b < 0 for b in rhs)
        seen["degenerate"] += not any(rhs)
    assert all(v >= 40 for v in seen.values()), seen


def test_feasible_on_the_bare_programs_of_a_suite(monkeypatch):
    """Every bare Conv/Conv_b question of the seed-42 suite, recorded as the hull
    laws ask `_sum_hull_member`, with its route: rejected by the box, accepted
    on a line, or decided by phase 1. Its answer agrees with every method on
    the Fraction program of the question."""
    questions, programs = [], []
    decide = hulls._sum_hull_member

    def recording(blocks, x, balanced):
        before = len(programs)
        got = decide(blocks, x, balanced)
        route = "phase 1" if len(programs) > before else "line" if got else "box"
        questions.append((blocks, x, balanced, got, route))
        return got

    def phase_1(rows, rhs):
        programs.append(([list(row) for row in rows], list(rhs)))
        return feasible(rows, rhs)

    monkeypatch.setattr(hulls, "_sum_hull_member", recording)
    monkeypatch.setattr(hulls, "feasible", phase_1)
    run_suite(seed=42)
    assert len(questions) == 1403
    assert Counter(route for *_, route in questions) == {"box": 250, "line": 252, "phase 1": 901}
    verdicts = [got for *_, got, _ in questions]
    fraction_programs = [oracles.sum_hull_rows(blocks, x, balanced)
                         for blocks, x, balanced, _, _ in questions]
    assert verdicts == [oracles.feasible_with_artificials(rows, rhs)
                        for rows, rhs in fraction_programs]
    assert verdicts == [_has_solution(rows, rhs) for rows, rhs in fraction_programs]
    assert verdicts == [_feasible(rows, rhs) for rows, rhs in fraction_programs]
    assert verdicts.count(False) == 462
    # the tableaus phase 1 was handed are the scaled Fraction programs
    assert programs == [oracles.integer_program(*program)
                        for program, (*_, route) in zip(fraction_programs, questions)
                        if route == "phase 1"]


# ---------------------------------------------------------------------------
# The covering LP
# ---------------------------------------------------------------------------


def _random_cover(r):
    """Columns (cost, ((row, coeff), ...)) and a target, with zero target
    rows, cost-0 columns, zero coefficients, and now and then a positive
    target coordinate that no column covers."""
    m = r.randint(1, 5)
    uncovered = r.randint(0, m) if r.randint(0, 3) == 0 else None
    columns = []
    for _ in range(r.randint(1, 5)):
        cost = Fraction(0) if r.randint(0, 4) == 0 else r.fraction(0, 3)
        entries = tuple((i, r.fraction(0, 2)) for i in range(m)
                        if i != uncovered and r.randint(0, 2))
        columns.append((cost, entries))
    target = [r.fraction(0, 3) if r.randint(0, 2) else Fraction(0) for _ in range(m)]
    if uncovered is not None and uncovered < m:
        target[uncovered] = r.fraction(1, 3)
    return columns, target


def _cover_by_builder(columns, target):
    """The same program stated through `LinearProgram`."""
    lp = LinearProgram()
    lams = [lp.var(cost=c) for c, _ in columns]
    rows = [{} for _ in target]
    for lam, (_, entries) in zip(lams, columns):
        for i, a in entries:
            rows[i][lam] = a
    for row, b in zip(rows, target):
        lp.add(row, ">=", b)
    try:
        return lp.minimize()
    except InfeasibleLP:
        return None


def _check_cover(columns, target, found):
    """`found` is a cover's (value, lam, y): lam covers the target at cost
    value, y packs under every column's cost at profit value."""
    value, lam, y = found
    assert len(lam) == len(columns) and all(a >= 0 for a in lam)
    assert len(y) == len(target) and all(b >= 0 for b in y)
    for i, b in enumerate(target):
        assert sum(a * dict(entries).get(i, 0) for a, (_, entries) in zip(lam, columns)) >= b
    assert all(sum(y[i] * a for i, a in entries) <= c for c, entries in columns)
    assert sum(a * c for a, (c, _) in zip(lam, columns)) == value
    assert sum(b * t for b, t in zip(y, target)) == value


def _solved(columns, target):
    """`cover`'s (value, lam), its certificates checked, or None."""
    found = simplex.cover(columns, target)
    if found is None:
        return None
    _check_cover(columns, target, found)
    return found[:2]


def test_cover_against_the_builder_and_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = SplitStream(2024).split("cover")
    seen = {"solved": 0, "uncovered": 0, "zero target": 0, "zero rows": 0, "free columns": 0}
    for t in range(400):
        columns, target = _random_cover(rng.split(t))
        found, ref = _solved(columns, target), _cover_by_builder(columns, target)
        # A degenerate optimum has several optimal lam: compare the values
        # (`_solved` checks lam and y against their own inequalities).
        assert (found is None) == (ref is None), (columns, target)
        assert found is None or found[0] == ref[0], (columns, target)
        res = optimize.linprog(
            [float(c) for c, _ in columns],
            A_ub=[[-float(dict(entries).get(i, 0)) for _, entries in columns]
                  for i in range(len(target))],
            b_ub=[-float(b) for b in target],
            bounds=[(0, None)] * len(columns),
            method="highs",
        )
        assert res.status in (0, 2), res.message
        if found is None:
            assert res.status == 2
            seen["uncovered"] += 1
            continue
        value = found[0]
        assert res.status == 0 and abs(float(value) - res.fun) < 1e-7, (value, res.fun)
        seen["solved"] += 1
        seen["zero target"] += not any(target)
        seen["zero rows"] += any(b == 0 for b in target)
        seen["free columns"] += any(c == 0 for c, _ in columns)
    assert min(seen.values()) >= 20, seen


def _any_cover(r):
    """Covers of 0-7 rows and columns, denominators up to 4: empty and
    cost-0 columns, zero target rows, now and then an all-zero target and a
    positive target coordinate that no column covers."""
    m, n = r.randint(0, 7), r.randint(0, 7)
    uncovered = r.randint(0, m) if r.randint(0, 3) == 0 else None

    def entry(hi):
        return r.fraction(0, hi, r.randint(1, 4))

    columns = []
    for _ in range(n):
        cost = Fraction(0) if r.randint(0, 4) == 0 else entry(3)
        entries = () if r.randint(0, 5) == 0 else tuple(
            (i, entry(2)) for i in range(m) if i != uncovered and r.randint(0, 2))
        columns.append((cost, entries))
    zero = r.randint(0, 7) == 0
    target = [Fraction(0) if zero or not r.randint(0, 2) else entry(3) for _ in range(m)]
    if uncovered is not None and uncovered < m:
        target[uncovered] = r.fraction(1, 3, r.randint(1, 4))
    return columns, target


def test_cover_dual_certificates():
    """On 1,200 random covers the dual returns lam and y that certify the
    builder's value, and None exactly when the builder finds no cover."""
    rng = SplitStream(2026).split("cover-dual")
    seen = {"solved": 0, "none": 0, "no rows": 0, "no columns": 0, "empty column": 0,
            "free column": 0, "zero target": 0, "zero row": 0, "denominator 3": 0}
    for t in range(1200):
        columns, target = _any_cover(rng.split(t))
        found, ref = _solved(columns, target), _cover_by_builder(columns, target)
        assert (found is None) == (ref is None), (columns, target)
        if found is None:
            seen["none"] += 1
            continue
        assert found[0] == ref[0], (columns, target)
        seen["solved"] += 1
        seen["no rows"] += not target
        seen["no columns"] += not columns
        seen["empty column"] += any(not entries for _, entries in columns)
        seen["free column"] += any(c == 0 for c, _ in columns)
        seen["zero target"] += bool(target) and not any(target)
        seen["zero row"] += any(b == 0 for b in target)
        seen["denominator 3"] += any(b.denominator == 3 for b in target)
    assert min(seen.values()) >= 20, seen


def test_cover_fixtures():
    one = Fraction(1)
    # (1, 1) under (1, 1) at cost 1, or under two unit columns at cost 1 each
    columns = [(one, ((0, one), (1, one))), (one, ((0, one),)), (one, ((1, one),))]
    assert _solved(columns, [one, one]) == (1, [1, 0, 0])
    # a cost-0 column covers its row for free
    assert _solved([(Fraction(0), ((0, one),)), (one, ((1, 2),))], [5, 3]) == \
        (Fraction(3, 2), [5, Fraction(3, 2)])
    # a zero target coordinate may lie in no column; a positive one may not
    assert _solved([(one, ((0, one),))], [2, 0]) == (2, [2])
    assert _solved([(one, ((0, one),))], [2, 1]) is None
    # a zero target is covered by lam = 0, and y = 0 certifies it
    assert simplex.cover([(one, ((0, one),))], [0, 0]) == (0, [0], [0, 0])
    # a row scale other than 1: lam reads the slack's entry as it stands
    assert simplex.cover([(Fraction(1, 3), ((0, Fraction(1, 2)),))], [1]) == \
        (Fraction(2, 3), [2], [Fraction(2, 3)])


def test_suites_leave_the_fraction_tableau(monkeypatch):
    """Every program of a seed-42 suite and of the starved seed-7 suite runs
    on the integer pivot: neither calls `solve_standard`."""
    calls = []
    monkeypatch.setattr(simplex, "solve_standard", lambda *args: calls.append(args))
    run_suite(seed=42)
    run_suite(seed=7, triples=6, samples=12, k_max=1, restarts=1)
    assert calls == []
