"""Exact linear programming over the rationals, with no floating point.

Three solvers pick every pivot by one rule, `_bland_choice` (Bland 1977), so
every pivot sequence, hence every returned basic solution, is deterministic.
The library's programs are small (tens of rows and columns) and have three
shapes:

* `feasible`: bare hull membership, Ax = b, x >= 0 on integer rows, by
  phase 1; every ``Conv`` and ``Conv_b`` query that its generators' box
  neither rejects nor settles on a line.
* `cover`: min c.lam s.t. R lam >= t, lam >= 0, all nonnegative, through
  its packing dual max t.y s.t. R^T y <= c, y >= 0: a seminorm's value on
  overlapping rays and the half-steps of alternating minimization.
* `hulls._box_program`: convex-solid membership and gauges, with split
  variables and a mass row, through `LinearProgram` and `solve_standard`,
  the two-phase simplex on a dense Fraction tableau (each row updated only
  over the nonzero columns of the pivot row).

`feasible` and `cover` share one fraction-free integer pivot, `_bland_step`.
`feasible` and `solve_standard` share one phase-1 start and stop, and no
tableau stores an artificial column.
Box programs are covers too, over the boxes |g_k| at cost 1: on perfbench
hull-lp's seed-42 queries (2-core shared machine) a cover answered 504
convex-solid members in 0.24-0.34 s against 2.0-2.8 s and 126 gauges in
0.11-0.15 s against 1.25-1.90 s, every answer identical. They wait for the
benchmark's peak memory to stop growing with the answers (ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .jsonio import as_fraction


class InfeasibleLP(Exception):
    pass


class UnboundedLP(Exception):
    pass


def _pivot(tableau, obj, basis, row, col):
    pivot_row = tableau[row]
    piv = pivot_row[col]
    support = [j for j, v in enumerate(pivot_row) if v]
    if piv != 1:
        for j in support:
            pivot_row[j] /= piv
    # A zero of the pivot row leaves its column unchanged in every other row.
    entries = [(j, pivot_row[j]) for j in support]
    for r in [*tableau, obj]:
        f = r[col]
        if f and r is not pivot_row:
            for j, b in entries:
                r[j] -= f * b
    basis[row] = col


def _bland_choice(tableau, obj, basis, ncols):
    """Bland's rule: the (row, col) of the next pivot, or None at optimality.

    The first of the `ncols` columns with a negative objective entry enters;
    the least ratio `r[-1] / r[enter]` (cross-multiplied, the smaller basic
    index on ties) leaves, and `UnboundedLP` is raised when no row limits the
    column. Each ratio is read within its own row, so the rule picks the
    same pivot on `Fraction` rows and on integer rows with positive scales.
    """
    enter = next((j for j in range(ncols) if obj[j] < 0), None)
    if enter is None:
        return None
    leave = None
    for i, r in enumerate(tableau):
        c = r[enter]
        if c > 0:
            # r[-1] / c against the least ratio so far, cross-multiplied.
            diff = r[-1] * best[1] - best[0] * c if leave is not None else -1
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave, best = i, (r[-1], c)
    if leave is None:
        raise UnboundedLP(f"column {enter} improves without bound")
    return leave, enter


def _run(tableau, obj, basis, ncols):
    """Pivot the `Fraction` tableau to optimality by `_bland_choice`."""
    while (choice := _bland_choice(tableau, obj, basis, ncols)) is not None:
        _pivot(tableau, obj, basis, *choice)


def _bland_step(tableau, obj, basis, ncols, d):
    """One `_bland_choice` pivot of the integer tableau: the new `d`, or None at optimality.

    The rows and `obj` are integers over `d`, the last pivot: a pivot on `p`
    replaces each other row `a` by `(p*a - f*b) // d`, `b` the pivot row and
    `f` the entry of `a` in the entering column. Every entry is a minor of
    the starting tableau, so the division is exact (Edmonds 1967, Bareiss
    1968). A row not yet pivoted on may also carry its own positive scale,
    which no ratio within it sees, so Bland's rule picks as on the rational
    tableau and cannot cycle.
    """
    choice = _bland_choice(tableau, obj, basis, ncols)
    if choice is None:
        return None
    leave, enter = choice
    pivot_row = tableau[leave]
    p = pivot_row[enter]
    for r in [*tableau, obj]:
        if r is pivot_row:
            continue
        f = r[enter]
        if f:
            r[:] = [(p * a - f * b) // d for a, b in zip(r, pivot_row)]
        elif p != d:
            r[:] = [p * a // d for a in r]
    basis[leave] = enter
    return p


def feasible(rows, rhs) -> bool:
    """Whether {x >= 0 : rows.x == rhs} is nonempty, by phase 1 on `_bland_step`.

    The rows and the right-hand side are integers; a caller scales a
    rational program row by row. Phase 1 starts and stops as in
    `solve_standard`: a row is negated when its rhs is negative, one
    artificial per row starts the basis, but its column is never stored
    (`basis` holds the indices n..n+m-1 only for Bland's tie-break), the
    objective is minus the sum of the rows, and phase 1 stops at mass 0.

    Only real columns enter, and the answer is still exact. Each column of
    the tableau is computed on its own, so dropping the artificial ones
    changes no other entry. An artificial column that has left the basis is
    never needed again: if no real column can enter while mass is left, the
    current basis is optimal for phase 1 with the departed artificials
    fixed at 0, a program that every solution of Ax = b, x >= 0 solves with
    mass 0, so there is none. Bland's rule cannot cycle on the restricted
    program either.
    """
    tableau = [[*row, b] if b >= 0 else [-a for a in row] + [-b] for row, b in zip(rows, rhs)]
    if not tableau:
        return True
    n = len(tableau[0]) - 1
    basis = list(range(n, n + len(tableau)))
    # Phase 1 minimizes the artificial mass; its value is -obj[-1] / d, which
    # is bounded below by 0, so some row limits every entering column.
    obj = [-sum(column) for column in zip(*tableau)]
    d = 1
    while obj[-1]:
        d = _bland_step(tableau, obj, basis, n, d)
        if d is None:
            return False
    return True


def solve_standard(rows, rhs, costs):
    """Minimize costs.x subject to rows.x == rhs, x >= 0. Returns (value, x).

    Two phases on a `Fraction` tableau, pivoting by `_bland_choice`; phase 1
    is `feasible`'s and stores no artificial column.
    """
    n = len(costs)
    tableau = []
    for row, b in zip(rows, rhs):
        row = [as_fraction(a) for a in row]
        b = as_fraction(b)
        tableau.append(row + [b] if b >= 0 else [-a for a in row] + [-b])
    basis = list(range(n, n + len(tableau)))

    # Phase 1: minimize the artificial mass, -obj[-1].
    obj = [-sum(column) for column in zip(*tableau)] if tableau else [Fraction(0)] * (n + 1)
    while obj[-1]:
        choice = _bland_choice(tableau, obj, basis, n)
        if choice is None:
            raise InfeasibleLP(f"artificial mass {-obj[-1]} at phase-1 optimum")
        _pivot(tableau, obj, basis, *choice)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(len(tableau)):
        if basis[i] < n:
            keep.append(i)
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is not None:
            _pivot(tableau, obj, basis, i, col)
            keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 with the real costs.
    obj = [as_fraction(c) for c in costs] + [Fraction(0)]
    for i, r in enumerate(tableau):
        f = obj[basis[i]]
        if f != 0:
            obj = [a - f * b for a, b in zip(obj, r)]
    _run(tableau, obj, basis, n)

    solution = [Fraction(0)] * n
    for i, r in enumerate(tableau):
        solution[basis[i]] = r[-1]
    return -obj[-1], solution


def cover(columns, target):
    """min sum_k c_k lam_k s.t. sum_k lam_k a_k >= target, lam >= 0: (value, lam, y).

    Column k is (c_k, ((row, a_k[row]), ...)), all of it and the target
    nonnegative. `_bland_step` solves the packing dual, max target.y s.t.
    a_k.y <= c_k, y >= 0, from y = 0 with no phase 1: row k is a_k.y + s_k =
    c_k times the lcm of its denominators (s_k's entry is that scale), the
    slacks start the basis, and the objective is -target times the lcm `ts`
    of its denominators. At the optimum lam_k is the objective entry under
    s_k and the value its last one, over d * ts, and y the basic values, so
    target.y == value == c.lam. None exactly when the dual is unbounded,
    that is when no lam covers the target.
    """
    n, m = len(columns), len(target)
    tableau = []
    for k, (c, entries) in enumerate(columns):
        scale = lcm(c.denominator, *(a.denominator for _, a in entries))
        row = [0] * (m + n + 1)
        for i, a in entries:
            row[i] = a.numerator * (scale // a.denominator)
        row[m + k] = scale
        row[-1] = c.numerator * (scale // c.denominator)
        tableau.append(row)
    ts = lcm(*(b.denominator for b in target))
    obj = [-b.numerator * (ts // b.denominator) for b in target] + [0] * (n + 1)
    basis = list(range(m, m + n))
    d = 1
    try:
        while (step := _bland_step(tableau, obj, basis, m + n, d)) is not None:
            d = step
    except UnboundedLP:
        return None
    basic = {i: r[-1] for i, r in zip(basis, tableau)}
    return (Fraction(obj[-1], d * ts), [Fraction(obj[m + k], d * ts) for k in range(n)],
            [Fraction(basic.get(i, 0), d) for i in range(m)])


class LinearProgram:
    """Incremental builder: variables, <=/>=/== rows, exact minimize."""

    def __init__(self):
        self._costs = []
        self._rows = []

    def var(self, cost=0) -> int:
        """A new variable x >= 0 with the given cost; returns its index."""
        self._costs.append(as_fraction(cost))
        return len(self._costs) - 1

    def add(self, coeffs: dict, sense: str, rhs):
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        self._rows.append(({v: as_fraction(a) for v, a in coeffs.items()}, sense, as_fraction(rhs)))

    def minimize(self):
        """Returns (value, assignment) or raises InfeasibleLP / UnboundedLP."""
        nvars = len(self._costs)
        slack_of_row = [{"==": 0, "<=": 1, ">=": -1}[sense] for _, sense, _ in self._rows]
        ncols = nvars + sum(1 for slack in slack_of_row if slack)

        rows, rhs = [], []
        slack_col = nvars
        for (coeffs, _, b), slack in zip(self._rows, slack_of_row):
            row = [Fraction(0)] * ncols
            for v, a in coeffs.items():
                row[v] = a
            if slack:
                row[slack_col] = Fraction(slack)
                slack_col += 1
            rows.append(row)
            rhs.append(b)

        costs = self._costs + [Fraction(0)] * (ncols - nvars)
        value, x = solve_standard(rows, rhs, costs)
        return value, x[:nvars]

    def feasible(self) -> bool:
        saved = self._costs
        try:
            self._costs = [Fraction(0)] * len(saved)
            self.minimize()
            return True
        except InfeasibleLP:
            return False
        finally:
            self._costs = saved
