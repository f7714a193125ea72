"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule on a dense Fraction tableau. No
floating point anywhere: feasibility answers and optima are exact, and with
the fixed variable order the pivot sequence (hence the returned basic
solution) is fully deterministic. Problem sizes here are small (tens of rows
and columns), which is exactly the regime where a dense rational tableau is
the simplest correct tool. The tableaux of the hull programs are mostly
zeros, so a pivot updates each row only over the nonzero columns of the
pivot row; the arithmetic, and so every pivot, is that of the dense update.

`solve_standard` handles min c.x s.t. Ax = b, x >= 0. `LinearProgram` is a
small builder on top: nonnegative variables, <=/>=/== rows turned into
equalities with one slack column each, and the answer read back per variable.

`feasible` answers only whether Ax = b, x >= 0 has a solution, by phase 1 on
an integer tableau with exact-division (fraction-free) pivots. It creates no
Fraction, and Fraction arithmetic is where the rational tableau spends its
time. The programs take these paths:

* `feasible`: bare hull membership (`hulls._sum_hull_member`: every
  ``Conv`` and ``Conv_b`` query, and 1,403 of the 1,483 programs of a
  seed-42 suite);
* `LinearProgram` on the Fraction tableau: convex-solid membership and
  gauges (`hulls._box_program`, with split variables and a mass row), the
  covering LP of a seminorm whose rays do not partition its coordinates
  (`RieszSeminorm._cover`: one column per ray, one row per nonzero
  coordinate), and the half-steps of alternating minimization;
* no LP: the value of a seminorm whose rays partition, and the dual, the
  closed form and the structural candidates of a certificate, which are
  integer arithmetic on the element numerators.

`hulls.gauge` could be the covering LP over the boxes |g_k| as well. Routed
that way, perfbench's hull-lp gauges ran 8x faster and the workload 1.4-1.6x
faster, but its peak memory rose from 34.3-35.0 MB to 37.1-38.8 MB, past
that metric's 10 % bound, because the benchmark keeps every answer of the
timed phase and a faster library answers more (ROADMAP item 1). So
`hulls.gauge` and `_box_program` stay as they are until that is fixed; then
the remaining programs move to the integer tableau and the Fraction pivot
goes.
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


def _run(tableau, obj, basis, ncols):
    """Pivot to optimality (Bland's rule: smallest eligible indices)."""
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i, r in enumerate(tableau):
            coeff = r[enter]
            if coeff > 0:
                ratio = r[-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedLP(f"column {enter} improves without bound")
        _pivot(tableau, obj, basis, leave, enter)


def feasible(rows, rhs) -> bool:
    """Whether {x >= 0 : rows.x == rhs} is nonempty, by phase 1 on an integer tableau.

    Entries are ints or Fractions. Each row is scaled by the lcm of its
    denominators and negated when its rhs is negative; one artificial column
    per row starts the basis. The tableau holds integers and `d`, the last
    pivot (the determinant of the basis), divides every one of them into the
    rational tableau. A pivot on `p` replaces each other row `a`, the
    objective row included, by `(p*a - f*b) // d`, where `b` is the pivot
    row and `f` the row's entry in the entering column; the division is exact
    (Edmonds 1967, Bareiss 1968). Signs and ratio orders are those of the
    rational tableau of the scaled rows, so Bland's rule picks as it would
    there; phase 1 stops once the artificial mass is 0.
    """
    m = len(rows)
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        scale = lcm(b.denominator, *(a.denominator for a in row))
        ints = [a.numerator * (scale // a.denominator) for a in row]
        b = b.numerator * (scale // b.denominator)
        if b < 0:
            ints = [-a for a in ints]
            b = -b
        artificial = [0] * m
        artificial[i] = 1
        tableau.append(ints + artificial + [b])
    if not tableau:
        return True
    ncols = len(tableau[0]) - 1
    basis = list(range(ncols - m, ncols))
    # Phase 1 minimizes the artificial mass; its value is -obj[-1] / d.
    obj = [-sum(column) for column in zip(*tableau)]
    obj[ncols - m:ncols] = [0] * m
    d = 1
    while obj[-1]:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return False
        # The phase-1 value is bounded below by 0, so some row limits `enter`.
        leave = None
        for i, r in enumerate(tableau):
            c = r[enter]
            if c > 0:
                # r[-1] / c against the least ratio so far, cross-multiplied.
                diff = r[-1] * best[1] - best[0] * c if leave is not None else -1
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave, best = i, (r[-1], c)
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
        d = p
    return True


def solve_standard(rows, rhs, costs):
    """Minimize costs.x subject to rows.x == rhs, x >= 0. Returns (value, x)."""
    m, n = len(rows), len(costs)
    tableau = []
    for row, b in zip(rows, rhs):
        row = [as_fraction(a) for a in row]
        b = as_fraction(b)
        if b < 0:
            row = [-a for a in row]
            b = -b
        tableau.append(row + [Fraction(0)] * m + [b])
    for i in range(m):
        tableau[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]

    # Phase 1: minimize the artificial mass.
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        obj = [a - b for a, b in zip(obj, tableau[i])]
    for i in range(m):
        obj[n + i] = Fraction(0)
    _run(tableau, obj, basis, n + m)
    if -obj[-1] != 0:
        raise InfeasibleLP(f"artificial mass {-obj[-1]} at phase-1 optimum")

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
    tableau = [[*tableau[i][:n], tableau[i][-1]] for i in keep]
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
