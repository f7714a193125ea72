from fractions import Fraction

import pytest

from tensorlattice.rng import SplitStream
from tensorlattice.simplex import (
    InfeasibleLP,
    LinearProgram,
    UnboundedLP,
    solve_standard,
)


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
