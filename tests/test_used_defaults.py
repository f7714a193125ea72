"""Every defaulted parameter of the library is passed by some caller outside the tests.

A default that every caller leaves alone is an option nobody uses, and the
library keeps none. This walks every `def` in `src/tensorlattice` and looks,
in `src/` and `perfbench/`, for a call that passes each defaulted parameter
by name or by position. Calls are matched by the called name alone, so a
call of any function of that name counts, and a call with `*args` or
`**kwargs` counts as passing every parameter.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "tensorlattice"
CALLERS = (ROOT / "src", ROOT / "perfbench")


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def bound_methods(tree: ast.Module) -> set:
    """The defs called through an instance or class, whose first parameter no call passes."""
    return {
        id(fn)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    }


def defaulted_parameters():
    """(where, def name, parameter, position in a call or None) per defaulted parameter."""
    for path in sorted(LIBRARY.glob("*.py")):
        tree = parse(path)
        methods = bound_methods(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.relative_to(ROOT)}:{fn.lineno}"
            positional = fn.args.posonlyargs + fn.args.args
            offset = 1 if id(fn) in methods else 0
            for index in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield where, fn.name, positional[index].arg, index - offset
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield where, fn.name, arg.arg, None


def calls_by_name() -> dict:
    found = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    found.setdefault(name, []).append(node)
    return found


def passes(call: ast.Call, parameter: str, position) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_passed_somewhere():
    calls = calls_by_name()
    unused = [
        f"{where} {name}({parameter}=...)"
        for where, name, parameter, position in defaulted_parameters()
        if not any(passes(call, parameter, position) for call in calls.get(name, ()))
    ]
    assert unused == []


def test_the_walk_sees_the_defaults():
    """The check is not vacuous: it finds the known defaults and their callers."""
    found = {(name, parameter) for _, name, parameter, _ in defaulted_parameters()}
    assert {("nbhd_member", "radius"), ("_close", "key"), ("random_element", "lo")} <= found
    calls = calls_by_name()
    assert any(passes(call, "key", 3) for call in calls["_close"])
