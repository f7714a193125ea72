"""The benchmark tracer wraps library functions by name; every name must exist.

A renamed function would otherwise break only the traced benchmark run, so
this loads `perfbench/tracing.py` from its file (executing it, writing
nothing) and resolves each of its targets on the `tensorlattice` modules.
"""

import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def resolve(module_name: str, path: str):
    owner = importlib.import_module(f"tensorlattice.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_every_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module_name, path, _ in tracing.TARGETS:
        assert callable(resolve(module_name, path)), f"{module_name}.{path}"


def test_pivot_counter_target_resolves():
    assert callable(resolve("simplex", "_pivot"))
