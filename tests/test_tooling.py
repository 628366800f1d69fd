"""Names that outside tooling relies on still exist in the package."""

import ast
import importlib
from pathlib import Path

import ripstone

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_functions() -> dict:
    """The TRACED table of the benchmark tracer, read from its source without running it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_public_names_and_traced_functions_resolve():
    # The tracer skips a function that is gone, so a per-layer metric would
    # vanish without an error; check every traced name here instead.
    missing = [name for name in ripstone.__all__ if not hasattr(ripstone, name)]
    for module, names in _traced_functions().items():
        mod = importlib.import_module(f"ripstone.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(mod, name, None))]
    assert missing == []
