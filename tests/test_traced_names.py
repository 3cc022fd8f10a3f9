"""The benchmark tracer (`perfbench/spans.py`) patches package functions by
name; every name it lists must exist, or `perfbench/run.py --trace 1` fails.

The file is read as text and its `TRACED` table parsed with `ast`, so
nothing under `perfbench/` is imported or run here.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_table() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves():
    table = traced_table()
    assert "linalg" in table and "homology" in table
    for module_name, functions in table.items():
        home = importlib.import_module(f"roncoalg.{module_name}")
        for qualified in functions:
            obj = home
            for part in qualified.split("."):
                assert hasattr(obj, part), f"roncoalg.{module_name}.{qualified} is gone"
                obj = getattr(obj, part)
            assert callable(obj), f"roncoalg.{module_name}.{qualified} is not callable"
