"""Every span that a benchmark workload requires names a callable of jalg.

bench/workloads.py lists, per workload, the spans (`layer.name` or
`layer.Class.attr`) that a traced run must see fire.  A name that no
longer exists would only show after a full traced run; this reads the
lists with `ast` and resolves each name the way the tracer wraps it: a
function defined in jalg.<layer>, or an attribute defined on a class of
that module.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _required_spans() -> list[str]:
    spans = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "spans" for t in node.targets
        ):
            spans += ast.literal_eval(node.value)
    return spans


def _resolves(name: str) -> bool:
    layer, *path = name.split(".")
    module = importlib.import_module(f"jalg.{layer}")
    if len(path) == 1:
        obj = vars(module).get(path[0])
        return callable(obj) and obj.__module__ == module.__name__
    cls_name, attr = path
    cls = vars(module).get(cls_name)
    return isinstance(cls, type) and callable(vars(cls).get(attr))


def test_every_required_span_resolves():
    spans = _required_spans()
    assert len(spans) > 20
    assert [name for name in spans if not _resolves(name)] == []
