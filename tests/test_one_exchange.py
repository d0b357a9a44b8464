"""Every keyed aggregation in the library runs on the one keyed exchange,
``ops/keyed.task_exchange``: no module under ``tscan_ray/`` imports
``ray.data.aggregate`` or calls an ``.aggregate(...)`` method.  Two-input
operators pass ``task_exchange`` a tuple of inputs: no module under
``tscan_ray/ops/`` or ``tscan_ray/pipelines/`` calls ``.union(...)`` or
spells a ``"__side__"`` tag column."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "tscan_ray"
SIDE_TAG = "__side__"


def _aggregate_uses(tree: ast.AST) -> list[int]:
    """Lines that import ``ray.data.aggregate`` (in any form) or call a
    method named ``aggregate``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("ray.data.aggregate") for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("ray.data.aggregate") or (
                    node.module == "ray.data"
                    and any(a.name == "aggregate" for a in node.names)):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "aggregate"):
            lines.append(node.lineno)
    return lines


def test_no_library_module_aggregates_outside_the_exchange():
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        for line in _aggregate_uses(ast.parse(path.read_text(), str(path))):
            offenders.append(f"{path.relative_to(PKG.parent)}:{line}")
    assert not offenders, "aggregate outside task_exchange: " + \
        ", ".join(offenders)


def test_guard_detects_aggregate_uses():
    for src in ("import ray.data.aggregate as agg",
                "import ray.data.aggregate",
                "from ray.data.aggregate import Min",
                "from ray.data import aggregate",
                "ds.groupby('k').aggregate(Count())",
                "t = f(x).group_by('k')\\\n    .aggregate([('v', 'sum')])"):
        assert _aggregate_uses(ast.parse(src)), src
    for src in ("import ray.data",
                "from ray.data import from_arrow",
                "df.groupby('k').agg('min')",
                "aggregate(rows)",
                "ds.sum('changed')"):
        assert not _aggregate_uses(ast.parse(src)), src


def _union_uses(tree: ast.AST) -> list[int]:
    """Lines that call a method named ``union`` or hold a string literal
    containing the ``__side__`` tag column name."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "union"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and SIDE_TAG in node.value):
            lines.append(node.lineno)
    return lines


def test_no_operator_unions_tagged_sides():
    offenders = []
    for sub in ("ops", "pipelines"):
        for path in sorted((PKG / sub).rglob("*.py")):
            for line in _union_uses(ast.parse(path.read_text(), str(path))):
                offenders.append(f"{path.relative_to(PKG.parent)}:{line}")
    assert not offenders, "side-tagged union instead of a two-input " \
        "task_exchange: " + ", ".join(offenders)


def test_guard_detects_union_uses():
    for src in ("both = l.union(r)",
                "a.map_batches(f)\\\n    .union(b.map_batches(g))",
                "_SIDE = '__side__'",
                "t.column(\"__side__\")",
                "cols = f'{p}__side__'"):
        assert _union_uses(ast.parse(src)), src
    for src in ("task_exchange((left, right), 'k', fn, 8)",
                "union = sa.size + sb.size - inter",
                "unionize(a, b)",
                "side = '__slot__'"):
        assert not _union_uses(ast.parse(src)), src
