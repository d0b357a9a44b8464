"""Every keyed aggregation in the library runs on the one keyed exchange,
``ops/keyed.task_exchange``: no module under ``tscan_ray/`` imports
``ray.data.aggregate`` or calls an ``.aggregate(...)`` method.  Two-input
operators pass ``task_exchange`` a tuple of inputs: no module under
``tscan_ray/ops/`` or ``tscan_ray/pipelines/`` calls ``.union(...)`` or
spells a ``"__side__"`` tag column.  The exchange sizes itself to the
cluster: no module passes it a literal bucket count, and only the
flagship, whose bucket count is its sink's partition layout, reads
``EngineConfig.num_key_buckets``."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "tscan_ray"
SIDE_TAG = "__side__"
FLAGSHIP = PKG / "pipelines" / "flagship.py"


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


def _bucket_guesses(tree: ast.AST, reads_config: bool = False) -> list[int]:
    """Lines that pass ``task_exchange`` an int literal bucket count (the
    fourth positional argument or ``num_buckets=``) or, unless
    ``reads_config``, read an attribute named ``num_key_buckets``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "task_exchange" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            counts = node.args[3:4] + [kw.value for kw in node.keywords
                                       if kw.arg == "num_buckets"]
            if any(isinstance(c, ast.Constant) and isinstance(c.value, int)
                   for c in counts):
                lines.append(node.lineno)
        elif (not reads_config and isinstance(node, ast.Attribute)
              and node.attr == "num_key_buckets"):
            lines.append(node.lineno)
    return lines


def test_no_library_module_guesses_a_bucket_count():
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for line in _bucket_guesses(tree, reads_config=path == FLAGSHIP):
            offenders.append(f"{path.relative_to(PKG.parent)}:{line}")
    assert not offenders, "bucket count not derived from the cluster: " + \
        ", ".join(offenders)


def test_guard_detects_bucket_guesses():
    for src in ("task_exchange(ds, 'k', fn, 64)",
                "task_exchange(ds, 'k', fn, num_buckets=32)",
                "keyed.task_exchange((l, r), 'k', fn, 8, batch_format='pyarrow')",
                "n = DEFAULT_CONFIG.num_key_buckets",
                "def f(num_buckets: int = DEFAULT_CONFIG.num_key_buckets): ..."):
        assert _bucket_guesses(ast.parse(src)), src
    for src in ("task_exchange(ds, 'k', fn)",
                "task_exchange(ds, 'k', fn, num_buckets)",
                "task_exchange(ds, 'k', fn, num_buckets=n, batch_format='pyarrow')",
                "resumable_write(ds, out, 'k', num_buckets=64)",
                "num_key_buckets: int = 64"):
        assert not _bucket_guesses(ast.parse(src)), src
    assert not _bucket_guesses(ast.parse("b = cfg.num_key_buckets"),
                               reads_config=True)
