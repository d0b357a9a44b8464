"""Every library map stage runs as Ray Data tasks (``stages.map_stage``):
no ``map_batches`` call in the library starts or sizes an actor pool."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "tscan_ray"
POOL_ARGS = ("concurrency", "compute", "fn_constructor_kwargs")


def _pool_calls(tree: ast.AST) -> list[int]:
    """Lines of ``map_batches(...)`` calls passing an actor-pool argument."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_batches"
            and any(k.arg in POOL_ARGS for k in node.keywords)]


def test_no_map_batches_starts_an_actor_pool():
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        for line in _pool_calls(ast.parse(path.read_text(), str(path))):
            offenders.append(f"{path.relative_to(PKG.parent)}:{line}")
    assert not offenders, "actor-pool map_batches in the library: " + \
        ", ".join(offenders)


def test_guard_detects_pool_arguments():
    for src in ("ds.map_batches(C, concurrency=2)",
                "ds.map_batches(C, compute=ActorPoolStrategy(size=2))",
                "ds.map_batches(C, fn_constructor_kwargs={'a': 1})",
                "x = f(ds).map_batches(\n    C, batch_size=8, concurrency=(1, 4))"):
        assert _pool_calls(ast.parse(src)), src
    for src in ("ds.map_batches(fn, fn_kwargs={'a': 1}, batch_size=8)",
                "pool.map(fn, concurrency=2)"):
        assert not _pool_calls(ast.parse(src)), src
