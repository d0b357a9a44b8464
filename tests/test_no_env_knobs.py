"""The library has no environment knobs: Ray, OMP and Arrow settings
belong to the caller, and behaviour is set through arguments only."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "tscan_ray"


def _env_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "environb", "getenv", "getenvb"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                a.name in ("environ", "environb", "getenv", "getenvb")
                for a in node.names):
            lines.append(node.lineno)
    return lines


def test_no_module_reads_os_environ():
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        for line in _env_reads(ast.parse(path.read_text(), str(path))):
            offenders.append(f"{path.relative_to(PKG.parent)}:{line}")
    assert not offenders, "environment reads in the library: " + ", ".join(
        offenders)


def test_guard_detects_env_reads():
    for src in ("import os\nx = os.environ.get('A')",
                "import os\nx = os.getenv('A')",
                "from os import environ"):
        assert _env_reads(ast.parse(src)), src
    assert not _env_reads(ast.parse("import os\nx = os.path.join('a')"))
