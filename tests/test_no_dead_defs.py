"""Every top-level function, class and module constant in the library
has a user: a definition that no code, tool, benchmark or test names is
dead code.
Likewise every ``EngineConfig`` field is read somewhere: a field nothing
reads is an option that silently does nothing."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
OTHER_DIRS = ("tools", "perfbench", "tests")
OTHER_FILES = ("__ray_entry__.py", "bench.py")
WORD = re.compile(r"\w+")
# code that may read a config field: the library, its tools, the
# benchmark and the entry points (a test reading a field is no user)
CONFIG_READERS = ("tscan_ray", "tools", "perfbench")


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the plain
    names an assignment binds (``X = ...``, ``X: T = ...``)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _dead_defs(pkg: dict[str, str], others: list[str]) -> list[str]:
    """Top-level def/class/constant names in ``pkg`` (path -> source)
    that appear, as a whole word, nowhere outside their own definition
    in ``pkg`` or ``others``."""
    words = Counter()
    for src in [*pkg.values(), *others]:
        words.update(WORD.findall(src))
    dead = []
    for path, src in pkg.items():
        lines = src.splitlines()
        for node in ast.parse(src, path).body:
            own = WORD.findall("\n".join(
                lines[node.lineno - 1:node.end_lineno]))
            dead += [f"{path}:{node.lineno} {name}"
                     for name in _defined_names(node)
                     if words[name] == own.count(name)]
    return dead


def test_no_unreferenced_top_level_defs():
    pkg = {str(p.relative_to(ROOT)): p.read_text()
           for p in sorted((ROOT / "tscan_ray").rglob("*.py"))}
    others = [p.read_text() for d in OTHER_DIRS
              for p in sorted((ROOT / d).rglob("*.py"))]
    others += [(ROOT / f).read_text() for f in OTHER_FILES]
    dead = _dead_defs(pkg, others)
    assert not dead, "unreferenced definitions: " + ", ".join(dead)


def test_guard_detects_dead_defs():
    pkg = {"m.py": ("def used():\n    pass\n\n\n"
                    "def unused(n):\n    return unused(n - 1)\n\n\n"
                    "class Kept:\n    pass\n\n\n"
                    "class Dropped:\n    pass\n\n\n"
                    "READ = 1\n"
                    "UNREAD = (READ,\n          2)\n"
                    "_LIMIT: int = 3\n"
                    "A = B = 4\n"
                    "x, y = 5, 6\n")}
    others = ["from m import used, A\n# Kept is named in a comment\n",
              "Dropped_v2 = used_more = 1\n"]
    assert _dead_defs(pkg, others) == [
        "m.py:5 unused", "m.py:13 Dropped", "m.py:18 UNREAD",
        "m.py:20 _LIMIT", "m.py:21 B"]
    assert _dead_defs(pkg, others + ["Dropped(); unused(3)",
                                     "UNREAD, _LIMIT, B"]) == []


def _unread_fields(config_src: str, others: list[str]) -> list[str]:
    """``EngineConfig`` fields and properties in ``config_src`` that no
    source in ``others`` reads as an attribute (``.name``)."""
    cls = next(n for n in ast.parse(config_src).body
               if isinstance(n, ast.ClassDef) and n.name == "EngineConfig")
    fields = [n.target.id if isinstance(n, ast.AnnAssign) else n.name
              for n in cls.body
              if isinstance(n, (ast.AnnAssign, ast.FunctionDef))]
    read = set()
    for src in others:
        read.update(re.findall(r"\.(\w+)", src))
    return [f for f in fields if f not in read]


def test_every_config_field_is_read():
    config = ROOT / "tscan_ray" / "config.py"
    others = [p.read_text() for d in CONFIG_READERS
              for p in sorted((ROOT / d).rglob("*.py")) if p != config]
    others += [(ROOT / f).read_text() for f in OTHER_FILES]
    unread = _unread_fields(config.read_text(), others)
    assert not unread, "EngineConfig fields nothing reads: " + ", ".join(unread)


def test_guard_detects_unread_fields():
    src = ("@dataclass(frozen=True)\n"
           "class EngineConfig:\n"
           "    used: int = 1\n"
           "    unused: float = 0.5\n"
           "    extra: dict = field(default_factory=dict)\n\n"
           "    @property\n"
           "    def derived(self) -> int:\n"
           "        return self.used * 2\n")
    others = ["n = cfg.used\n# extra and derived named only in a comment\n",
              "unused = 3\n"]
    assert _unread_fields(src, others) == ["unused", "extra", "derived"]
    assert _unread_fields(src, others + ["c.unused + c.extra + c.derived"]) == []
