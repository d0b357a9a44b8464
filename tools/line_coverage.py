"""Line coverage of chosen source files under chosen tests, from a
``sys.settrace`` line counter (no coverage package needed).

    python3 tools/line_coverage.py tscan_ray/ops/window.py \\
        tscan_ray/text/kernels.py -- tests/test_rolling_text.py -q

Everything after ``--`` goes to ``pytest.main`` in this process.  For each
file it prints the executed share of its executable lines (lines that
carry bytecode), the same share for each top-level function, and the
line numbers that never ran.  Only the pytest process is traced: code
that runs inside Ray worker processes counts as not executed.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def executable_lines(path: str) -> set[int]:
    """Line numbers that carry bytecode in ``path``'s module and every
    code object nested in it."""
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(ln for _, _, ln in co.co_lines() if ln is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def functions(path: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level def and method."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    out = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = node.name + "." if isinstance(node, ast.ClassDef) else ""
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + fn.name, fn.lineno, fn.end_lineno))
    return out


def trace_lines(paths: list[str], run) -> dict[str, set[int]]:
    """Run ``run()`` with a line tracer on; the lines it executed in
    each of ``paths``."""
    hits: dict[str, set[int]] = {p: set() for p in paths}
    # co_filename -> its hit set, or None for a file not asked for
    seen: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = hits.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def _ranges(lines: list[int]) -> str:
    out, i = [], 0
    while i < len(lines):
        j = i
        while j + 1 < len(lines) and lines[j + 1] == lines[j] + 1:
            j += 1
        out.append(str(lines[i]) if i == j else f"{lines[i]}-{lines[j]}")
        i = j + 1
    return ", ".join(out)


def report(path: str, executed: set[int]) -> list[str]:
    exe = executable_lines(path)
    ran = exe & executed
    rows = [f"{path}: {len(ran)}/{len(exe)} lines "
            f"({100.0 * len(ran) / max(len(exe), 1):.1f} %)"]
    for name, lo, hi in functions(path):
        body = {ln for ln in exe if lo <= ln <= hi}
        if body:
            rows.append(f"  {name}: {len(body & ran)}/{len(body)}")
    missed = sorted(exe - ran)
    rows.append("  not executed: " + (_ranges(missed) or "none"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    p = argparse.ArgumentParser(prog="tools/line_coverage.py")
    p.add_argument("files", nargs="+")
    args = p.parse_args(argv[:split])
    paths = [os.path.realpath(f) for f in args.files]

    import pytest

    status = []
    hits = trace_lines(paths, lambda: status.append(
        pytest.main(argv[split + 1:])))
    for path in paths:
        print("\n".join(report(os.path.relpath(path), hits[path])))
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
