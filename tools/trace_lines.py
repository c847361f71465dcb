"""List the statements of src/besselzeta that a run never executes.

    python3 tools/trace_lines.py            # one `verify --suite all`
    python3 tools/trace_lines.py --tests    # the Tier-1 pytest run

coverage is not a dependency, so this traces line events with
``sys.settrace`` (and ``threading.settrace``), installed before the package
is imported, so module-level code counts.  Only frames of the package's
files are line-traced.  A statement counts as executed when any line of it
produces a line event; for a compound statement (``if``, ``for``, ``def``,
an ``except`` clause, ...) only its header lines count.  Statements that
compile to no bytecode, such as docstrings, are never listed.  Lines that
run only in child processes, which a few tests start, are not seen.

Prints, per module, the unexecuted statements as merged line ranges, each
with its first line of source.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "besselzeta"


def statement_spans(path: Path) -> list:
    """(first, last) line of every statement of path that has bytecode.

    For a compound statement the span is its header: decorators through
    the line before its first nested block.
    """
    source = path.read_text()
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        co = stack.pop()
        code_lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [child.lineno for field in ("body", "handlers", "orelse", "finalbody")
                  for child in getattr(node, field, ())]
        last = max(first, min(nested) - 1) if nested else node.end_lineno
        if code_lines.intersection(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def run_traced(tests: bool, files: set) -> tuple:
    """Run verify (or Tier-1) with line tracing; returns (hits, exit code)."""
    hits = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path.insert(0, str(PKG.parent))
    # the tests that start a child process import the package from there too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PKG.parent), os.environ.get("PYTHONPATH"))))
    threading.settrace(outer)
    sys.settrace(outer)
    try:
        if tests:
            import pytest
            rc = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        else:
            from besselzeta.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["verify", "--suite", "all"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import besselzeta
    if Path(besselzeta.__file__).resolve().parent != PKG:
        sys.exit(f"traced {besselzeta.__file__}, not the package under {PKG}")
    return hits, int(rc)


def report(hits: dict) -> None:
    for name in sorted(hits):
        path = Path(name)
        lines = path.read_text().splitlines()
        spans = statement_spans(path)
        missed = [(a, b) for a, b in spans if not hits[name].intersection(range(a, b + 1))]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(spans)} "
              "statements never executed")
        merged = []
        for a, b in missed:
            if merged and a <= merged[-1][1] + 1:
                merged[-1][1] = max(b, merged[-1][1])
            else:
                merged.append([a, b])
        for a, b in merged:
            where = f"{a}" if a == b else f"{a}-{b}"
            print(f"  {where:>9}  {lines[a - 1].strip()}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tests", action="store_true",
                    help="trace the Tier-1 pytest run instead of verify")
    args = ap.parse_args()
    files = {str(p) for p in PKG.glob("*.py")}
    hits, rc = run_traced(args.tests, files)
    print(f"# {'Tier-1 pytest' if args.tests else 'verify --suite all'} exited {rc}")
    report(hits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
