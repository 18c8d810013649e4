"""List every statement under ``src/snapgrip`` that the Tier-1 suite never runs.

Usage, from the root of a checkout:

    python3 scripts/line_trace.py

The script installs a ``sys.settrace`` line tracer before ``snapgrip`` is
imported, then runs the Tier-1 command in this process (``pytest.main``
with ``-q --continue-on-collection-errors``, the checkout's root and
``src`` first on ``sys.path``).  Tests that start a child interpreter are
not traced.  Afterwards it compiles each module of ``src/snapgrip`` and
walks its code objects: every line that ``co_lines()`` gives a function or
class body belongs to the innermost statement around it, and a statement
is reached when one of its lines ran.  Module-level code runs at import
and is not counted.

Each unreached statement is printed as ``file:line function``.  The script
exits 1 if there is any, with the suite's own exit code if the suite
failed, and 0 otherwise.  Only the standard library and pytest are used.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snapgrip"
PREFIX = str(PACKAGE) + os.sep

executed = {}  # file name -> set of executed line numbers


def _trace_lines(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    executed.setdefault(filename, set())
    return _trace_lines


def _statement_starts(tree):
    """Map each line of a statement to the line the statement starts on,
    the innermost statement winning."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                if owner.get(line, 0) < node.lineno:
                    owner[line] = node.lineno
    return owner


def _body_codes(code):
    """Yield every function and class body code object nested in ``code``."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield const
            yield from _body_codes(const)


def unreached(path):
    """Return ``(line, function)`` for each statement of a function or
    class body in ``path`` that no traced call ran."""
    source = path.read_text()
    owner = _statement_starts(ast.parse(source))
    ran = executed.get(str(path), set())
    lines_of = {}  # statement start -> (function name, its code lines)
    for code in _body_codes(compile(source, str(path), "exec")):
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line is not None and line in owner:
                lines_of.setdefault(owner[line], (name, set()))[1].add(line)
    return sorted((start, name) for start, (name, lines) in lines_of.items()
                  if not lines & ran)


def main():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    os.chdir(ROOT)
    sys.settrace(_trace_calls)
    try:
        import pytest
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    missing = [(path.name, line, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for line, name in unreached(path)]
    for filename, line, name in missing:
        print(f"{filename}:{line} {name}")
    print(f"{len(missing)} unreached statement(s)")
    if status != 0:
        return int(status)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
