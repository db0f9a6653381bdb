"""List the statements of src/nrsfm that a pytest run never executes.

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this process, with PYTEST_ARGS, under a line tracer
(`sys.settrace` and `threading.settrace`) that records only the lines of
src/nrsfm, then prints each statement whose first line never ran as
`file:line: source`, followed by their count, and exits with pytest's
exit code.  `def` and `class` statements, imports and docstrings are not
listed.  Run it from the repository root with PYTHONPATH=src, as Tier 1
runs, so that the tests that start `python -m nrsfm.cli` find the package.
Only this process is traced: code that a test runs in a subprocess counts
as never run.

The tracer slows the model's inner loops greatly, and acceptance criteria
5-9 only train, so leave them out, e.g.:

    PYTHONPATH=src python3 tools/untested_lines.py -q -p no:cacheprovider \\
        -k "not (criterion_05 or criterion_06 or criterion_07 or criterion_08 or criterion_09)"
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "nrsfm")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def run_traced(args):
    """pytest.main(args) under the line tracer: (exit code, set of
    (absolute file, line) that ran in PACKAGE)."""
    ran, inside = set(), {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(PACKAGE + os.sep)
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.abspath(f), line) for f, line in ran}


def statements(tree):
    """Every statement of a module's AST but def, class, import and
    docstring statements."""
    nodes = list(ast.walk(tree))
    docstrings = {id(n.body[0]) for n in nodes
                  if isinstance(n, (ast.Module, *SKIPPED[:3])) and ast.get_docstring(n) is not None}
    return [n for n in nodes
            if isinstance(n, ast.stmt) and not isinstance(n, SKIPPED) and id(n) not in docstrings]


def main(argv=None):
    code, ran = run_traced(sys.argv[1:] if argv is None else argv)
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        for node in statements(ast.parse(source)):
            if (path, node.lineno) not in ran:
                missed.append((os.path.relpath(path, ROOT), node.lineno,
                               lines[node.lineno - 1].strip()))
    for rel, line, text in sorted(missed, key=lambda m: (m[0], m[1])):
        print(f"{rel}:{line}: {text}")
    print(f"{len(missed)} statements in src/nrsfm never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
