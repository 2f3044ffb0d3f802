#!/usr/bin/env python
"""Internal codebase lint: AST checks for the concurrency-sensitive layers.

Enforced over ``src/repro/engine``, ``src/repro/cache`` and
``src/repro/parallel`` (plus ``src/repro/obs`` where the tracer lives, and
``src/repro/olap``, ``src/repro/batch`` and ``src/repro/algebra``, where
the pushed drill-across/pivot, batch and plan-operator spans open):

* **span discipline** — every ``*.span(...)`` call must be the context
  expression of a ``with`` item, so the span is always closed on the way
  out, even on exceptions.  A bare or assigned ``tracer.span(...)`` opens
  a span that nothing guarantees to close, which corrupts the span stack
  and the Chrome-trace export.
* **lock discipline** — no bare ``.acquire()`` / ``.release()`` on a
  lock-named attribute or variable (``*lock*``).  Locks must be held via
  ``with``, which pairs release with acquisition on every exit path.

Exit status is 1 iff any violation is found (for CI).

Usage::

    python tools/lint_internal.py [paths...]
"""

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = [
    REPO_ROOT / "src" / "repro" / "engine",
    REPO_ROOT / "src" / "repro" / "cache",
    REPO_ROOT / "src" / "repro" / "parallel",
    REPO_ROOT / "src" / "repro" / "obs",
    REPO_ROOT / "src" / "repro" / "olap",
    REPO_ROOT / "src" / "repro" / "batch",
    REPO_ROOT / "src" / "repro" / "algebra",
]


def _is_lock_named(node):
    """Does the expression look like a lock (``self._lock``, ``lock``, ...)?"""
    if isinstance(node, ast.Attribute):
        return "lock" in node.attr.lower()
    if isinstance(node, ast.Name):
        return "lock" in node.id.lower()
    return False


class InternalChecker(ast.NodeVisitor):
    def __init__(self, path):
        self.path = path
        self.findings = []
        self._with_contexts = set()

    def check(self, tree):
        # First pass: remember every call used as a with-item context
        # expression (those are the blessed span/lock call sites).
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    self._with_contexts.add(id(item.context_expr))
        self.visit(tree)
        return self.findings

    def _report(self, node, message):
        self.findings.append((self.path, node.lineno, message))

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "span" and id(node) not in self._with_contexts:
                self._report(
                    node,
                    "span() result must be used as a 'with' context "
                    "expression so the span is always closed",
                )
            if func.attr in ("acquire", "release") and _is_lock_named(func.value):
                self._report(
                    node,
                    f"bare .{func.attr}() on a lock; hold locks with "
                    "'with <lock>:' so release is exception-safe",
                )
        self.generic_visit(node)


def lint_file(path):
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    return InternalChecker(path).check(tree)


def main(argv):
    roots = [Path(arg) for arg in argv] or DEFAULT_PATHS
    files = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        elif root.suffix == ".py":
            files.append(root)
        else:
            print(f"lint-internal: not a python file or directory: {root}",
                  file=sys.stderr)
            return 2
    findings = []
    for path in files:
        findings.extend(lint_file(path))
    for path, line, message in findings:
        try:
            shown = path.relative_to(REPO_ROOT)
        except ValueError:
            shown = path
        print(f"{shown}:{line}: {message}")
    print(
        f"lint-internal: {len(files)} files checked, "
        f"{len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
