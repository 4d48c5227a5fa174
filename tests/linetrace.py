"""Opt-in pytest plugin: the statements of ``src/jmf`` that a run never
executes.

    PYTHONPATH=src python -m pytest -p tests.linetrace [--linetrace=FILE]

A ``sys.settrace`` line trace runs over the whole session and, at its
end, FILE (default ``linetrace.txt``) lists each statement of the package
that no line event reached, as ``path:line: source``.  ``def``, ``class``,
imports, ``global`` declarations and docstrings are not listed.  A
statement counts as run when any of its own lines ran: a simple
statement's lines, or a compound statement's header (``if``, ``for``,
``while``, ``with``, ``try``).
Lines that run only in other processes, such as the CLI's workers and
``pytester``'s subprocesses, are listed too.  The traced suite takes
about 1.7 times as long.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jmf"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# declarations, which raise no line event, are not listed either
_SKIPPED = _DEFS + (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)

_ran: set[tuple[str, int]] = set()
_in_package: dict[str, str | None] = {}  # co_filename -> package path


def _package_path(filename: str) -> str | None:
    if filename not in _in_package:
        path = Path(os.path.realpath(filename))
        _in_package[filename] = (str(path) if path.parent == PACKAGE
                                 else None)
    return _in_package[filename]


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if _package_path(frame.f_code.co_filename) else None


def _own_lines(node: ast.stmt) -> range:
    """The lines whose events show that ``node`` ran: all of a simple
    statement's, or a compound statement's header up to its body."""
    if not hasattr(node, "body"):
        return range(node.lineno, node.end_lineno + 1)
    end = node.lineno
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.withitem):
            child = child.context_expr
        if isinstance(child, ast.expr):
            end = max(end, child.end_lineno)
    return range(node.lineno, end + 1)


def _statements(tree: ast.Module):
    """Every statement of ``tree`` that is not a def, class, import,
    declaration or docstring."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, *_DEFS)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
                and node not in docstrings):
            yield node


def never_run() -> list[str]:
    """``path:line: source`` for each statement of the package that no
    line event reached, in file and line order."""
    ran: dict[str, set[int]] = {}
    for filename, line in _ran:
        ran.setdefault(_package_path(filename), set()).add(line)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, seen = source.splitlines(), ran.get(str(path), set())
        missed = {node.lineno for node in _statements(ast.parse(source))
                  if seen.isdisjoint(_own_lines(node))}
        rel = path.relative_to(PACKAGE.parent.parent).as_posix()
        out += [f"{rel}:{n}: {lines[n - 1].strip()}" for n in sorted(missed)]
    return out


def pytest_addoption(parser):
    parser.addoption("--linetrace", default="linetrace.txt", metavar="FILE",
                     help="where tests.linetrace lists the statements of "
                          "src/jmf that the run never executed")


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missed = never_run()
    out = Path(session.config.getoption("linetrace"))
    with out.open("w") as f:
        f.writelines(line + "\n" for line in missed)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"linetrace: {len(missed)} statements of "
                            f"src/jmf never ran, listed in {out}")
