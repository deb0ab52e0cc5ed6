"""A pytest plugin that lists the lines of the netregime package no test runs.

pytest loads it only by name, and does not collect it as a test module:

    PYTHONPATH=src:tests python -m pytest -q -p trace_src_lines

It records, by ``sys.settrace`` and ``threading.settrace``, every line that
runs in a frame of a module of the package, and at the end prints each
executable line that never ran, as ``file:line`` and its text.  The
executable lines are those the line tables of the package's compiled
modules name.  The trace starts before the conftest files load and the
package is imported, so its module-level lines count too.  A line that runs only in
a spawned process is not seen.  The trace made the suite take about half as
long again.
"""

import importlib.util
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("netregime").origin).resolve().parent

ran: set = set()          # (file name, line) pairs that ran
_in_package: dict = {}    # file name -> whether it is a module of the package


def _trace_lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    mine = _in_package.get(name)
    if mine is None:
        mine = _in_package[name] = Path(name).resolve().parent == PACKAGE
    if not mine:
        return None
    ran.add((name, frame.f_lineno))
    return _trace_lines


def _code_lines(code: types.CodeType) -> set:
    """Lines that the line tables of ``code`` and its nested code name."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def unrun_lines() -> list:
    """(path, line, text) of each executable package line that never ran."""
    ran_in = {}
    for name, line in ran:
        ran_in.setdefault(Path(name).resolve(), set()).add(line)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_code_lines(compile(source, str(path), "exec"))
                           - ran_in.get(path, set())):
            missed.append((path, line, text[line - 1].strip()))
    return missed


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    missed = unrun_lines()
    terminalreporter.write_sep("-", f"{len(missed)} lines of {PACKAGE.name} no test ran")
    for path, line, text in missed:
        terminalreporter.write_line(f"{path.name}:{line}: {text}")


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)
