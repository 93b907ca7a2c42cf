"""Opt-in pytest plugin: list the lines of ``src/`` that no test executes.

    PYTHONPATH=src:tests python -m pytest -p linetrace

It uses the standard library only: ``sys.settrace`` (and ``threading.settrace``
for threads) records each line event in a package frame, and at the end of the
session the lines of every compiled code object of the package that never ran
are printed per file as ranges. Code that runs in a subprocess (the CLI
determinism tests, the benchmark's traced runs) is not seen, and tracing makes
the suite up to twice as slow, so the default run does not load this plugin.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

SOURCE = (Path(__file__).resolve().parents[1] / "src").resolve()

_ran: dict[str, set[int]] = {}
_wanted: dict[object, set[int] | None] = {}  # code object -> its file's ran-line set, or None


def _lines_of(code) -> set[int] | None:
    found = _wanted.get(code, False)
    if found is False:
        path = code.co_filename
        found = _ran.setdefault(path, set()) if path.startswith(str(SOURCE)) else None
        _wanted[code] = found
    return found


def _tracer(frame, event, arg):
    """Called on each new frame: a line tracer for the package's frames, none for the rest."""
    ran = _lines_of(frame.f_code)
    if ran is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    return local


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftest files import the package
    threading.settrace(_tracer)
    sys.settrace(_tracer)


def executable_lines(path: Path) -> set[int]:
    """The lines a code object of ``path`` starts an instruction on, def lines to the parent."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()  # a module starts on line 0
                     if line and (line != code.co_firstlineno or code.co_name == "<module>"))
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    report = terminalreporter
    report.section("lines of src/ no test executed (linetrace)")
    total = missed = 0
    for path in sorted(SOURCE.rglob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - _ran.get(str(path), set()))
        total += len(lines)
        missed += len(unrun)
        if unrun:
            report.write_line(f"{path.relative_to(SOURCE)}: {len(unrun)} of {len(lines)}: "
                              f"{ranges(unrun)}")
    report.write_line(f"total: {missed} of {total} lines not executed in this process")
