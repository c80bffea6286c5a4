"""A line gate for ``src/oneclean``, built on the standard library's tracer.

Run the whole suite with it:

    PYTHONPATH=src python -m pytest -q -p tests.line_gate

It records every line that runs in a frame whose file is under
``src/oneclean/``, and at the end fails the session when an executable
line was never reached and is not listed in ``tests/unreached.txt``. It
also fails when a listed line is reached, so the list can only shrink.

An entry of the list is one line, ``<module>.py<TAB><stripped source
text><TAB><reason>``; blank lines and lines starting with ``#`` are
comments. Entries are keyed by source text, not by line number, so an
edit elsewhere in a module leaves them valid. A source text that is
unreached at k places needs k entries.

CLI runs in a child process are not traced: a test reaches a CLI line
through ``cli.main`` in the test's own process.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oneclean"
LISTED = Path(__file__).with_name("unreached.txt")

_hits: dict[str, set[int]] = {}  # resolved file name -> lines run, for the files under SRC
_tracers: dict = {}  # file name -> its line tracer, or None for a file outside SRC
_report: list[str] = []


def _line_tracer(name: str):
    lines = _hits.setdefault(str(Path(name).resolve()), set())

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _tracers:
        _tracers[name] = _line_tracer(name) if Path(name).resolve().is_relative_to(SRC) else None
    return _tracers[name]


def _arm():
    # Hypothesis replaces the trace function while it runs, so this runs before each test's setup and call
    sys.settrace(_trace)
    threading.settrace(_trace)


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that carry bytecode, from its compiled code objects."""
    found, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def read_listed(path: Path = LISTED) -> Counter:
    """The listed (module, source text) keys, each as often as it is listed."""
    listed = Counter()
    for n, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3 or not all(f.strip() for f in fields):
            raise ValueError(f"{path.name}:{n}: expected <module>.py<TAB><source><TAB><reason>")
        listed[fields[0], fields[1].strip()] += 1
    return listed


def unreached(hits: dict[str, set[int]]) -> dict[tuple[str, str], list[int]]:
    """Each unreached (module, source text) key with its line numbers."""
    keys: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        ran = hits.get(str(path), set())
        for n in sorted(executable_lines(path) - ran):
            keys.setdefault((path.name, text[n - 1].strip()), []).append(n)
    return keys


def gate(hits: dict[str, set[int]], listed: Counter) -> list[str]:
    """The gate's complaints: unlisted unreached lines, then listed lines that ran."""
    missed = unreached(hits)
    out = []
    for (module, source), lines in missed.items():
        for n in lines[listed[module, source]:]:
            out.append(f"unreached and not listed: {module}:{n}: {source}")
    for (module, source), count in listed.items():
        for _ in range(count - len(missed.get((module, source), []))):
            out.append(f"listed but reached: {module}: {source}")
    return out


def pytest_configure(config):
    # armed before collection, so the lines run when a test module imports oneclean count
    _arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    _arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    _arm()


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _report[:] = gate(_hits, read_listed())
    if _report and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line gate")
    if _report:
        for complaint in _report:
            terminalreporter.write_line(complaint)
    else:
        terminalreporter.write_line(f"every executable line under {SRC.name}/ ran, or is listed")
