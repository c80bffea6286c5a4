"""Conventions of the source tree that hold for every module."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_source_line_is_over_110_characters():
    long = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted(SRC.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > 110
    ]
    assert long == []
