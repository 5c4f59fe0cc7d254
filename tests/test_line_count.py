"""The library's size stays within the budget ROADMAP.md tracks."""

from pathlib import Path

from conftest import SRC

LINE_BUDGET = 3406  # `wc -l src/kgrec/*.py` once each text reader had one route


def test_library_stays_within_the_line_budget():
    modules = sorted((Path(SRC) / "kgrec").glob("*.py"))
    assert len(modules) > 5
    lines = sum(p.read_bytes().count(b"\n") for p in modules)  # as `wc -l` counts
    assert lines <= LINE_BUDGET, f"src/kgrec/*.py has {lines} lines, over the budget of {LINE_BUDGET}"
