"""CHANGES.md stays a log: each entry, from the first one written under the
bound on, is at most ``LIMIT`` characters.  What changed and every test,
check or CI edit fit in that; the detail lives in the commit messages."""

import pathlib
import re

CHANGES = pathlib.Path(__file__).parent.parent / "CHANGES.md"
LIMIT = 1500
#: the number of the first entry written under the bound
BOUNDED_FROM = 46


def _bounded_entries(text: str):
    """Every non-blank line from entry ``BOUNDED_FROM`` on: the entries and
    the ``FOUND:`` / ``MENDED:`` lines that follow them."""
    lines = text.splitlines()
    start = next(index for index, line in enumerate(lines)
                 if re.match(rf"- \*\*PR {BOUNDED_FROM}\b", line))
    return [line for line in lines[start:] if line.strip()]


def test_change_log_entries_stay_short():
    long = [(entry[:60], len(entry))
            for entry in _bounded_entries(CHANGES.read_text())
            if len(entry) > LIMIT]
    assert not long, f"CHANGES.md entries over {LIMIT} characters: {long}"


def test_the_bound_starts_at_its_entry():
    text = ("- **PR 45 — old.** " + "x" * 2000 + "\n\n"
            "- **PR 46 — new.** short\n- FOUND: y\n")
    assert _bounded_entries(text) == ["- **PR 46 — new.** short",
                                      "- FOUND: y"]
