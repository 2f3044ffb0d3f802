"""CHANGES.md is a ledger: one line per change, ``PR <n>: [archetype] …``.

Every non-blank line starts with its change number and archetype tag, and
the numbers strictly increase down the file, so each change has exactly
one line and the newest is last.
"""

from __future__ import annotations

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"
LINE = re.compile(r"PR (\d+): \[[a-z_]+\] \S")


def _entries():
    return [
        (number, line)
        for number, line in enumerate(CHANGES.read_text().splitlines(), 1)
        if line.strip()
    ]


def test_every_line_starts_with_its_change_number():
    bad = [
        f"line {number}: {line[:60]!r}"
        for number, line in _entries()
        if not LINE.match(line)
    ]
    assert not bad, "CHANGES.md lines must start 'PR <n>: [archetype] ':\n" + "\n".join(bad)


def test_change_numbers_strictly_increase():
    numbers = [int(LINE.match(line).group(1)) for _, line in _entries() if LINE.match(line)]
    assert numbers, "CHANGES.md has no ledger lines"
    assert all(a < b for a, b in zip(numbers, numbers[1:])), numbers
