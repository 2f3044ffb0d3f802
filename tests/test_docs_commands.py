"""Every ``python -m repro.cli …`` command the docs show parses.

Each command line in README.md and docs/*.md goes through the CLI's
command table (``repro.cli.parse``) without running, so a doc that names
a removed or misspelt flag, or a choice a command does not offer, fails
here rather than in a reader's shell.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import parse

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
PROGRAM = "python -m repro.cli"
REDIRECT = re.compile(r"^\d?>>?(&\d)?$")


def doc_commands(text: str):
    """``(line number, argv)`` of every command line in a markdown text.

    Prompts and environment prefixes before the program, ``\\``
    continuations, pipes, trailing ``#`` comments, closing inline-code
    backticks, a trailing ``&`` and shell redirections are stripped.
    """
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if PROGRAM not in line:
            continue
        command = line[line.index(PROGRAM) + len(PROGRAM):]
        following = index + 1
        while command.rstrip().endswith("\\") and following < len(lines):
            command = command.rstrip()[:-1] + " " + lines[following]
            following += 1
        command = re.split(r"`| \| | #", command)[0].strip().rstrip("&")
        words = shlex.split(command)
        argv = []
        while words:
            word = words.pop(0)
            if REDIRECT.match(word):
                if not word.endswith(("&1", "&2")):
                    words = words[1:]
                continue
            argv.append(word)
        yield index + 1, argv


def parse_error(argv):
    """What argparse says about ``argv``, or ``None`` when it parses."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            parse(argv)
        except SystemExit:
            return err.getvalue().strip().splitlines()[-1]
    return None


def test_docs_show_commands():
    found = [argv for doc in DOCS for _, argv in doc_commands(doc.read_text())]
    assert len(found) >= 20
    assert ["serve", "--cube", "ssb", "--rows", "60000", "--tenants",
            "acme,globex"] in found


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_every_doc_command_parses(doc):
    bad = [
        f"{doc.name}:{number}: {shlex.join(argv)} -> {error}"
        for number, argv in doc_commands(doc.read_text())
        if (error := parse_error(argv)) is not None
    ]
    assert not bad, "\n".join(bad)


def test_a_removed_flag_fails():
    text = "```bash\npython -m repro.cli history DIR --bench   # trajectory\n```\n"
    [(number, argv)] = doc_commands(text)
    assert (number, argv) == (2, ["history", "DIR", "--bench"])
    assert "unrecognized arguments: --bench" in parse_error(argv)


def test_stripping():
    text = (
        "$ PYTHONPATH=src python -m repro.cli trace --rows 4000 \\\n"
        "    --format=chrome | tee t.json\n"
        "Run `python -m repro.cli history DIR` to aggregate.\n"
        "python -m repro.cli serve --cube sales > log 2>&1 &\n"
    )
    assert [argv for _, argv in doc_commands(text)] == [
        ["trace", "--rows", "4000", "--format=chrome"],
        ["history", "DIR"],
        ["serve", "--cube", "sales"],
    ]
