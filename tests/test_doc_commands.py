"""Every ``hpcview`` command the docs and CI show must parse.

A removed subcommand or flag that a README example or a CI step still
uses fails here, not in a reader's terminal.  Commands are taken from
the lines after ``python -m repro.tools.hpcview``: ``\\`` continuations
are joined, inline code ends at its closing backtick, comments are
dropped, and pipes and redirects end the argument list.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.tools.hpcview import build_parser

REPO = Path(__file__).resolve().parents[1]
DOCS = (
    "README.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
COMMAND = re.compile(r"python -m repro\.tools\.hpcview[ \t]+([^`\n]+)")
SHELL_OPERATORS = ("|", ">", "<", ";", "&")


def _commands(doc: str) -> list[list[str]]:
    text = (REPO / doc).read_text().replace("\\\n", " ")
    commands = []
    for match in COMMAND.finditer(text):
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token.startswith(SHELL_OPERATORS):
                break
            argv.append(token)
        commands.append(argv)
    return commands


CASES = [(doc, argv) for doc in DOCS for argv in _commands(doc)]


def test_commands_found():
    assert _commands("README.md") and _commands(".github/workflows/ci.yml")


@pytest.mark.parametrize(
    "doc, argv", CASES, ids=[f"{doc}:{' '.join(argv)}" for doc, argv in CASES]
)
def test_command_parses(doc, argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{doc}: hpcview {' '.join(argv)}\n{capsys.readouterr().err}")
