"""Every documented ``python -m repro ...`` command line must parse.

Collects the command lines of README.md, docs/*.md and the module
docstring of :mod:`repro.cli` (joining ``\\`` continuations, dropping
``# ...`` comments) and runs each through the CLI's argument parser.
Nothing is executed: a flag or subcommand the CLI no longer has fails
here instead of rotting in the docs.
"""

import glob
import os
import shlex

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIX = "python -m repro "


def _command_lines(text):
    """The ``python -m repro`` lines of ``text``, continuations joined."""
    commands = []
    pending = None
    for raw in text.splitlines():
        line = raw.strip()
        if pending is not None:
            pending += " " + line
        elif line.startswith(PREFIX):
            pending = line
        else:
            continue
        if pending.endswith("\\"):
            pending = pending[:-1].rstrip()
        else:
            commands.append(pending)
            pending = None
    return commands


def _documented_commands():
    sources = [os.path.join(ROOT, "README.md")]
    sources += sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    found = []
    for path in sources:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        name = os.path.relpath(path, ROOT)
        found += [(name, command) for command in _command_lines(text)]
    found += [("repro/cli.py", c) for c in _command_lines(repro.cli.__doc__)]
    return found


COMMANDS = _documented_commands()


def test_every_source_documents_commands():
    sources = {source for source, _ in COMMANDS}
    assert {"README.md", "repro/cli.py"} <= sources
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize(
    "command", [c for _, c in COMMANDS], ids=[s for s, _ in COMMANDS]
)
def test_documented_command_parses(command):
    argv = shlex.split(command, comments=True)[len(shlex.split(PREFIX)):]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"documented command does not parse: {command}")
