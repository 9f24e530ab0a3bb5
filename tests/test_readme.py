"""README against the code it describes.

README gives each fact one home elsewhere (a docstring, a help string or a
test) and keeps only the lists a reader starts from.  These tests hold those
lists to the code: the CLI commands to the parser, the Layout rows to the
modules, and the SANN descriptor format to the struct that packs it.
"""

import argparse
import re
from pathlib import Path

from scgaccel.cli import build_parser
from scgaccel.modeltools import _DESCRIPTOR

ROOT = Path(__file__).resolve().parent.parent
LAYOUT_CELL_MAX = 400     # one or two sentences; the details are in docstrings


def _section(title: str) -> str:
    """The text of README's `## title` section, up to the next one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text,
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_the_cli_command_list_is_the_parsers():
    block = re.search(r"```text\n(.*?)```", _section("CLI"), re.DOTALL)
    listed = [tuple(line.split(None, 1)) for line in block.group(1).splitlines()]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == [(c.dest, c.help) for c in sub._choices_actions]


def test_the_layout_rows_name_every_module_once():
    rows = re.findall(r"^\| `scgaccel\.(\w+)` *\| (.*) \|$", _section("Layout"),
                      re.MULTILINE)
    modules = sorted(p.stem for p in (ROOT / "src" / "scgaccel").glob("*.py")
                     if p.stem != "__init__")
    assert sorted(name for name, _ in rows) == modules
    long = [name for name, role in rows if len(role) > LAYOUT_CELL_MAX]
    assert not long, f"Layout cells over {LAYOUT_CELL_MAX} characters: {long}"


def test_the_descriptor_format_is_the_packers():
    stated = re.findall(r"descriptor is `([^`]+)`",
                        _section("Weight binary format (`SANN`, version 1)"))
    assert stated == [_DESCRIPTOR.format]
