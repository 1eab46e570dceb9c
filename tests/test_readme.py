"""README drift: its command-line table names every subcommand of the CLI
and every choice of the options whose values it lists."""

import argparse
import pathlib
import re

import pytest

from toricover import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
LISTED = [("verify", "--theorem"), ("generate", "--pattern"), ("generate", "--kind"),
          ("moment", "--kind")]


def table_rows():
    """Each row of the subcommand table, keyed by its subcommand."""
    lines = README.read_text().splitlines()
    start = lines.index("| subcommand | purpose |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows[re.match(r"\| `([\w-]+)", line).group(1)] = line
    return rows


def subparsers():
    (action,) = (a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_subcommand_is_in_the_table():
    assert list(table_rows()) == list(subparsers())


@pytest.mark.parametrize("command, option", LISTED, ids=lambda x: x.lstrip("-"))
def test_every_choice_is_in_the_table(command, option):
    (action,) = (a for a in subparsers()[command]._actions if option in a.option_strings)
    listed = re.search(rf"{option} ([\w-]+(?:\\\|[\w-]+)*)", table_rows()[command])
    assert listed, f"the {command} row lists no {option} values"
    assert listed.group(1).split("\\|") == list(action.choices)
