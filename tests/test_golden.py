"""Golden reports: the README's example commands print byte-identical stdout.

Each file in ``tests/golden`` holds the stdout of one command of the README
"Command line" block.  The files are regenerated only when a report is meant
to change; a representation change must leave every byte as it is.
"""

import argparse
import shlex

import pytest
from instances import COMMANDS, GOLDEN

from mdkit import cli


def test_one_golden_file_per_command():
    # an orphan golden file would be checked by nothing
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_is_byte_identical(name, capsys, monkeypatch):
    # the environment reaches no report: MDKIT_SEED once set the default seed
    monkeypatch.setenv("MDKIT_SEED", "123")
    code = cli.main(shlex.split(COMMANDS[name])[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_golden_commands_are_read_from_the_option_table(capsys, monkeypatch):
    # argparse builds and parses nothing for a README command: each is read
    # from its leaf's option table, which is built from the command table
    def refused(self, *args, **kwargs):
        raise AssertionError("argparse built or parsed for a README command")

    cli.build_parser.cache_clear()
    cli._leaf_table.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refused)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refused)
    for name, command in COMMANDS.items():
        assert cli.main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
