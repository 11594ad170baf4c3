"""Golden reports: the README's example commands print byte-identical stdout.

Each file in ``tests/golden`` holds the stdout of one command of the README
"Command line" block.  The files are regenerated only when a report is meant
to change; a representation change must leave every byte as it is.
"""

import argparse
import shlex
from pathlib import Path

import pytest

from mdkit import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "tower-verify": "mdkit tower verify --m 3 --N 1 --delta 1/2 --window 0:36 --samples 100 --seed 7",
    "tower-aperiodicity": "mdkit tower aperiodicity --m-max 5 --p-max 13",
    "shift-count-periodic": "mdkit shift count-periodic --n-max 14",
    "shift-conjugacy": "mdkit shift conjugacy --p 7 --m 3 --N 2 --delta 1/2 --samples 20 --seed 1",
    "shift-witness": "mdkit shift witness --p 3 --m 2",
    "complex-en-zp": "mdkit complex en-zp --p 3 --n 2",
    "complex-coindex": "mdkit complex coindex --complex en-zp:p=2,n=1 --n-max 2",
    "markers-search": "mdkit markers search --system cycles:5 --N 6",
    "markers-transfer": "mdkit markers transfer --system cycles:3,5 --n 2 --N 3",
    "embed": "mdkit embed --system cycles:5 --metric uniform:1/4 --epsilon 1/5",
    "mdim-D": "mdkit mdim D --model en-zp:p=2,n=1 --cover stars",
    "mdim-pipeline": "mdkit mdim pipeline --N 3 --eta 1/7",
}


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.strip().splitlines()]


def test_golden_set_is_the_readme_block():
    assert readme_commands() == list(COMMANDS.values())


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
