"""The rows of ``instances.ROWS``, run in process through ``cli.main``.

This module runs the answers and the usage fallbacks.  ``test_cli.py`` runs
the refusals and the rows at the coordinate cap, under the test names they
have long had.  No row asserts a wall time: ``python tests/instances.py``
runs every row in a fresh process under a 10 s timeout.  An answer whose
leaf takes ``--seed`` and which fixes none also runs here at seeds 1-4, so
no row answers by the luck of its default seed; the fresh-process run keeps
the default.
"""

import pytest

from instances import ROWS, run_in_process
from mdkit import cli


def _unseeded(row) -> bool:
    """Whether ``row`` is an answer by a leaf that takes ``--seed``, with none given."""
    argv = row.command.split()
    words = next((words for words in (tuple(argv[:2]), tuple(argv[:1])) if words in cli._COMMANDS), None)
    if row.code != 0 or words is None:
        return False
    flags = [flag for flag, *_ in cli._COMMANDS[words][2:]]
    return "--seed" in flags and not any(arg.split("=")[0] == "--seed" for arg in argv)


@pytest.mark.parametrize(
    "row",
    [row for row in ROWS if not (row.refused or row.name.endswith("-at-coordinate-cap"))],
    ids=lambda row: row.name,
)
def test_instance(row, capsys, tmp_path):
    run_in_process(row, capsys, tmp_path)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("row", [row for row in ROWS if _unseeded(row)], ids=lambda row: row.name)
def test_unseeded_answer_at_other_seeds(row, seed, capsys, tmp_path):
    run_in_process(row._replace(command=f"{row.command} --seed {seed}"), capsys, tmp_path)


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)
