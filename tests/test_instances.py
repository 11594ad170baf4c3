"""The rows of ``instances.ROWS``, run in process through ``cli.main``.

This module runs the answers and the usage fallbacks.  ``test_cli.py`` runs
the refusals and the rows at the coordinate cap, under the test names they
have long had.  No row asserts a wall time: ``python tests/instances.py``
runs every row in a fresh process under a 10 s timeout.
"""

import pytest

from instances import ROWS, run_in_process


@pytest.mark.parametrize(
    "row",
    [row for row in ROWS if not (row.refused or row.name.endswith("-at-coordinate-cap"))],
    ids=lambda row: row.name,
)
def test_instance(row, capsys, tmp_path):
    run_in_process(row, capsys, tmp_path)


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)
