"""Named ``mdkit`` command lines, each with the outcome the CLI contract gives it.

Each row of ``ROWS`` holds
- a name;
- a command: the argv after ``mdkit``, split on whitespace;
- the expected exit code;
- ``err``: for a refusal, a fragment of its error line; for a usage
  fallback, what stderr starts with, ``usage: mdkit <words>``;
- ``out_max``, where needed: stdout holds fewer bytes than this;
- ``checks``, where needed: the names of an answer's checks, in order;
- ``file``, where needed: ``(flag, content)``, an input file written to a
  temporary directory and given as ``flag PATH`` after the command.  Content
  is a JSON value, or text or bytes written as they are.

A refusal (exit 2, not usage) prints nothing on stdout and one
``mdkit: error:`` line of under 200 bytes on stderr, not counting the
temporary directory's path; an answer (exit 0) ends stderr with
``summary: pass``.
A comment above each row, or above a group of rows, says what it guards.

Tier-1 runs every row in process through ``cli.main``:
``tests/test_cli.py`` the refusals, as
``TestExitCodes::test_malformed_config_is_one_line_error``, and the
``*-at-coordinate-cap`` rows; ``tests/test_instances.py`` the rest.  This
module is not a test module, so pytest does not collect it.  Run as a
script::

    python tests/instances.py

it runs every row in a fresh ``python -m mdkit.cli`` process with a 10 s
timeout, against the ``mdkit`` that Python imports, and exits 1 if any row
fails.  Its input files go to a temporary directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from mdkit import cli


class Row(NamedTuple):
    name: str
    command: str
    code: int
    err: str = ""
    out_max: int | None = None
    file: tuple[str, object] | None = None
    checks: tuple[str, ...] | None = None

    @property
    def refused(self) -> bool:
        return self.code == 2 and not self.err.startswith("usage: ")

    def argv(self, directory) -> list[str]:
        """The argv, with the input file, if any, written to ``directory``."""
        argv = self.command.split()
        if self.file is not None:
            flag, content = self.file
            path = Path(directory) / "input.json"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
            argv += [flag, str(path)]
        return argv


def check(row: Row, code: int, out: str, err: str, directory) -> None:
    """Raise AssertionError unless a run of ``row`` printed what it expects."""
    assert code == row.code, f"exit {code}, expected {row.code}: {err[-300:]!r}"
    if row.out_max is not None:
        assert len(out.encode()) < row.out_max, f"{len(out.encode())} bytes on stdout"
    if row.code == 2:
        assert out == "", f"stdout holds {out[:100]!r}"
    if row.err.startswith("usage: "):
        assert err.startswith(row.err), f"stderr starts {err[:100]!r}"
    elif row.refused:
        line = err.replace(str(directory), "")
        assert line.startswith("mdkit: error: ") and line.count("\n") == 1, f"not one error line: {err[:300]!r}"
        assert len(line.encode()) < 200, f"a {len(line.encode())}-byte error line: {line[:300]!r}"
        assert row.err in err, f"{row.err!r} not in {err[:300]!r}"
    else:
        assert err.endswith("summary: pass\n"), f"stderr ends {err[-100:]!r}"
        if row.checks is not None:
            names = tuple(c["name"] for c in json.loads(out)["checks"])
            assert names == row.checks, f"checks {names}, expected {row.checks}"


def run_in_process(row: Row, capsys, directory) -> None:
    """Run ``row`` through ``cli.main``, read its output from pytest's
    ``capsys``, and check it."""
    try:
        code = cli.main(row.argv(directory))
    except SystemExit as exc:  # the parser tree's usage fallback
        code = exc.code
    captured = capsys.readouterr()
    check(row, code, captured.out, captured.err, directory)


def _complex(p: int, simplices: list, action: list) -> dict:
    """A complex file on the vertices 0..len(action) - 1."""
    return {"p": p, "vertices": list(range(len(action))), "simplices": simplices, "action": action}


def _uniform(n: int) -> dict:
    """A system file: one n-cycle, every distance 1/4."""
    metric = [["0" if i == j else "1/4" for j in range(n)] for i in range(n)]
    return {"points": list(range(n)), "perm": [(i + 1) % n for i in range(n)], "metric": metric}


BIG = "1" + "0" * 4000  # 4,001 digits: named cut, by its first 10
NINES = "9" * 5000  # past Python's 4,300-digit limit on int()

ROWS = [
    # --- tower verify ---
    # values the runner refuses in one line; -1 is read as a number, not an option
    Row("tower-m-1", "tower verify --m 1 --window 0:2", 2, "--m >= 2"),
    Row("tower-m-minus-one-read-as-a-number", "tower verify --m -1 --window=0:5", 2, "tower verify needs --m >= 2"),
    Row("tower-zero-samples", "tower verify --m 2 --window 0:12 --samples 0", 2, "--samples >= 1"),
    Row("tower-negative-samples", "tower verify --m 2 --window 0:12 --samples -2", 2, "--samples >= 1"),
    Row("tower-window-too-short", "tower verify --m 3 --window 0:2", 2, "too short to check anything"),
    Row("window-three-parts", "tower verify --m 2 --window 1:2:3", 2, "form A:B"),
    Row("window-not-integers", "tower verify --m 2 --window a:b", 2, "form A:B"),
    Row("tower-delta-above-one", "tower verify --m 2 --delta 3/2 --window 0:12", 2, "(0, 1]"),
    Row("tower-delta-zero-denominator", "tower verify --m 2 --delta 1/0 --window 0:12", 2, "'1/0' has denominator zero"),
    Row("tower-window-misses-base-block", "tower verify --m 9 --window=-2:10 --anchors random", 2,
        "needs the input window to cover [0, 40319]"),
    Row("tower-verify-dimension-zero", "tower verify --m 3 --N 0 --window=-6:12", 2,
        "needs --N >= 1: the alphabet dimension must be positive, got 0"),
    Row("tower-verify-dimension-negative", "tower verify --m 3 --N -1 --window=-6:12", 2,
        "needs --N >= 1: the alphabet dimension must be positive, got -1"),
    # a dimension refused before any size product: zero_anchor repeats a
    # tuple N times, which overflows at minus a 4,001-digit N
    Row("tower-verify-dimension-over-digit-echo", f"tower verify --m 3 --window=0:12 --N=-{BIG}", 2,
        "tower verify needs --N >= 1: the alphabet dimension must be positive, got -100000000... (4001 digits)"),
    # the entry cap, checked before a window is drawn or a factorial gap formed
    Row("tower-verify-over-entry-cap", "tower verify --m 3 --window=-2:100000000", 2, "over the cap of 100000 on tower verify"),
    Row("tower-level-2000-over-cap", "tower verify --m 2000 --window=0:10", 2,
        "1999! entries of the base block, over the cap of 100000"),
    Row("tower-level-million-over-cap", "tower verify --m 1000000 --window=0:10", 2, "over the cap of 100000"),
    Row("tower-verify-over-coordinate-cap", "tower verify --m 2 --window 0:2 --samples 1 --N 20001", 2,
        "100005 coordinates, over the cap of 100000 on tower verify"),
    Row("tower-verify-at-coordinate-cap", "tower verify --m 2 --window 0:2 --samples 1 --N 20000", 0),
    # levels 7 and 8 under the entry cap, 34,560-69,120 coordinates: drawn
    # as bytes and checked on one-byte lanes, about 1 s per process at most
    Row("tower-level-7-random", "tower verify --m 7 --N 1 --window=-5040:10080 --samples 1 --seed 1 --anchors random", 0),
    Row("tower-level-7-random-N-2", "tower verify --m 7 --N 2 --window=-5040:10080 --samples 1 --seed 1 --anchors random", 0),
    # distance 1, the rarest far set (1 offset in 128 at N = 1): the window
    # is read in rounds sized from that share
    Row("tower-level-7-delta-1",
        "tower verify --m 7 --N 1 --delta 1 --window=-5040:10080 --samples 1 --seed 1 --anchors random", 0),
    Row("tower-level-7-delta-1-N-2",
        "tower verify --m 7 --N 2 --delta 1 --window=-5040:10080 --samples 1 --seed 1 --anchors random", 0),
    # level 8, 50,400 coordinates, the largest level under the entry cap
    Row("tower-level-8-random", "tower verify --m 8 --N 1 --window=-5040:10080 --samples 1 --seed 1 --anchors random", 0),
    Row("tower-level-8-zero", "tower verify --m 8 --N 1 --window=-5040:10080 --samples 1 --seed 1 --anchors zero", 0),
    # a separate value starting with "-" is left to the parser tree, which
    # prints the leaf's usage, as it does for a missing required option
    Row("tower-verify-window-missing", "tower verify --m 2", 2, "usage: mdkit tower verify"),
    Row("tower-verify-window-starting-with-dash", "tower verify --m 2 --window -2:4", 2, "usage: mdkit tower verify"),
    # a window of 4,001 digits, named cut in the size refusal
    Row("tower-window-over-digit-echo", f"tower verify --m 3 --window=0:{BIG}", 2,
        "of a 1000000000... (4001 digits)-entry window and its section in dimension 1 hold"),
    Row("window-over-digit-limit", f"tower verify --m 3 --window 0:{NINES}", 2,
        "window '0:999999999999999999'... (5002 characters) is not of the form A:B"),
    # exponent form, refused before Fraction expands it to 33 million bits
    Row("tower-delta-exponent-form", "tower verify --m 3 --window=0:12 --delta 1e-10000000", 2,
        "'1e-10000000' is refused: exponent form"),

    # --- tower aperiodicity ---
    Row("aperiodicity-p-max-over-cap", "tower aperiodicity --m-max 5 --p-max 1001", 2, "over the cap of 1000"),
    Row("aperiodicity-p-max-over-digit-echo", f"tower aperiodicity --m-max 3 --p-max {BIG}", 2,
        "p_max 1000000000... (4001 digits) is over the cap of 1000"),
    Row("aperiodicity-dimension-zero", "tower aperiodicity --m-max 3 --p-max 7 --N 0", 2, "alphabet dimension must be positive"),
    Row("aperiodicity-dimension-negative", "tower aperiodicity --m-max 3 --p-max 7 --N -1", 2,
        "alphabet dimension must be positive"),
    # the witnesses' coordinates, counted after the sieve and before any is
    # built: 4,872,000 once printed a 124 MB report
    Row("aperiodicity-over-coordinate-cap", "tower aperiodicity --m-max 2 --p-max 5 --N 12501", 2,
        "primes above 2 up to 5 in dimension 12501 hold 100008 coordinates, over the cap of 100000 on periodic points"),
    Row("aperiodicity-witnesses-over-coordinate-cap", "tower aperiodicity --m-max 2 --N 64 --p-max 1000", 2,
        "hold 4872000 coordinates, over the cap of 100000"),
    Row("aperiodicity-at-coordinate-cap", "tower aperiodicity --m-max 2 --p-max 5 --N 12500", 0),
    # p = 3's empty set once refused the whole report; primes within the
    # depth hold no coordinates, though p * N is over the cap
    Row("aperiodicity-prime-3-empty-at-4/5", "tower aperiodicity --m-max 2 --p-max 13 --delta 4/5", 0),
    Row("aperiodicity-over-cap-all-empty", "tower aperiodicity --m-max 5 --p-max 5 --N 50000", 0),
    # the largest report: a witness for each of the 168 primes, 76,127
    # coordinates in all, 4,121,631 bytes, about 0.27 s per process (Python
    # 3.11.7, 2-CPU x86-64 VM)
    Row("aperiodicity-depth-1-at-prime-cap", "tower aperiodicity --m-max 1 --p-max 1000", 0, out_max=4_200_000),

    # --- shift witness ---
    Row("witness-period-zero", "shift witness --p 0 --m 1", 2, "period >= 1"),
    Row("witness-over-coordinate-cap", "shift witness --p 5 --m 2 --N 20001", 2,
        "100005 coordinates, over the cap of 100000 on periodic points"),
    Row("witness-at-coordinate-cap", "shift witness --p 5 --m 2 --N 20000", 0),
    # the dimension comes before the coordinate cap, which p * N = 0 passes:
    # a 2^31-entry point was once built
    Row("witness-dimension-zero-before-the-cap", "shift witness --p 2147483648 --m 1 --N 0", 2,
        "alphabet dimension must be positive"),
    Row("witness-period-over-digit-echo", f"shift witness --p {BIG} --m 3", 2,
        "a period-1000000000... (4001 digits) point in dimension 1 holds 1000000000... (4001 digits)"),
    Row("witness-delta-exponent-form", "shift witness --p 3 --m 2 --delta 1e-10000000", 2,
        "'1e-10000000' is refused: exponent form"),
    Row("witness-delta-over-digit-limit", f"shift witness --p 3 --m 2 --delta 1/{NINES}", 2,
        "rational '1/999999999999999999'... (5002 characters) is not read as p/q"),
    # one rule decides every period: once "needs the gap m coprime to p"
    # and "witness construction insufficient"; the first is decided by the
    # witness, the second by the statement that proves the set empty
    Row("witness-gap-not-coprime", "shift witness --p 4 --m 2", 0, checks=("witness-membership",)),
    Row("witness-empty-at-4/5", "shift witness --p 3 --m 2 --delta 4/5", 0, checks=("no-periodic-point",)),
    # the longest witness under the coordinate cap: 5,744,472 bytes, about
    # 0.32 s per process (Python 3.11.7, 2-CPU x86-64 VM)
    Row("witness-period-99991", "shift witness --p 99991 --m 2", 0, out_max=5_800_000,
        checks=("witness-membership",)),

    # --- shift conjugacy ---
    Row("conjugacy-zero-samples", "shift conjugacy --p 5 --m 2 --samples 0", 2, "samples must be >= 1"),
    Row("conjugacy-negative-samples", "shift conjugacy --p 5 --m 2 --samples -1", 2, "samples must be >= 1"),
    Row("conjugacy-m-not-coprime", "shift conjugacy --p 6 --m 2", 2, "the diagram needs m and p coprime"),
    Row("conjugacy-delta-zero-denominator", "shift conjugacy --p 5 --m 2 --delta 1/0", 2, "'1/0' has denominator zero"),
    Row("conjugacy-dimension-zero", "shift conjugacy --p 5 --m 2 --N 0", 2, "alphabet dimension must be positive"),
    Row("conjugacy-dimension-negative", "shift conjugacy --p 5 --m 2 --N -1", 2, "alphabet dimension must be positive"),
    Row("conjugacy-over-coordinate-cap", "shift conjugacy --p 5 --m 2 --N 10001 --samples 1", 2,
        "100010 coordinates, over the cap of 100000 on periodic points"),
    Row("conjugacy-at-coordinate-cap", "shift conjugacy --p 5 --m 2 --N 10000 --samples 1", 0),
    Row("conjugacy-period-over-digit-echo", f"shift conjugacy --p {BIG} --m 3", 2,
        "20 samples of period 1000000000... (4001 digits) in dimension 1 from each space hold"),
    # a count past Python's digit limit, named by the power of two it reaches
    Row("conjugacy-count-over-digit-limit", f"shift conjugacy --p {BIG} --m 3 --N {BIG}", 2,
        "in dimension 1000000000... (4001 digits) from each space hold at least 2^26580 coordinates"),
    # an empty set is named by the statement that proves it empty
    Row("conjugacy-empty-grid-set", "shift conjugacy --p 3 --m 2 --delta 1", 2, "no period-3 point"),
    # the threshold named as the statements name it, not "distance >= 1"
    Row("conjugacy-threshold-one-named-as-statements-name-it",
        "shift conjugacy --p 13 --m 2 --N 2 --delta 1 --samples 24", 2,
        "a period-13 point with distance >= 1/1 at gap 1 exists on the k/64 grid, but none was drawn"),
    # a threshold of 8,002 characters with no period-3 point, named once, cut
    Row("conjugacy-delta-over-character-echo", f"shift conjugacy --p 3 --m 2 --delta {'9' * 4000}/1{'0' * 4000}", 2,
        "steps of t to 2 - t, t = '99999999999999999999'... (8002 characters), sum to no even integer"),
    # period 13 by closed cycle walks, where redrawing whole periods took minutes
    Row("conjugacy-period-13", "shift conjugacy --p 13 --m 4", 0),
    Row("conjugacy-period-13-N-2", "shift conjugacy --p 13 --m 4 --N 2", 0),
    # the largest diagrams under the coordinate cap, 96,144 and 96,864
    # coordinates: periods too long to stack are cached gathers
    Row("conjugacy-period-2003", "shift conjugacy --p 2003 --m 2 --samples 24", 0),
    Row("conjugacy-period-1009-N-2", "shift conjugacy --p 1009 --m 7 --N 2 --samples 24", 0),
    # the longest period under the coordinate cap, 99,998 coordinates: one
    # sample per side, gathered into residue order and checked on its columns
    Row("conjugacy-period-at-coordinate-cap", "shift conjugacy --p 49999 --m 2 --samples 1", 0, checks=(
        "dilation_m_lands_in_gap1", "dilation_k_lands_in_gapm", "dilation_k_then_m_is_identity",
        "dilation_m_then_k_is_identity", "shift_intertwines_dilation_m", "shift_intertwines_dilation_k",
    )),
    # p divides the 24 samples, so they are stacked in runs of 23 and 1
    Row("conjugacy-samples-divisible-by-p", "shift conjugacy --p 3 --m 2 --delta 1/2 --samples 24", 0),

    # --- shift count-periodic ---
    Row("count-periodic-zero-lengths", "shift count-periodic --n-max 0", 2, "would check nothing"),
    Row("count-periodic-negative-lengths", "shift count-periodic --n-max -1", 2, "would check nothing"),
    Row("count-periodic-period-over-cap", "shift count-periodic --n-max 21", 2, "period 21 is over the cap of 20"),
    Row("count-periodic-n-max-over-digit-echo", f"shift count-periodic --n-max {BIG}", 2,
        "period 1000000000... (4001 digits) is over the cap of 20"),
    Row("count-periodic-word-over-cap", "shift count-periodic --forbidden 000000000,111111111", 2, "cap of 8 letters"),
    Row("count-periodic-one-letter-words", "shift count-periodic --forbidden 0,1", 2, "must have length >= 2"),
    Row("count-periodic-word-not-binary", "shift count-periodic --forbidden 0a1", 2, "forbidden word '0a1' is not binary"),
    Row("count-periodic-word-over-character-echo", f"shift count-periodic --forbidden {'2' * 5000} --n-max 3", 2,
        "forbidden word '22222222222222222222'... (5000 characters) is not binary"),
    # 128 transfer states, every period up to 20 from one walk
    Row("count-periodic-128-states", "shift count-periodic --forbidden 10110110,01101011 --n-max 20", 0),

    # --- complex en-zp, complex coindex ---
    Row("en-zp-over-size-cap", "complex en-zp --p 13 --n 5", 2, "14^6 - 1 = 7529535 simplices"),
    Row("en-zp-p-over-digit-echo", f"complex en-zp --p {BIG} --n 1", 2,
        "en-zp:p=1000000000... (4001 digits),n=1 would have 1000000000... (4001 digits)^2 - 1 simplices"),
    # the largest standard complexes under the simplex cap, built valid by
    # construction; p = 3 fails if the coboundary coefficients blow up
    Row("en-zp-largest-p-2", "complex en-zp --p 2 --n 8", 0),
    Row("en-zp-largest-p-3", "complex en-zp --p 3 --n 6", 0),
    Row("coindex-largest-p-2", "complex coindex --complex en-zp:p=2,n=8 --n-max 8", 0),
    Row("coindex-largest-p-3", "complex coindex --complex en-zp:p=3,n=6 --n-max 6", 0),
    # the level above the dimension is decided by the level theorem, not
    # searched for tens of seconds
    Row("coindex-p-5-level-above-dimension", "complex coindex --complex en-zp:p=5,n=3 --n-max 4", 0),
    Row("coindex-p-2-level-above-dimension", "complex coindex --complex en-zp:p=2,n=5 --n-max 6", 0),
    Row("coindex-n-max-minus-one", "complex coindex --complex en-zp:p=2,n=1 --n-max -1", 2, "would search nothing"),
    Row("coindex-n-max-negative", "complex coindex --complex en-zp:p=2,n=1 --n-max -4", 2, "would search nothing"),
    # malformed shorthands
    Row("complex-without-n", "complex coindex --complex en-zp:p=3", 2, "en-zp:p=P,n=N"),
    Row("complex-shorthand-malformed", "complex coindex --complex en-zp:p=3,n=2,x", 2, "en-zp:p=P,n=N"),
    Row("complex-shorthand-unknown-key", "complex coindex --complex en-zp:p=2,n=1,q=3", 2, "en-zp:p=P,n=N"),
    Row("complex-shorthand-repeated-key", "complex coindex --complex en-zp:p=2,n=1,p=3", 2, "en-zp:p=P,n=N"),
    Row("complex-shorthand-over-digit-limit", f"complex coindex --complex en-zp:p={NINES},n=2", 2,
        "complex shorthand 'en-zp:p=999999999999'... (5012 characters) is not of the form"),
    # complex files that are not a free complex, each named in one line
    Row("complex-file-without-action", "complex coindex", 2, "lacks the required key 'action'",
        file=("--complex", {"p": 3, "vertices": [0, 1, 2], "simplices": [[0]]})),
    Row("complex-file-is-a-list", "complex coindex", 2, "complex JSON must be an object", file=("--complex", [1, 2])),
    Row("complex-file-action-of-booleans", "complex coindex", 2, '"action" vertex index list',
        file=("--complex", _complex(2, [[0], [1]], [True, False]))),
    Row("complex-file-simplex-with-boolean", "complex coindex", 2, '"simplices" list of vertex index lists',
        file=("--complex", _complex(2, [[0, True]], [1, 0]))),
    Row("complex-file-p-boolean", "complex coindex", 2, 'an integer "p"', file=("--complex", _complex(True, [[0], [1]], [1, 0]))),
    Row("complex-file-p-not-prime", "complex coindex", 2, "p must be prime", file=("--complex", _complex(4, [[0], [1]], [1, 0]))),
    Row("complex-file-unknown-vertex", "complex coindex", 2, "simplex references an unknown vertex",
        file=("--complex", _complex(2, [[0, 2]], [1, 0]))),
    Row("complex-file-action-not-a-permutation", "complex coindex", 2, "action must be a permutation of the vertices",
        file=("--complex", _complex(2, [[0], [1]], [0, 0]))),
    Row("complex-file-action-order-not-dividing-p", "complex coindex", 2, "action must have order dividing p",
        file=("--complex", _complex(2, [[0], [1], [2]], [1, 2, 0]))),
    Row("complex-file-action-not-simplicial", "complex coindex", 2, "action is not simplicial",
        file=("--complex", _complex(2, [[0, 1], [2], [3]], [2, 3, 0, 1]))),
    # bytes ff fe: a file that is not UTF-8, once named "an integer is too long"
    Row("complex-file-not-utf-8", "complex coindex", 2, "is not read: it is not UTF-8 text", file=("--complex", b"\xff\xfe{}")),
    # refused at once: one face of 40 vertices, whose closure of 2^40 - 1
    # faces passes the simplex cap, and p = 2^61 - 1, above the cap
    Row("complex-file-closure-over-cap", "complex coindex", 2, "the closure passes the cap of 20000 simplices",
        file=("--complex", _complex(2, [list(range(40))], [v ^ 1 for v in range(40)]))),
    Row("complex-file-p-over-cap", "complex coindex", 2, f"p = {2**61 - 1} is over the cap of 20000 simplices",
        file=("--complex", _complex(2**61 - 1, [[0]], [0]))),

    # --- markers search, markers transfer ---
    Row("system-shorthand-malformed", "markers search --system cycles:3,x --N 1", 2, "cycles:L1,L2,..."),
    Row("system-without-points", "markers search --N 2", 2, "'points'", file=("--system", {"perm": [1, 0]})),
    Row("system-without-perm", "markers search --N 2", 2, "'perm'", file=("--system", {"points": ["a", "b"]})),
    Row("system-file-points-not-a-list", "markers search --N 2", 2, '"points" list', file=("--system", {"points": 5, "perm": [0]})),
    Row("system-file-perm-of-booleans", "markers search --N 2", 2, '"perm" list of point indices',
        file=("--system", {"points": ["a", "b"], "perm": [True, False]})),
    Row("system-file-perm-not-a-bijection", "markers search --N 2", 2, "perm must be a bijection of the points",
        file=("--system", {"points": ["a", "b"], "perm": [0, 0]})),
    # sizes refused from the shorthand, before any point is built
    Row("search-size-over-cap", "markers search --system cycles:20000000 --N 2", 2,
        "markers search takes at most 1000000 points, got 20000000"),
    Row("search-size-over-digit-echo", f"markers search --system cycles:{BIG} --N 2", 2,
        "takes at most 1000000 points, got 1000000000... (4001 digits)"),
    # a found marker's transcript is one record per condition, not one per
    # n = 1..N-1: 835 bytes, where it printed 13 MB
    Row("search-transcript-one-record-per-condition", "markers search --system cycles:100000 --N 100000", 0, out_max=2000),
    # a 300-point file: the search checks only the metric's shape, and embed
    # refuses the size before it checks any metric value
    Row("search-reads-only-the-metric-shape", "markers search --N 2", 0, file=("--system", _uniform(300))),
    # a clock extension over the point cap, refused before it is built
    Row("transfer-over-point-cap", "markers transfer --system cycles:3,5 --n 2147483648 --N 7", 2,
        "has 17179869184 points, over the cap of 10000 on a marker transfer"),
    Row("transfer-shorthand-over-point-cap", "markers transfer --system cycles:3000000 --n 2 --N 2", 2,
        "has 6000000 points, over the cap of 10000 on a marker transfer"),
    Row("transfer-extension-over-digit-echo", f"markers transfer --system cycles:3 --n {BIG} --N 2", 2,
        "the 1/1000000000... (4001 digits)-time extension of 3 points has 3000000000... (4001 digits) points"),
    # 108,900 extension markers, checked per cycle: the 75 2-parts of each
    # base 9-cycle are walked, not the 330 4-parts of each extension cycle
    Row("transfer-two-cycles-of-9", "markers transfer --system cycles:9,9 --n 2 --N 2", 0),
    # 10,000 projections of one cycle, each decided by the part rule
    Row("transfer-cycle-of-10000", "markers transfer --system cycles:10000 --n 1 --N 10000", 0),
    # 167,760 parts, the worst single-cycle count the marker cap admits; at
    # n = 1 the base cycle's parts are the extension cycle's, each walked once
    Row("transfer-cycle-of-25", "markers transfer --system cycles:25 --n 1 --N 2", 0),

    # --- embed ---
    Row("embed-epsilon-zero-denominator", "embed --system cycles:3 --metric random:1 --epsilon 1/0", 2,
        "'1/0' has denominator zero"),
    # epsilon is read first: a 10^10-entry metric was once built before it
    Row("embed-epsilon-checked-before-system", "embed --system cycles:100000 --metric uniform:0 --epsilon 1/0", 2,
        "'1/0' has denominator zero"),
    Row("embed-epsilon-exponent-form", "embed --system cycles:3 --metric random:1 --epsilon 1E-10000000", 2,
        "'1E-10000000' is refused: exponent form"),
    # the point cap, checked before the metric is built or read
    Row("embed-over-point-cap", "embed --system cycles:3000 --metric random:1 --epsilon 1/10", 2,
        "embed takes at most 200 points, got 3000"),
    Row("embed-shorthand-over-point-cap", "embed --system cycles:3000000 --metric uniform:0 --epsilon 1/10", 2,
        "embed takes at most 200 points, got 3000000"),
    Row("embed-size-over-digit-echo", f"embed --system cycles:{BIG} --epsilon 1/10", 2,
        "takes at most 200 points, got 1000000000... (4001 digits)"),
    Row("embed-file-over-point-cap", "embed --epsilon 1/10", 2, "embed takes at most 200 points, got 300",
        file=("--system", _uniform(300))),
    Row("system-shorthand-over-digit-limit", f"embed --system cycles:{NINES} --epsilon 1/10", 2,
        "system shorthand 'cycles:9999999999999'... (5007 characters) is not of the form"),
    # a path that fails to open, named by its first 20 characters
    Row("unopened-path-cut", f"embed --system {'a' * 300} --epsilon 1/10", 2,
        "File name too long: 'aaaaaaaaaaaaaaaaaaaa'... (300 characters)"),
    # metrics that are not metrics, or not read
    Row("metric-random-seed-not-integer", "embed --system cycles:3 --metric random:x --epsilon 1/5", 2, "random:<seed>"),
    Row("metric-seed-over-digit-limit", f"embed --system cycles:3 --metric random:{NINES} --epsilon 1/10", 2,
        "metric shorthand 'random:9999999999999'... (5007 characters) is not of the form"),
    Row("metric-uniform-negative", "embed --system cycles:3 --metric uniform:-1/4 --epsilon 1/5", 2, "metric must be nonnegative"),
    Row("metric-uniform-exponent-form", "embed --system cycles:3 --metric uniform:1e-10000000 --epsilon 1/10", 2,
        "'1e-10000000' is refused: exponent form"),
    Row("metric-file-not-rows", "embed --system cycles:2 --epsilon 1/5", 2, "metric JSON must be a list of rows",
        file=("--metric", [1, 2])),
    Row("metric-file-wrong-size", "embed --system cycles:3 --epsilon 1/5", 2, "metric table must be 3 by 3",
        file=("--metric", [["0", "1/4"], ["1/4", "0"]])),
    Row("metric-file-asymmetric", "embed --system cycles:2 --epsilon 1/5", 2, "metric must be symmetric",
        file=("--metric", [["0", "1/4"], ["1/2", "0"]])),
    Row("metric-file-breaks-triangle-inequality", "embed --system cycles:3 --epsilon 1/5", 2,
        "metric violates the triangle inequality", file=("--metric", [["0", "1/8", "1"], ["1/8", "0", "1/8"], ["1", "1/8", "0"]])),
    # three primes near 2^32, one per pair: a metric, but its values' common
    # denominator passes 2^64 before any value is lifted
    Row("metric-file-denominator-over-cap", "embed --system cycles:3 --epsilon 1/5", 2,
        "common denominator over the cap of 18446744073709551616",
        file=("--metric", [["0", "1/4294967291", "1/4294967279"], ["1/4294967291", "0", "1/4294967231"],
                           ["1/4294967279", "1/4294967231", "0"]])),
    # a system file's metric is held over one denominator by every command
    # that reads the file, so the same table is refused by a marker search
    Row("search-metric-denominator-over-cap", "markers search --N 1", 2,
        "common denominator over the cap of 18446744073709551616",
        file=("--system", {"points": [0, 1, 2], "perm": [1, 2, 0],
                           "metric": [["0", "1/4294967291", "1/4294967279"], ["1/4294967291", "0", "1/4294967231"],
                                      ["1/4294967279", "1/4294967231", "0"]]})),
    Row("metric-file-exponent-form", "embed --system cycles:2 --epsilon 1/10", 2, "1e-05 is refused: exponent form",
        file=("--metric", [[0, 1e-05], [1e-05, 0]])),
    # written as text: json.dumps cannot print an int this long
    Row("metric-file-integer-over-digit-limit", "embed --system cycles:2 --epsilon 1/10", 2,
        "characters) is not read: an integer is too long", file=("--metric", f"[[0, {'1' * 5000}], [1, 0]]")),
    Row("embed-file-metric-malformed-beside-option", "embed --metric random:1 --epsilon 1/10", 2, "metric JSON",
        file=("--system", {"points": ["a", "b"], "perm": [1, 0], "metric": "x"})),
    # pairwise tests as integer comparisons; 200 points is the worst case the
    # point cap admits, on one cycle and on two
    Row("embed-100-points", "embed --system cycles:100 --metric random:1 --epsilon 1/10", 0),
    Row("embed-200-points", "embed --system cycles:200 --metric random:1 --epsilon 1/10", 0),
    Row("embed-200-points-two-cycles", "embed --system cycles:100,100 --metric random:1 --epsilon 1/10", 0),
    # a 200-point file's own metric: its triangle inequality in integers,
    # where a Fraction sum per triple took about 25 s
    Row("embed-file-metric-checked", "embed --epsilon 1/10", 0, file=("--system", _uniform(200))),

    # --- mdim D, mdim pipeline ---
    Row("mdim-over-cap", "mdim D --model en-zp:p=2,n=1 --cap 1", 2, "exceeded 1 nodes; raise the cap"),
    Row("mdim-cap-zero", "mdim D --model interval --cap 0", 2, "--cap must be >= 1"),
    Row("mdim-cap-negative", "mdim D --model interval --cap -5", 2, "--cap must be >= 1"),
    Row("mdim-candidates-over-cap", "mdim D --model en-zp:p=5,n=2 --cover stars", 2,
        "exceeded 65536 nodes; raise the cap (--cap on mdim D)"),
    Row("model-shorthand-unknown-key", "mdim D --model en-zp:p=2,n=1,q=3", 2, "en-zp:p=P,n=N"),
    Row("model-shorthand-repeated-key", "mdim D --model en-zp:p=2,n=1,n=2", 2, "en-zp:p=P,n=N"),
    Row("cover-not-list-of-lists", "mdim D --model interval", 2, "a JSON list of atom lists", file=("--cover", [1, 2])),
    Row("cover-json-object", "mdim D --model interval", 2, "a JSON list of atom lists", file=("--cover", {"a": ["e"]})),
    Row("cover-unhashable-atom", "mdim D --model interval", 2, "a JSON list of atom lists", file=("--cover", [[{"a": 1}]])),
    # face_lattice on the 63-simplex table of en-zp(3, 2)
    Row("mdim-D-stars-of-en-zp-3-2", "mdim D --model en-zp:p=3,n=2 --cover stars", 0),
    Row("pipeline-eta-zero-denominator", "mdim pipeline --N 2 --eta 1/0", 2, "'1/0' has denominator zero"),
    Row("pipeline-eta-exponent-form", "mdim pipeline --N 1 --eta 1e-10000000", 2, "'1e-10000000' is refused: exponent form"),
    Row("pipeline-eta-over-digit-limit", f"mdim pipeline --N 1 --eta 1/{'7' * 5000}", 2,
        "rational '1/777777777777777777'... (5002 characters) is not read as p/q"),
    Row("pipeline-eta-negative-width", "mdim pipeline --N -3 --eta 1/2", 2, "alphabet dimension must be >= 1"),

    # --- --csv ---
    # a --csv path that fails to open, refused before the report is printed
    Row("csv-path-unopened", "shift witness --p 3 --m 2 --csv /nonexistent/x.csv", 2, "No such file or directory"),
    Row("csv-path-unopened-before-the-report", f"shift witness --p 3 --m 2 --csv /nonexistent/{'x' * 60}.csv", 2,
        "No such file or directory: '/nonexistent/xxxxxxx'... (77 characters)"),
]


def main() -> int:
    failed = 0
    # input paths over 40 characters, as pytest's are: an error line names
    # such a path cut, by its first 20 characters and its length
    with tempfile.TemporaryDirectory(prefix="mdkit-instances-") as tmp:
        for index, row in enumerate(ROWS):
            directory = Path(tmp) / str(index)
            directory.mkdir()
            command = [sys.executable, "-m", "mdkit.cli", *row.argv(directory)]
            try:
                done = subprocess.run(command, capture_output=True, text=True, timeout=10)
                check(row, done.returncode, done.stdout, done.stderr, directory)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failed += 1
                print(f"FAIL {row.name}: {exc}", file=sys.stderr)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
