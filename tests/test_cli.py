import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdkit import cli, complexes, finite, shiftspace, torus, tower
from mdkit.finite import FiniteSystem, Metric

from instances import ROWS, run_in_process
from oracles import complex_file, metric_fractions, uniform_metric
from test_golden import COMMANDS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestDispatch:
    def test_tower_verify_passes(self, capsys):
        code, report, err = run_cli(
            capsys,
            "tower",
            "verify",
            "--m",
            "3",
            "--N",
            "1",
            "--delta",
            "1/2",
            "--window",
            "0:36",
            "--samples",
            "5",
            "--seed",
            "7",
        )
        assert code == 0
        assert report["summary"]["verdict"] == "pass"
        assert {c["name"] for c in report["checks"]} == {
            "section-identity",
            "section-range",
            "range-case-partitions",
        }
        assert "summary: pass" in err

    def test_markers_search_none_is_exit_zero(self, capsys):
        code, report, _ = run_cli(
            capsys, "markers", "search", "--system", "cycles:5", "--N", "6"
        )
        assert code == 0
        assert report["checks"][0]["witness"]["verdict"] == "none"

    def test_markers_search_over_twenty_four_points(self, capsys):
        for n_marker, verdict in (("13", "found"), ("14", "none")):
            code, report, _ = run_cli(
                capsys, "markers", "search", "--system", "cycles:13,13,14", "--N", n_marker
            )
            assert code == 0
            assert report["checks"][0]["witness"]["verdict"] == verdict
            assert report["config"] == {"system": "cycles:13,13,14", "N": int(n_marker)}
        for removed in (["--greedy"], ["--cap", "100"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["markers", "search", "--system", "cycles:3", "--N", "2"] + removed)
            assert excinfo.value.code == 2

    def test_conjugacy_on_gap_cycles(self, capsys):
        for argv in (
            ["--p", "5", "--m", "2", "--delta", "1", "--N", "2", "--samples", "1"],
            ["--p", "13", "--m", "4"],
        ):
            code, report, _ = run_cli(capsys, "shift", "conjugacy", *argv)
            assert code == 0, argv
            assert report["summary"]["verdict"] == "pass"
            assert all(c["witness"]["checked"] >= 1 for c in report["checks"])

    def test_mdim_pipeline_value(self, capsys):
        code, report, _ = run_cli(
            capsys, "mdim", "pipeline", "--N", "3", "--time-division", "4"
        )
        assert code == 0
        assert report["checks"][0]["witness"]["upper"] == "3/4"

    def test_mdim_pipeline_eta_selection(self, capsys):
        code, report, _ = run_cli(
            capsys, "mdim", "pipeline", "--N", "3", "--eta", "1/7"
        )
        assert code == 0
        record = [c for c in report["checks"] if c["name"] == "eta-selection"][0]
        assert record["verdict"] == "pass"
        assert record["witness"]["n"] == 22

    def test_markers_transfer_on_a_long_cycle(self, capsys):
        # 1,800 extension markers, each checked for 599 return times
        code, report, _ = run_cli(
            capsys, "markers", "transfer", "--system", "cycles:600", "--n", "3", "--N", "600"
        )
        assert code == 0
        assert report["summary"]["verdict"] == "pass"
        backward = report["checks"][1]["witness"]["detail"]
        assert backward.startswith("all 1800 1800-markers of the extension project to (599)-markers")

    def test_markers_transfer_cost_does_not_grow_with_N(self, capsys):
        # 10,000 projections of one cycle, each decided from cycle positions:
        # walking N - 1 steps from each point took about 7 s
        started = time.monotonic()
        code, report, _ = run_cli(
            capsys, "markers", "transfer", "--system", "cycles:10000", "--n", "1", "--N", "10000"
        )
        assert time.monotonic() - started < 2
        assert code == 0 and report["summary"]["verdict"] == "pass"

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (["shift", "witness", "--p", "7", "--m", "3"], 1),
            # one per witness prime, 5 and 7; none for the empty period 2 and 3
            (["tower", "aperiodicity", "--m-max", "3", "--p-max", "7"], 2),
        ],
        ids=["shift-witness", "tower-aperiodicity"],
    )
    def test_each_witness_is_checked_once(self, capsys, monkeypatch, argv, checks):
        calls = []
        check = shiftspace.check_membership
        for module in (cli, shiftspace, tower):
            monkeypatch.setattr(module, "check_membership", lambda *args: calls.append(args) or check(*args))
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0 and report["summary"]["verdict"] == "pass"
        assert len(calls) == checks

    def test_markers_transfer_checks_each_projection_once(self, capsys, monkeypatch):
        calls, verdicts = [], []
        verify, part_ok = finite.verify_marker, finite._part_ok
        monkeypatch.setattr(finite, "verify_marker", lambda *args: calls.append(args) or verify(*args))
        monkeypatch.setattr(finite, "_part_ok", lambda *args: verdicts.append(args) or part_ok(*args))
        code, report, _ = run_cli(
            capsys, "markers", "transfer", "--system", "cycles:6,6", "--n", "3", "--N", "2"
        )
        assert code == 0
        # the verifier runs for the base search and the lifted marker only;
        # the part rule once for each of the 17 distinct projections of each
        # cycle's part
        assert len(calls) == 2
        assert len(verdicts) == 34
        backward = report["checks"][1]["witness"]["detail"]
        assert backward.startswith("all 7569 6-markers of the extension project")

    def test_markers_transfer_builds_no_marker_product(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the transfer listed the extension markers")

        monkeypatch.setattr(finite, "enumerate_markers", refuse)
        code, report, _ = run_cli(
            capsys, "markers", "transfer", "--system", "cycles:9,9", "--n", "2", "--N", "2"
        )
        assert code == 0
        backward = report["checks"][1]["witness"]["detail"]
        assert backward.startswith("all 108900 4-markers of the extension project")
        # 2^600 - 1 markers of one cycle: refused from the count alone
        code = cli.main(["markers", "transfer", "--system", "cycles:600", "--n", "1", "--N", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"mdkit: error: more than {finite.MAX_MARKERS} markers to enumerate; "
            "tighten the marker length or shrink the system\n"
        )

    def test_embed_validates_its_metric_once(self, capsys, monkeypatch, tmp_path):
        # a random table is a metric by construction and a uniform one is
        # checked by the sign of its value; a metric file is validated once
        path = tmp_path / "metric.json"
        table = [["0" if i == j else "1/4" for j in range(12)] for i in range(12)]
        path.write_text(json.dumps(table))
        calls = []
        validate = finite._validate_metric
        for module in (cli, finite):
            monkeypatch.setattr(module, "_validate_metric", lambda *args: calls.append(args) or validate(*args))
        counts = []
        for metric in ("random:1", "random:2", "uniform:1/4", str(path)):
            argv = ["embed", "--system", "cycles:7,5", "--metric", metric, "--epsilon", "1/10"]
            assert run_cli(capsys, *argv)[0] == 0
            counts.append(len(calls))
        assert counts == [0, 0, 0, 1]
        # a system file's own metric is replaced by --metric, so only the
        # replacing file is validated
        system = tmp_path / "system.json"
        base = FiniteSystem.from_cycle_lengths([7, 5])
        system.write_text(json.dumps({"points": list(base.points), "perm": list(base.perm), "metric": table}))
        argv = ["embed", "--system", str(system), "--metric", str(path), "--epsilon", "1/10"]
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) - counts[-1] == 1

    def test_uniform_metric_sign_rule_agrees_with_the_validator(self):
        for size in range(1, 7):
            for value in (Fraction(-1), Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(3)):
                table = uniform_metric(size, value)
                try:
                    finite._validate_metric(Metric.of(table), size)
                    expected = None
                except ValueError as exc:
                    expected = str(exc)
                try:
                    assert metric_fractions(cli._parse_metric(f"uniform:{value}", size)) == table
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, (size, value)
        assert metric_fractions(cli._parse_metric("uniform:-1/4", 1)) == ((Fraction(0),),)

    def test_sequence_commands_build_vectors_only_to_print_them(self, capsys, monkeypatch):
        # windows, anchors, sections and periodic samples stay integer
        # columns; a vector is built only where a report prints one
        argv = {
            "tower": ["tower", "verify", "--m", "4", "--N", "2", "--window=-24:48",
                      "--samples", "2", "--seed", "3", "--anchors", "random"],
            "conjugacy": "shift conjugacy --p 7 --m 3 --N 2 --delta 1/2 --samples 20 --seed 1".split(),
            "witness": "shift witness --p 3 --m 2".split(),
        }
        plain = {name: run_cli(capsys, *args)[:2] for name, args in argv.items()}
        built = []
        vec, post_init = torus._vec, torus.TorusVec.__post_init__
        monkeypatch.setattr(torus, "_vec", lambda *a: built.append(a) or vec(*a))
        monkeypatch.setattr(torus.TorusVec, "__post_init__", lambda v: built.append(v) or post_init(v))
        counts = {}
        for name, args in argv.items():
            start = len(built)
            assert run_cli(capsys, *args)[:2] == plain[name]
            counts[name] = len(built) - start
        golden = Path(__file__).resolve().parent / "golden"
        for name, file in (("conjugacy", "shift-conjugacy"), ("witness", "shift-witness")):
            assert plain[name][1] == json.loads((golden / f"{file}.json").read_text(encoding="utf-8"))
        printed = len(plain["witness"][1]["checks"][0]["witness"]["witness"]["values"])
        # the witness report prints three vectors, written from its columns
        assert counts == {"tower": 0, "conjugacy": 0, "witness": 0} and printed == 3

    def test_complex_validated_only_as_a_file(self, capsys, monkeypatch, tmp_path):
        # standard complexes are built valid; a complex file is validated
        # once, as it is read
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(complex_file(complexes.build_en_zp(2, 1))))
        calls = []
        validate = complexes._validate_complex
        monkeypatch.setattr(complexes, "_validate_complex", lambda k: calls.append(k) or validate(k))
        counts = []
        for argv in (
            ["complex", "coindex", "--complex", "en-zp:p=2,n=3"],
            ["complex", "en-zp", "--p", "2", "--n", "3"],
            ["complex", "coindex", "--complex", str(path)],
        ):
            assert run_cli(capsys, *argv)[0] == 0
            counts.append(len(calls))
        assert counts == [0, 0, 1]

    def test_mdim_D_of_octahedron_stars(self, capsys):
        code, report, _ = run_cli(
            capsys, "mdim", "D", "--model", "en-zp:p=2,n=2", "--cover", "stars"
        )
        assert code == 0
        assert report["checks"][0]["witness"] == {"D": 2, "ord": 2}

    @pytest.mark.parametrize(
        "model, n_max, interval, nodes",
        [
            ("en-zp:p=5,n=3", "4", [3, 3], 1 + 7 + 18 + 34),
            ("en-zp:p=2,n=5", "6", [5, 5], 1 + 4 + 9 + 16 + 25 + 36),
        ],
    )
    def test_coindex_searches_no_level_above_the_dimension(
        self, capsys, model, n_max, interval, nodes
    ):
        # deterministic node totals, not wall time, show whether a level
        # above the dimension is searched again
        code, report, _ = run_cli(capsys, "complex", "coindex", "--complex", model, "--n-max", n_max)
        assert code == 0
        witness = report["checks"][0]["witness"]
        assert [witness["lower"], witness["upper"]] == interval
        assert sum(rec.get("nodes", 0) for rec in witness["provenance"]) == nodes

    def test_remaining_subcommands_smoke(self, capsys):
        cases = [
            ("tower", "aperiodicity", "--m-max", "3", "--p-max", "7"),
            ("shift", "count-periodic", "--n-max", "6"),
            ("shift", "conjugacy", "--p", "5", "--m", "2", "--samples", "3", "--seed", "1"),
            ("shift", "witness", "--p", "3", "--m", "2"),
            ("complex", "en-zp", "--p", "2", "--n", "1"),
            ("complex", "coindex", "--complex", "en-zp:p=2,n=1", "--n-max", "1"),
            ("markers", "transfer", "--system", "cycles:3", "--n", "2", "--N", "3"),
            ("embed", "--system", "cycles:3", "--metric", "uniform:1/4", "--epsilon", "1/5"),
            ("embed", "--system", "cycles:2,3", "--metric", "random:5", "--epsilon", "1/10"),
            ("mdim", "D", "--model", "interval", "--cover", "stars"),
        ]
        for argv in cases:
            code, report, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert report["summary"]["verdict"] == "pass", argv


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["nonsense"])
        assert excinfo.value.code == 2

    def test_config_error_is_two(self, capsys):
        code = cli.main(
            ["shift", "conjugacy", "--p", "3", "--m", "5", "--samples", "1"]
        )
        assert code == 2
        assert "diagram requires p > m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, lost",
        [
            (["shift", "witness", "--p", "3", "--m", "2"], "report"),
            # 242 kB, over the stdout buffer: print itself fails, not the flush
            (["tower", "aperiodicity", "--m-max", "2", "--p-max", "200"], "report"),
            # the summary is opened before the report, and goes with it
            (["shift", "witness", "--p", "3", "--m", "2", "--csv"], "report"),
            # a device is closed, not removed
            (["shift", "witness", "--p", "3", "--m", "2", "--csv", os.devnull], "report"),
            # help is buffered like a report
            (["-h"], "help"),
            (["tower", "verify", "-h"], "help"),
        ],
        ids=["flush-fails", "print-fails", "csv-summary-removed", "csv-device-kept", "help", "leaf-help"],
    )
    def test_closed_stdout_is_one_line_error(self, argv, lost, tmp_path):
        # the pipe's read end is closed before the child starts, so its first
        # write fails: once exit 1 and a BrokenPipeError traceback.  Stdout is
        # left buffered, so a short report fails only when it is flushed; an
        # unbuffered one hides the help case, since argparse drops the error
        summary = tmp_path / "summary.csv"
        if argv[-1] == "--csv":
            argv = argv + [str(summary)]
        read, write = os.pipe()
        os.close(read)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "mdkit.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            )
        finally:
            os.close(write)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"mdkit: error: stdout was closed before the {lost} was written"]
        assert not summary.exists()
        assert os.path.exists(os.devnull)

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        def failing_runner(args):
            return cli._report(args, [cli._check("demo", "always fails", False)])

        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        args = parser.parse_args(["mdim", "pipeline", "--N", "1"])
        monkeypatch.setattr(
            parser,
            "parse_args",
            lambda argv=None: type(args)(**{**vars(args), "runner": failing_runner}),
        )
        code = cli.main([])
        assert code == 1

    @pytest.mark.parametrize("row", [row for row in ROWS if row.refused], ids=lambda row: row.name)
    def test_malformed_config_is_one_line_error(self, capsys, tmp_path, row):
        # the refusal rows of the instance table: exit 2, nothing on stdout,
        # one error line naming the fragment
        run_in_process(row, capsys, tmp_path)

    @pytest.mark.parametrize(
        "argv, flag, content",
        [
            (["embed", "--epsilon", "1/10"], "--system", "{"),
            (["mdim", "D", "--model", "interval"], "--cover", "{}"),
        ],
        ids=["json-file-not-parsed", "cover-file-not-atom-lists"],
    )
    def test_file_that_does_not_parse_is_named_cut(self, capsys, tmp_path, argv, flag, content):
        path = tmp_path / ("a" * 200 + ".json")
        path.write_text(content)
        code = cli.main(argv + [flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mdkit: error: ")
        assert f"... ({len(str(path))} characters)" in lines[0]
        assert len(lines[0]) < 200

    def test_spent_search_cap_is_undetermined(self, capsys, monkeypatch):
        monkeypatch.setattr(complexes, "MAX_SEARCH_NODES", 5)
        code = cli.main(["complex", "coindex", "--complex", "en-zp:p=2,n=3", "--n-max", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "mdkit: error: undetermined: the equivariant map search from a level-2 "
            "source spent its cap of 5 nodes (complexes.MAX_SEARCH_NODES)\n"
        )

    @pytest.mark.parametrize(
        "content, named",
        [
            # 2^40 - 1 faces in the closure: refused once it passes the cap
            (
                {"p": 2, "vertices": list(range(40)), "simplices": [list(range(40))], "action": [v ^ 1 for v in range(40)]},
                "the closure passes the cap of 20000 simplices",
            ),
            # a prime that trial division would take minutes to decide
            (
                {"p": 2**61 - 1, "vertices": [0], "simplices": [[0]], "action": [0]},
                f"p = {2**61 - 1} is over the cap of 20000 simplices",
            ),
        ],
        ids=["complex-file-face-of-40-vertices", "complex-file-p-2-to-61-minus-1"],
    )
    def test_complex_file_over_the_cap_refused_in_under_a_second(
        self, capsys, tmp_path, content, named
    ):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(content))
        started = time.monotonic()
        code = cli.main(["complex", "coindex", "--complex", str(path)])
        elapsed = time.monotonic() - started
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and named in lines[0]
        assert elapsed < 1

    @pytest.mark.parametrize("command", ["witness", "conjugacy", "conjugacy-period", "tower-verify", "aperiodicity"])
    def test_exactly_at_the_coordinate_cap_runs(self, capsys, tmp_path, command):
        # the rows one step under their over-cap refusals
        (row,) = [row for row in ROWS if row.name == f"{command}-at-coordinate-cap"]
        run_in_process(row, capsys, tmp_path)

    def test_count_periodic_caps_refused_before_counting(self, capsys, monkeypatch):
        # each route checks the caps for its whole range of lengths first, so
        # the transfer route, called once for all of them, refuses the command
        # before either route counts a length
        def counted(*args):
            raise AssertionError("counted before the caps were checked")

        calls = []
        transfer = cli.count_periodic_sft
        monkeypatch.setattr(cli, "count_periodic_sft", lambda *args: calls.append(args) or transfer(*args))
        monkeypatch.setattr(cli, "count_periodic_sft_bruteforce", counted)
        monkeypatch.setattr(shiftspace, "_count_circular_words", counted)
        assert cli.main(["shift", "count-periodic", "--n-max", "21"]) == 2
        assert "over the cap of 20" in capsys.readouterr().err
        assert calls == [(frozenset({"000", "111"}), 21)]

    def test_tower_verify_checks_come_before_any_draw(self, capsys, monkeypatch):
        def drawn(*args):
            raise AssertionError("drew before the domain and the cap were checked")

        monkeypatch.setattr(cli, "sample_gap_window", drawn)
        monkeypatch.setattr(cli, "random_anchor", drawn)
        argv = ["tower", "verify", "--m", "9", "--window=-2:10", "--anchors", "random"]
        assert cli.main(argv) == 2
        assert "[0, 40319]" in capsys.readouterr().err
        argv = ["tower", "verify", "--m", "3", "--window=-2:100000000", "--anchors", "random"]
        assert cli.main(argv) == 2
        assert "over the cap of 100000" in capsys.readouterr().err
        # a huge level is refused before its factorial gap is formed: only
        # mdkit.tower forms gaps, each by its level_gap
        assert "level_gap" not in vars(cli)
        monkeypatch.setattr(tower, "level_gap", drawn)
        for m in ("2000", "1000000"):
            assert cli.main(["tower", "verify", "--m", m, "--window=0:10"]) == 2
            assert "over the cap of 100000" in capsys.readouterr().err

    def test_embed_checks_come_before_the_metric(self, capsys, monkeypatch):
        def built(*args):
            raise AssertionError("built the metric before the checks")

        monkeypatch.setattr(cli, "random_metric", built)
        argv = ["embed", "--system", "cycles:3", "--metric", "random:1", "--epsilon", "1/0"]
        assert cli.main(argv) == 2
        assert "denominator zero" in capsys.readouterr().err
        size = finite.MAX_EMBED_POINTS + 1
        argv = ["embed", "--system", f"cycles:{size}", "--metric", "random:1", "--epsilon", "1/10"]
        assert cli.main(argv) == 2
        assert f"at most {size - 1} points, got {size}" in capsys.readouterr().err

    def test_transfer_cap_comes_before_the_extension(self, capsys, monkeypatch):
        def built(*args):
            raise AssertionError("built the clock extension before the cap was checked")

        monkeypatch.setattr(finite, "time_division", built)
        # one point over the cap, and the largest n the cap allows plus one
        for system, n in (("cycles:1", finite.MAX_TRANSFER_POINTS + 1), ("cycles:3,5", 1251)):
            argv = ["markers", "transfer", "--system", system, "--n", str(n), "--N", "2"]
            assert cli.main(argv) == 2
            assert "over the cap of 10000 on a marker transfer" in capsys.readouterr().err

    def test_shorthand_size_is_refused_before_any_point_is_built(self, capsys, monkeypatch):
        def built(*args):
            raise AssertionError("built the system before its size was checked")

        monkeypatch.setattr(FiniteSystem, "from_cycle_lengths", built)
        for argv, named in (
            (["embed", "--system", "cycles:3000000", "--metric", "uniform:0", "--epsilon", "1/10"],
             "embed takes at most 200 points, got 3000000"),
            (["markers", "transfer", "--system", "cycles:3000000", "--n", "2", "--N", "2"],
             "has 6000000 points, over the cap of 10000 on a marker transfer"),
            (["markers", "search", "--system", "cycles:20000000", "--N", "2"],
             "markers search takes at most 1000000 points, got 20000000"),
            # a negative length would bring the sum under the cap
            (["embed", "--system", "cycles:3000000,-2999999", "--metric", "uniform:0", "--epsilon", "1/10"],
             "cycle lengths must be >= 1"),
            (["markers", "transfer", "--system", "cycles:0,3000000", "--n", "2", "--N", "2"],
             "cycle lengths must be >= 1"),
        ):
            assert cli.main(argv) == 2
            assert named in capsys.readouterr().err

    def test_marker_commands_check_only_the_shape_of_a_system_metric(self, capsys, tmp_path):
        # neither marker command reads the metric; embed does, and refuses it
        system = tmp_path / "asymmetric.json"
        metric = [["0", "1/4", "1/4"], ["1/2", "0", "1/4"], ["1/4", "1/4", "0"]]
        system.write_text(json.dumps({"points": ["a", "b", "c"], "perm": [1, 2, 0], "metric": metric}))
        assert run_cli(capsys, "markers", "search", "--system", str(system), "--N", "2")[0] == 0
        assert run_cli(capsys, "markers", "transfer", "--system", str(system), "--n", "2", "--N", "1")[0] == 0
        assert cli.main(["embed", "--system", str(system), "--epsilon", "1/10"]) == 2
        assert "metric must be symmetric" in capsys.readouterr().err
        # the shape is still checked
        system.write_text(json.dumps({"points": ["a", "b", "c"], "perm": [1, 2, 0], "metric": metric[:2]}))
        assert cli.main(["markers", "search", "--system", str(system), "--N", "2"]) == 2
        assert "metric table must be 3 by 3" in capsys.readouterr().err

    def test_caps_hold_at_their_boundaries(self, capsys, monkeypatch):
        # lowered so the boundary runs fast: the cap itself is accepted
        monkeypatch.setattr(finite, "MAX_EMBED_POINTS", 12)
        monkeypatch.setattr(finite, "MAX_TRANSFER_POINTS", 24)
        monkeypatch.setattr(finite, "MAX_SEARCH_POINTS", 8)
        for system, code in (("cycles:5,7", 0), ("cycles:6,7", 2)):
            argv = ["embed", "--system", system, "--metric", "uniform:1/4", "--epsilon", "1/10"]
            assert cli.main(argv) == code
        for system, code in (("cycles:3,5", 0), ("cycles:3,5,1", 2)):
            assert cli.main(["markers", "search", "--system", system, "--N", "2"]) == code
        for system, code in (("cycles:3,5", 0), ("cycles:3,5,1", 2)):
            argv = ["markers", "transfer", "--system", system, "--n", "3", "--N", "2"]
            assert cli.main(argv) == code
        capsys.readouterr()

    def test_conjugacy_cap_comes_before_any_draw(self, capsys, monkeypatch):
        draws = []
        walks = shiftspace._periodic_walks
        monkeypatch.setattr(shiftspace, "_periodic_walks", lambda *args: draws.append(args[1]) or walks(*args))
        argv = ["shift", "conjugacy", "--p", "2003", "--m", "2", "--samples", "25"]
        assert cli.main(argv) == 2
        assert "100150 coordinates" in capsys.readouterr().err
        assert draws == [], "drew before the coordinate cap was checked"
        # the patched function is the one the diagram draws through
        assert cli.main(["shift", "conjugacy", "--p", "5", "--m", "2", "--samples", "1"]) == 0
        capsys.readouterr()
        assert draws == [2, 1]

    def test_witness_dimension_comes_before_the_coordinate_cap(self, capsys, monkeypatch):
        def built(*args):
            raise AssertionError("built the witness before its dimension was checked")

        # p * N is at most 0, under the cap, so a p-entry point was once
        # built before the gap space refused the dimension; the cap check
        # opens every witness build, before any column is formed
        monkeypatch.setattr(shiftspace, "check_periodic_coordinates", built)
        for n in ("0", "-1"):
            started = time.monotonic()
            code = cli.main(["shift", "witness", "--p", str(2**31), "--m", "1", "--N", n])
            elapsed = time.monotonic() - started
            assert code == 2
            assert capsys.readouterr().err.splitlines() == ["mdkit: error: alphabet dimension must be positive"]
            assert elapsed < 1
        # the patched function is the one a witness build calls
        with pytest.raises(AssertionError, match="built the witness"):
            cli.main(["shift", "witness", "--p", "3", "--m", "2"])

    def test_over_long_integer_option_is_cut(self, capsys):
        # every integer option of every leaf, given 5,000 nines: argparse's
        # usage and one error line naming the first 20 characters
        long = "9" * 5000
        tried = 0
        for words, (_, _, *options) in cli._COMMANDS.items():
            required = [flag for flag, _, default, _ in options if default is cli._REQUIRED]
            for flag, kind, _, _ in options:
                if kind is not cli._int:
                    continue
                argv = list(words)
                for other in required:
                    if other != flag:
                        argv += [other, "cycles:3" if other == "--system" else "1"]
                argv += [flag, long]
                with pytest.raises(SystemExit) as exited:
                    cli.main(argv)
                assert exited.value.code == 2
                lines = capsys.readouterr().err.splitlines()
                assert lines[0].startswith("usage: mdkit ") and all(len(line) < 200 for line in lines)
                assert lines[-1].endswith(f"integer '{long[:20]}'... (5000 characters) is not read"), argv
                tried += 1
        assert tried == 25

    @pytest.mark.parametrize(
        "argv, check",
        [
            # once "needs the gap m coprime to p", though both sets are nonempty
            (["shift", "witness", "--p", "4", "--m", "2"], "witness-membership"),
            (["shift", "witness", "--p", "9", "--m", "3"], "witness-membership"),
            # once "insufficient": the corner witness keeps 1 in two coordinates
            (["shift", "witness", "--p", "3", "--m", "2", "--N", "2", "--delta", "4/5"], "witness-membership"),
            # once "insufficient", though the even cycle (0, 1, 0, 1) keeps 1
            (["shift", "witness", "--p", "4", "--m", "1", "--delta", "9/10"], "witness-membership"),
            # once refused with the statement that proves the set empty
            (["shift", "witness", "--p", "3", "--m", "3"], "no-periodic-point"),
            (["shift", "witness", "--p", "3", "--m", "2", "--delta", "4/5"], "no-periodic-point"),
            (["shift", "witness", "--p", str(2**31), "--m", str(2**31)], "no-periodic-point"),
        ],
        ids=["gcd-2", "gcd-3", "corner", "even-cycle", "gap-multiple-of-p", "odd-cycle-interval", "empty-over-cap"],
    )
    def test_witness_decides_every_period(self, capsys, argv, check):
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0 and report["summary"]["verdict"] == "pass"
        assert [c["name"] for c in report["checks"]] == [check]

    @pytest.mark.parametrize(
        "argv, kinds",
        [
            # p = 3's witness once refused the whole report ("insufficient")
            (["tower", "aperiodicity", "--m-max", "2", "--p-max", "13", "--delta", "4/5"], ["empty"] * 2 + ["witness"] * 4),
            # every prime within the depth: no coordinates, though p * N is over the cap
            (["tower", "aperiodicity", "--m-max", "5", "--p-max", "5", "--N", "50000"], ["empty"] * 3),
        ],
        ids=["prime-3-empty-at-4/5", "over-cap-all-empty"],
    )
    def test_aperiodicity_gives_each_prime_its_verdict(self, capsys, argv, kinds):
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0 and report["summary"]["verdict"] == "pass"
        assert [c["witness"]["kind"] for c in report["checks"]] == kinds

    def test_conjugacy_names_why_the_set_is_empty(self, capsys):
        assert cli.main(["shift", "conjugacy", "--p", "3", "--m", "2", "--delta", "4/5"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("[12/5, 18/5]; there is none: no period-3 point exists")
        assert "grid" not in line

    def test_aperiodicity_cap_refused_before_the_sieve(self, capsys, monkeypatch):
        def listed(n):
            raise AssertionError("primes listed before the cap was checked")

        monkeypatch.setattr(tower, "is_prime", listed)
        assert cli.main(["tower", "aperiodicity", "--m-max", "5", "--p-max", "100000000"]) == 2
        assert "over the cap of 1000" in capsys.readouterr().err
        # the witnesses, of the primes 7, 11 and 13 above the depth, hold
        # 31 * N coordinates, refused once the primes are listed and before any is built
        monkeypatch.undo()
        monkeypatch.setattr(tower, "periodic_witness", lambda *args: pytest.fail("built a witness over the cap"))
        argv = ["tower", "aperiodicity", "--m-max", "5", "--p-max", "13", "--N", "3226"]
        assert cli.main(argv) == 2
        assert "100006 coordinates, over the cap of 100000" in capsys.readouterr().err

    def test_bad_window_is_two(self, capsys):
        code = cli.main(
            ["tower", "verify", "--m", "2", "--window", "5:5", "--samples", "1"]
        )
        assert code == 2


class TestReportContract:
    def test_byte_identical_reports(self, capsys):
        argv = [
            "shift",
            "conjugacy",
            "--p",
            "5",
            "--m",
            "2",
            "--samples",
            "4",
            "--seed",
            "9",
        ]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_default(self, capsys, monkeypatch):
        # the seed comes from --seed alone; MDKIT_SEED once set its default
        monkeypatch.setenv("MDKIT_SEED", "123")
        code, report, _ = run_cli(
            capsys, "shift", "conjugacy", "--p", "5", "--m", "2", "--samples", "2"
        )
        assert code == 0
        assert report["config"]["seed"] == 0

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_config_holds_every_option(self, name, capsys):
        argv = shlex.split(COMMANDS[name])[1:]
        words = tuple(argv[:2]) if tuple(argv[:2]) in cli._COMMANDS else tuple(argv[:1])
        # each option's dest as argparse derives it from the flag
        dests = {flag[2:].replace("-", "_") for flag, *_ in cli._COMMANDS[words][2:]}
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        assert report["command"] == " ".join(words)
        assert dests <= set(report["config"]), sorted(dests - set(report["config"]))

    def test_report_shape(self, capsys):
        code, report, _ = run_cli(capsys, "complex", "en-zp", "--p", "2", "--n", "1")
        assert report["toolkit"].startswith("mdkit ")
        assert report["command"] == "complex en-zp"
        for check in report["checks"]:
            assert set(check) == {"name", "statement", "verdict", "witness"}
        assert set(report["summary"]) == {"verdict", "checks", "failures"}

    def test_csv_summary(self, capsys, tmp_path):
        path = tmp_path / "summary.csv"
        code, _, _ = run_cli(
            capsys,
            "--csv",
            str(path),
            "shift",
            "count-periodic",
            "--n-max",
            "4",
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,verdict,witness"
        assert len(lines) == 5

    def test_witness_json_embeds_sequence(self, capsys):
        code, report, _ = run_cli(
            capsys, "shift", "witness", "--p", "3", "--m", "2"
        )
        witness = report["checks"][0]["witness"]["witness"]
        assert witness["kind"] == "periodic"
        assert witness["values"] == [["0/1"], ["4/3"], ["2/3"]]

    def test_failing_transfer_witness_lists_its_violations(self, capsys, monkeypatch):
        # every base 4-part rejected: the 15-markers of the extension of a
        # 5-cycle at n = 3 are single points, and each record names the first
        # one, in the extension cycle's walk, that projects onto its part
        part_ok = finite._part_ok
        monkeypatch.setattr(finite, "_part_ok", lambda length, u, k: False if k == 4 else part_ok(length, u, k))
        code, report, _ = run_cli(capsys, "markers", "transfer", "--system", "cycles:5", "--n", "3", "--N", "5")
        forward, backward = (check["witness"] for check in report["checks"])
        assert code == 1 and "violations" not in forward
        assert backward["violations"] == [{"marker": [j], "projected": [q]} for q, j in enumerate([0, 1, 4, 7, 10])]

    def test_failing_identity_witness_lists_its_failing_samples(self, capsys, monkeypatch):
        # the four equality identities fail at entry 0 of every stacked run
        monkeypatch.setattr(shiftspace, "_unequal_positions", lambda a, b: [0])
        argv = ["shift", "conjugacy", "--p", "7", "--m", "3", "--samples", "20", "--seed", "1"]
        code, report, _ = run_cli(capsys, *argv)
        _, expected = shiftspace.verify_conjugacy_diagram(1, 3, Fraction(1, 2), 7, 20, 1)
        assert code == 1
        assert [check["witness"].get("failures") for check in report["checks"]] == [
            list(ident.failures) or None for ident in expected
        ]
        assert [check["verdict"] for check in report["checks"]] == ["pass"] * 2 + ["fail"] * 4


class TestFileInputs:
    def test_system_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"points": ["a", "b", "c"], "perm": [1, 2, 0]}))
        code, report, _ = run_cli(
            capsys, "markers", "search", "--system", str(path), "--N", "3"
        )
        assert code == 0
        assert report["checks"][0]["witness"]["verdict"] == "found"
        assert report["checks"][0]["witness"]["subset_points"] == ["a"]

    def test_metric_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        quarter = "1/4"
        path.write_text(
            json.dumps(
                [["0/1", quarter, quarter], [quarter, "0/1", quarter], [quarter, quarter, "0/1"]]
            )
        )
        code, report, _ = run_cli(
            capsys,
            "embed",
            "--system",
            "cycles:3",
            "--metric",
            str(path),
            "--epsilon",
            "1/5",
        )
        assert code == 0 and report["summary"]["verdict"] == "pass"

    def test_cover_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps([["v0", "e"], ["v1", "e"]]))
        code, report, _ = run_cli(
            capsys, "mdim", "D", "--model", "interval", "--cover", str(path)
        )
        assert code == 0
        assert report["checks"][0]["witness"]["D"] == 1

    def test_complex_from_json_file_of_maximal_faces(self, capsys, tmp_path):
        # en-zp(3, 1): vertex (a, level) has index 3 * level + a; the maximal
        # faces are the edges with one vertex on each level
        path = tmp_path / "complex.json"
        path.write_text(
            json.dumps(
                {
                    "p": 3,
                    "vertices": [[a, level] for level in range(2) for a in range(3)],
                    "simplices": [[a, 3 + b] for a in range(3) for b in range(3)],
                    "action": [3 * level + (a + 1) % 3 for level in range(2) for a in range(3)],
                }
            )
        )
        bounds = []
        for complex_ in (str(path), "en-zp:p=3,n=1"):
            code, report, _ = run_cli(capsys, "complex", "coindex", "--complex", complex_)
            assert code == 0
            witness = report["checks"][0]["witness"]
            bounds.append((witness["lower"], witness["upper"]))
        assert bounds[0] == bounds[1] == (1, 1)

    def test_missing_file_is_config_error(self, capsys):
        code = cli.main(
            ["markers", "search", "--system", "/nonexistent.json", "--N", "2"]
        )
        assert code == 2


# argv lists for the parser entry: (argv, whether the leaf's option table reads it)
PARSER_BATTERY = {
    **{name: (shlex.split(command)[1:], True) for name, command in COMMANDS.items()},
    "csv-before-group": (["--csv", "out.csv", "shift", "witness", "--p", "3", "--m", "2"], False),
    "csv-after-leaf": (["shift", "witness", "--p", "3", "--m", "2", "--csv", "out.csv"], True),
    "csv-on-both-levels": (["--csv", "a.csv", "mdim", "pipeline", "--N", "1", "--csv", "b.csv"], False),
    "leaf-help": (["tower", "verify", "-h"], False),
    "embed-help": (["embed", "--help"], False),
    "missing-required-option": (["tower", "verify", "--m", "2"], False),
    "non-integer-N": (["markers", "search", "--system", "cycles:3", "--N", "x"], False),
    "invalid-anchors-choice": (["tower", "verify", "--m", "2", "--window", "0:5", "--anchors", "all"], False),
    "unrecognized-extra": (["tower", "verify", "--m", "2", "--window", "0:5", "extra"], False),
    "root-ambiguous-option": (["tower", "verify", "--m", "2", "--window", "0:5", "--=x"], False),
    "unknown-group": (["nonsense"], False),
    "unknown-leaf": (["tower", "nonsense"], False),
    "empty": ([], False),
    # a separate value starting with "-": argparse reads -1 as a number and
    # -2:4 as an option, so the tree decides both
    "separate-negative-integer": (["tower", "verify", "--m", "-1", "--window", "0:5"], False),
    "separate-negative-window": (["tower", "verify", "--m", "2", "--window", "-2:4"], False),
    "empty-equals-value": (["shift", "witness", "--p", "3", "--m", "2", "--delta="], False),
    "abbreviated-option": (["tower", "verify", "--m", "2", "--window", "0:5", "--sam", "1"], False),
    "repeated-option": (["tower", "verify", "--m", "2", "--m", "3", "--window", "0:6"], True),
    "equals-inside-equals-value": (["tower", "verify", "--m=5=6", "--window", "0:5"], False),
    "trailing-double-dash": (["tower", "verify", "--m", "2", "--window", "0:5", "--"], False),
    "equals-choice": (["tower", "verify", "--m", "2", "--window", "0:5", "--anchors=random"], True),
    "equals-shorthand": (["complex", "coindex", "--complex=en-zp:p=3,n=2"], True),
    # before 3.13 argparse reads "--" after "=" as no value at all, an empty list
    "equals-double-dash": (["shift", "witness", "--p", "3", "--m", "2", "--delta=--"], False),
}


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = ("namespace", vars(parse(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


class TestParserEntry:
    @pytest.mark.parametrize("name", sorted(PARSER_BATTERY))
    def test_leaf_entry_matches_the_tree(self, name, capsys):
        argv, at_leaf = PARSER_BATTERY[name]
        assert (cli._parse_at_leaf(argv) is not None) == at_leaf
        assert capsys.readouterr() == ("", "")
        tree = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
        assert _parse_outcome(cli._parse_args, argv, capsys) == tree

    def test_generated_argv_match_the_tree(self, capsys):
        # every leaf's options, given values drawn from pools of valid and
        # malformed texts, in both forms, repeated, abbreviated or unknown
        rng = random.Random(20261019)
        pool = [
            "2", "3", "7", "0", "-1", "9" * 5000, "1" + "0" * 4000, "1.5", "x", "", " 3", "-", "--", "-h",
            "--m", "0:12", "-2:4", "0:", "1/2", "2/4", "1/0", "1e-3", "zero", "random", "all",
            "cycles:3", "cycles:3,5", "en-zp:p=2,n=1", "interval", "stars", "a=b", "=",
        ]

        def drawn(kind):
            if rng.random() < 0.2:
                return rng.choice(pool)
            if kind is cli._int:
                return rng.choice(["2", "3", "7", " 3", str(10**30)])
            return rng.choice(kind if isinstance(kind, tuple) else ["1/2", "0:12", "-6:12", "cycles:3", "en-zp:p=2,n=1"])

        table_read = tried = 0
        for words, (_, _, *rows) in cli._COMMANDS.items():
            # each option as (its strings, type or choices, required), in the
            # order the leaf's help lists them: -h first and --csv last
            options = [(("-h", "--help"), None, False)]
            options += [((flag,), kind, default is cli._REQUIRED) for flag, kind, default, _ in rows]
            options.append((("--csv",), None, False))
            for _ in range(200):
                argv = list(words)
                for strings, kind, required in options:
                    if required and rng.random() < 0.95:
                        argv += [strings[0], drawn(kind)]
                for _ in range(rng.randrange(3)):
                    strings, kind, _ = rng.choice(options)
                    option = rng.choice(strings)
                    value = drawn(kind)
                    form = rng.randrange(10)
                    if form == 0:
                        argv.append(f"{option}={value}")
                    elif form == 1:
                        argv += [option[: rng.randrange(2, len(option) + 1)], value]
                    elif form == 2:
                        argv += [rng.choice(["--nonsense", "-h", "--", "-x", "--=x"]), value]
                    elif form == 3:
                        argv.append(option)
                    elif form == 4:
                        argv.append(f"{option}={rng.choice(['', '--', '-', '-1', '-2:4'])}")
                    else:
                        argv += [option, value]
                table_read += cli._parse_at_leaf(argv) is not None
                tree = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
                assert _parse_outcome(cli._parse_args, argv, capsys) == tree, argv
                tried += 1
        # both paths are taken often: 952 of the 2,400 lists are read from the table
        assert tried // 3 < table_read < tried - tried // 3


json_text = st.text(st.characters() | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\xe9", "\U0001f600"]))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | json_text,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(json_text, children),
    max_leaves=40,
)


class TestReportWriter:
    @given(json_values)
    def test_writer_matches_json_dumps(self, value):
        assert cli._indented_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, Fraction(1, 2), {1, 2}, {1: "a"}, {"a": [0, 0.0]}, {"a": {"b": Fraction(1, 3)}}, [{(1,): 1}]],
        ids=["float", "fraction", "set", "int-key", "nested-float", "nested-fraction", "tuple-key"],
    )
    def test_writer_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            cli._indented_json(value)
