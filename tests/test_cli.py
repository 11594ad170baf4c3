import json

import pytest

from mdkit import cli


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

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        def failing_runner(args):
            return cli._report(
                "demo", {}, [cli._check("demo", "always fails", False)]
            )

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

    @pytest.mark.parametrize(
        "argv, system, named",
        [
            (["complex", "coindex", "--complex", "en-zp:p=3"], None, "n="),
            (["markers", "search", "--N", "2"], {"perm": [1, 0]}, "'points'"),
            (["markers", "search", "--N", "2"], {"points": ["a", "b"]}, "'perm'"),
            (["tower", "verify", "--m", "1", "--window", "0:2"], None, "--m >= 2"),
        ],
        ids=["complex-without-n", "system-without-points", "system-without-perm", "tower-m-1"],
    )
    def test_malformed_config_is_one_line_error(self, capsys, tmp_path, argv, system, named):
        if system is not None:
            path = tmp_path / "system.json"
            path.write_text(json.dumps(system))
            argv = argv + ["--system", str(path)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mdkit: error: ")
        assert named in lines[0]

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
        monkeypatch.setenv("MDKIT_SEED", "123")
        code, report, _ = run_cli(
            capsys, "shift", "conjugacy", "--p", "5", "--m", "2", "--samples", "2"
        )
        assert code == 0
        assert report["config"]["seed"] == 123

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

    def test_missing_file_is_config_error(self, capsys):
        code = cli.main(
            ["markers", "search", "--system", "/nonexistent.json", "--N", "2"]
        )
        assert code == 2
