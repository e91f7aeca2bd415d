"""Tests: the gpbft-experiments command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_profile_default_quick(self, monkeypatch):
        monkeypatch.delenv("GPBFT_BENCH_PROFILE", raising=False)
        args = build_parser().parse_args(["table2"])
        assert args.profile == "quick"

    def test_profile_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GPBFT_BENCH_PROFILE", "paper")
        args = build_parser().parse_args(["table2"])
        assert args.profile == "paper"

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert str(args.cache_dir).endswith("cache")

    def test_engine_flags_parsed(self, tmp_path):
        args = build_parser().parse_args(
            ["fig4", "--jobs", "4", "--no-cache", "--cache-dir", str(tmp_path)])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == tmp_path


class TestMain:
    def test_table2_runs_and_prints(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "geographic timer" in out.lower()

    def test_out_directory_written(self, tmp_path, capsys):
        assert main(["table2", "--out", str(tmp_path)]) == 0
        written = tmp_path / "table2_quick.txt"
        assert written.exists()
        assert "Table II" in written.read_text()

    def test_table4_runs(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "G-PBFT" in out and "PoW" in out

    def test_cache_summary_line_printed(self, tmp_path, capsys):
        argv = ["table4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache hits" in cold and "misses" in cold
        assert main(argv) == 0  # second run: everything from cache
        warm = capsys.readouterr().out
        assert "(3 cache hits, 0 misses)" in warm

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        assert main(["table4", "--no-cache", "--cache-dir", str(tmp_path)]) == 0
        assert list(tmp_path.iterdir()) == []


class TestSvgOutput:
    def _figure_result(self):
        from repro.experiments.figures import FigureResult
        from repro.metrics.collector import SweepResult

        sweep = SweepResult("PBFT", "nodes", "latency (s)")
        sweep.add(4, [1.0, 1.2, 1.1])
        sweep.add(10, [3.0, 3.3, 2.9])
        return FigureResult(figure_id="figX", series=[sweep], text="fake")

    def test_write_svgs_line_chart(self, tmp_path):
        from repro.experiments.cli import _write_svgs

        written = _write_svgs("fig6", self._figure_result(), "quick", tmp_path)
        assert len(written) == 1
        assert written[0].name == "fig6_quick.svg"
        assert written[0].read_text().startswith("<svg")

    def test_write_svgs_boxplots_for_fig3(self, tmp_path):
        from repro.experiments.cli import _write_svgs

        written = _write_svgs("fig3", self._figure_result(), "quick", tmp_path)
        assert len(written) == 1  # one boxplot per series
        assert "pbft" in written[0].name

    def test_write_svgs_skips_tables(self, tmp_path):
        from repro.experiments.cli import _write_svgs
        from repro.experiments.tables import TableResult

        table = TableResult(table_id="t", values={}, text="x")
        assert _write_svgs("table2", table, "quick", tmp_path) == []


def _exit_code(entry, argv) -> int:
    """What *entry* exits with: its return value, or argparse's exit."""
    try:
        return entry(argv)
    except SystemExit as exc:
        return exc.code


class TestBadValuesExit2:
    """A bad value exits 2 with one error line naming it, never a traceback."""

    def test_verify(self, capsys):
        for argv, line in (
                (["--n", "2"], "error: schedules need n >= 4"),
                (["--horizon", "nan"], "error: horizon_s must be finite"),
                (["--horizon", "inf"], "error: horizon_s must be finite")):
            assert _exit_code(main, ["verify", *argv, "--seeds", "1"]) == 2
            assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("flag,value,bound", [
        ("--seeds", "0", ">= 1"), ("--seeds", "-1", ">= 1"),
        ("--shrink-budget", "-5", ">= 0")])
    def test_verify_counts(self, flag, value, bound, capsys):
        assert _exit_code(main, ["verify", flag, value]) == 2
        assert f"error: argument {flag}: must be {bound}, got {value}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("content,line", [
        (None, "error: cannot read artifact {path}: "),
        ("[]", "error: artifact {path} is not a repro.verify/schedule-artifact file"),
        ('{"format": "repro.verify/schedule-artifact",'
         ' "minimal": {"schedule": {"protocol": "pbft"}}}',
         "error: artifact {path}: minimal.schedule has no field 'n'")],
        ids=["missing", "list", "schedule-without-n"])
    def test_verify_replay_bad_artifact(self, content, line, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        if content is not None:
            path.write_text(content)
        assert _exit_code(main, ["verify", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(line.format(path=path)) and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--duration", "0"), ("--window", "0"), ("--sample-rate", "2"),
        ("--heartbeat", "-1"), ("--drain-slack", "nan"),
        ("--drain-slack", "-5"), ("--drain-slack", "inf"),
        # a zoned topology needs two zones, and PBFT four replicas
        ("--zones", "1"), ("--replicas-per-zone", "3")])
    def test_agg(self, flag, value, capsys):
        argv = ["agg", "--requests", "8", "--zones", "2", "--duration", "10",
                flag, value]
        assert _exit_code(main, argv) == 2
        assert f"error: argument {flag}: must be" in capsys.readouterr().err

    def test_packs(self, capsys):
        assert _exit_code(main, ["packs", "flash_crowd", "--jobs", "0"]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: jobs must be >= 1")

    @pytest.mark.parametrize("argv,line", [
        (["-n", "2"], "error: schedules need n >= 4"),
        (["--horizon", "-3"], "error: horizon_s must be positive"),
        (["--horizon", "nan"], "error: horizon_s must be finite"),
        (["--protocol", "gpbft", "--era-switch-at", "nan"],
         "error: era_switch_at must be finite"),
        (["--protocol", "gpbft", "--era-switch-at", "-5"],
         "error: era_switch_at must be >= 0, got -5.0")],
        ids=["n", "horizon", "horizon-nan", "era-switch-nan",
             "era-switch-negative"])
    def test_obs_capture(self, argv, line, capsys):
        from repro.obs.cli import main as obs_main

        assert _exit_code(obs_main, ["capture", *argv]) == 2
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("flag,value", [
        ("--window", "0"), ("--window", "nan"), ("--window", "inf"),
        ("--sample-rate", "2"), ("--sample-rate", "nan"),
        ("--heartbeat", "-1")])
    @pytest.mark.parametrize("cli", ["capture", "agg"])
    def test_obs_flags(self, cli, flag, value, capsys):
        # capture and agg declare the flags once, so both reject alike
        from repro.obs.cli import main as obs_main

        if cli == "capture":
            code = _exit_code(obs_main, ["capture", "-n", "4", flag, value])
        else:
            code = _exit_code(main, ["agg", "--requests", "8", "--zones", "2",
                                     "--duration", "10", flag, value])
        assert code == 2
        assert f"error: argument {flag}: must be" in capsys.readouterr().err
