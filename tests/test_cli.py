"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vca-rw" in out and "vortex_2" in out

    def test_run_single(self, capsys):
        assert main(["run", "--model", "baseline",
                     "--bench", "gzip_graphic",
                     "--regs", "128", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "cycles" in out

    def test_run_smt(self, capsys):
        assert main(["run", "--model", "vca",
                     "--bench", "gzip_graphic", "crafty",
                     "--regs", "192", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "thread 1" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "--bench", "gzip_graphic",
                     "--abi", "windowed", "--limit", "20"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--bench", "nonexistent"])

    def test_store_gc_claims(self, capsys, tmp_path):
        from repro.experiments.store import SqliteStore
        path = str(tmp_path / "s.sqlite")
        with SqliteStore(path) as db:
            db.claim("pt", owner="dead-scheduler")
        assert main(["store", "gc-claims", path,
                     "--owner", "dead-scheduler"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 claims (0 remain)" in out
        assert main(["store", "gc-claims", path, "--max-age", "0"]) == 0
        assert "removed 0 claims" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["stats", "audit", "gc-claims"])
    def test_store_refuses_a_missing_path(self, capsys, tmp_path, cmd):
        # A typo must not create an empty store and report it healthy.
        path = tmp_path / "nostore" / "typo.sqlite"
        assert main(["store", cmd, str(path)]) == 2
        assert f"no store at {path}" in capsys.readouterr().err
        assert not (tmp_path / "nostore").exists()
        assert main(["store", cmd, str(tmp_path)]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parser_covers_every_figure(self):
        parser = build_parser()
        for cmd in ("table2", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "sec43"):
            args = parser.parse_args(
                [cmd] + ([] if cmd == "table2" else ["--scale", "0.2"]))
            assert callable(args.fn)

    @pytest.mark.parametrize("argv", [
        ["sweep", "rw", "--metrics"],
        ["table2", "--scale", "0.1"],
        ["table2", "--csv", "t.csv"],
        ["sec43", "--csv", "s.csv"],
        ["run", "fib", "--trace"],
        ["run", "fib", "--metrics-interval", "0"],
    ], ids=["sweep-metrics", "table2-scale", "table2-csv", "sec43-csv",
            "run-trace", "run-metrics-interval"])
    def test_deleted_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_figure_commands_accept_workers(self):
        parser = build_parser()
        args = parser.parse_args(["fig4", "--workers", "4",
                                  "--timeout", "60"])
        assert args.workers == 4 and args.timeout == 60.0

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "vortex_2" in out and "0.82" in out

    def test_table2_repeat_is_a_store_hit(self, capsys, cache,
                                          monkeypatch):
        import repro.experiments.runner as runner
        import repro.functional as functional

        assert main(["table2"]) == 0
        first = capsys.readouterr().out

        def must_not_run(*args, **kwargs):
            raise AssertionError("table2 re-measured a stored ratio")

        monkeypatch.setattr(runner, "measure_path_length", must_not_run)
        monkeypatch.setattr(functional, "measure_path_length",
                            must_not_run)
        assert main(["table2"]) == 0
        assert capsys.readouterr().out == first

    def test_failed_figure_point_is_one_line(self, capsys, cache,
                                             monkeypatch):
        import repro.experiments.runner as runner

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(runner, "run_point", boom)
        assert main(["fig6", "--bench", "gzip_graphic",
                     "--scale", "0.05"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert err.startswith("repro fig6: failed: ")
        assert "/gzip_graphic@" in err and "RuntimeError: kaboom" in err


class TestCsvExport:
    def test_series_roundtrip(self, tmp_path):
        from repro.experiments.export import (
            read_series_csv, write_series_csv)
        series = {"a": {64: 1.0, 128: None}, "b": {64: 0.5, 128: 2.0}}
        path = write_series_csv(str(tmp_path / "s.csv"), "regs", series)
        assert read_series_csv(str(path)) == series

    def test_fig4_csv_flag(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--bench", "gzip_graphic",
                     "--scale", "0.3", "--csv", str(out)]) == 0
        assert out.exists()
        text = out.read_text()
        assert "vca-rw" in text and "series" in text


class TestSweepCommand:
    ARGS = ["sweep", "rw", "--models", "baseline", "--sizes", "256",
            "--bench", "gzip_graphic", "--scale", "0.05", "--quiet"]

    def test_sweep_runs_and_resumes(self, capsys, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        ledger = tmp_path / "ledger.jsonl"
        csv_out = tmp_path / "out.csv"
        args = self.ARGS + ["--ledger", str(ledger),
                            "--csv", str(csv_out)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed 1" in out
        assert ledger.exists() and csv_out.exists()
        assert "status,kind,model" in csv_out.read_text()

        # A plain re-run resumes from the store: nothing executes.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out and "1 cached" in out

        # --no-cache neither reads nor writes the store: it starts over.
        assert main(args + ["--no-cache"]) == 0
        assert "executed 1" in capsys.readouterr().out

    def test_sweep_figure_plan_renders_series(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "fig4", "--bench", "gzip_graphic",
                     "--sizes", "256", "--scale", "0.05",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fig4 series" in out and "vca-rw" in out

    def test_sweep_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["sweep", "rw", "--models", "nonexistent"])

    def test_sweep_failure_sets_exit_code(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        import repro.experiments.runner as runner

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(runner, "run_point", boom)
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert "failed" in out and "kaboom" in out


@pytest.mark.usefixtures("cache")
class TestRunCommand:
    """``repro run`` executes one ``Point`` through the engine and the
    result store, so it shares their cache key and ledger format."""

    RUN = ["run", "fib", "--model", "vca-rw", "--regs", "128",
           "--scale", "0.2"]

    def _point_records(self, path):
        from repro.obs.runlog import read_ledger
        return [r for r in read_ledger(path) if r["rec"] == "point"]

    def test_repeated_run_is_a_store_hit(self, capsys, tmp_path):
        from repro.experiments.plan import Point
        ledger = str(tmp_path / "run.jsonl")
        outs = []
        for _ in range(2):
            assert main(self.RUN + ["--ledger", ledger]) == 0
            outs.append([line for line in
                         capsys.readouterr().out.splitlines()
                         if not line.startswith("ledger: ")])
        assert outs[0] == outs[1]
        first, second = self._point_records(ledger)
        assert (first["status"], second["status"]) == ("done", "cached")
        assert first["key"] == second["key"] == Point.run(
            "vca-rw", ["fib"], 128, scale=0.2).cache_key()

    def test_seed_gets_its_own_key(self, capsys, tmp_path):
        ledger = str(tmp_path / "run.jsonl")
        assert main(self.RUN + ["--ledger", ledger]) == 0
        assert main(self.RUN + ["--seed", "3", "--ledger", ledger]) == 0
        plain, seeded = self._point_records(ledger)
        assert seeded["status"] == "done"
        assert plain["key"] != seeded["key"]
        assert seeded["point"]["seed"] == 3
        assert "seed" not in plain["point"]
        capsys.readouterr()

    def test_seed_joins_the_point_only_when_set(self):
        from repro.experiments.plan import Point
        plain = Point.run("vca-rw", ["fib"], 128)
        seeded = Point.run("vca-rw", ["fib"], 128, seed=3)
        assert "seed" not in plain.to_dict()
        assert Point.from_dict(seeded.to_dict()) == seeded
        assert Point.from_dict(plain.to_dict()) == plain

    def test_seed_shows_in_the_label(self):
        from repro.experiments.plan import Point
        plain = Point.run("vca-rw", ("fib",), 128)
        seeded = Point.run("vca-rw", ("fib",), 128, seed=3)
        assert plain.label == "vca-rw/fib@128r2p"
        assert seeded.label == "vca-rw/fib@128r2p~seed3"

    def test_ledger_refuses_trace_out(self, capsys, tmp_path):
        ledger = tmp_path / "run.jsonl"
        assert main(self.RUN + ["--trace-out", "t.jsonl",
                                "--ledger", str(ledger)]) == 2
        assert "needs a live machine" in capsys.readouterr().err
        assert not ledger.exists()

    def test_unrunnable_configuration_is_one_line(self, capsys):
        assert main(["run", "fib", "--model", "baseline", "--regs", "40",
                     "--scale", "0.2"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert "baseline/fib@40r2p" in err and "unrunnable" in err
