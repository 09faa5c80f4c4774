"""Tests for the command-line interface and CSV round trips."""

import pytest

from benchmarks.reach import CLI_QUERY
from tests.conftest import ExpSkewWorkload
from repro import cli
from repro.cli import main
from repro.data.workloads import SyntheticWorkload
from repro.errors import SchemaError
from repro.session.service import Session
from repro.storage.table import Table


class TestRun:
    def test_run_default(self, capsys):
        assert main(["run", "-n", "80", "--sigma", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "ProgXe:" in out
        assert "results" in out

    def test_run_stream(self, capsys):
        assert main(["run", "-n", "60", "--sigma", "0.1", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "t=" in out

    def test_run_stream_prints_when_each_result_became_final(self, capsys):
        assert main(["run", "-n", "60", "--sigma", "0.1", "--stream"]) == 0
        printed = [
            line[2:].split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("t=")
        ]
        workload = SyntheticWorkload(n=60, sigma=0.1, seed=7)
        stream = Session().execute(workload.query().bind(workload.tables()))
        stream.drain()
        stamps = [f"{e.vtime:.0f}" for e in stream.recorder.events]
        assert printed == stamps
        assert len(set(printed)) > 1

    def test_run_named_algorithm(self, capsys):
        assert main(["run", "-n", "60", "--sigma", "0.1", "-a", "SSMJ"]) == 0
        assert "SSMJ:" in capsys.readouterr().out

    def test_run_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "-a", "Nonsense"])

    def test_run_rejects_multiple(self):
        with pytest.raises(SystemExit):
            main(["run", "-a", "ProgXe,SSMJ"])

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_retired_workers_flag_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestRetired:
    @pytest.mark.parametrize("argv, named", [
        (["serve", "--scheduler", "serving"], "--scheduler"),
        (["interleave", "-c", "2"], "interleave"),
        (["run", "--follow"], "--follow"),
        (["run", "--arrival-chunks", "4"], "--arrival-chunks"),
    ], ids=["serve-scheduler", "interleave", "run-follow", "run-arrival-chunks"])
    def test_retired_commands_and_flags_are_usage_errors(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err


class TestCompare:
    def test_compare_variants(self, capsys):
        assert main(["compare", "-n", "70", "--sigma", "0.1"]) == 0
        out = capsys.readouterr().out
        # Table cells truncate long names; check the truncated prefix.
        assert "ProgXe" in out and "No-Ord" in out
        assert "total_vtime" in out

    def test_compare_explicit_list(self, capsys):
        assert main(
            ["compare", "-n", "70", "--sigma", "0.1", "-a", "ProgXe,JF-SL"]
        ) == 0
        out = capsys.readouterr().out
        assert "JF-SL" in out

    def test_compare_all(self, capsys):
        assert main(["compare", "-n", "50", "--sigma", "0.1", "-a", "all"]) == 0
        out = capsys.readouterr().out
        assert "SAJ" in out


class TestGenerateAndQuery:
    def test_generate_then_query(self, tmp_path, capsys):
        prefix = str(tmp_path / "wl")
        assert main(
            ["generate", "-n", "60", "--sigma", "0.1", "--prefix", prefix]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        query_file = tmp_path / "q.sql"
        query_file.write_text(
            "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
            "FROM R R, T T WHERE R.jkey = T.jkey "
            "PREFERRING LOWEST(x0) AND LOWEST(x1)"
        )
        assert main(
            [
                "query",
                "--query-file", str(query_file),
                "--table", f"R={prefix}_R.csv",
                "--table", f"T={prefix}_T.csv",
                "--limit", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "results" in out

    def test_query_inline_text(self, tmp_path, capsys):
        prefix = str(tmp_path / "wl")
        main(["generate", "-n", "50", "--sigma", "0.2", "--prefix", prefix])
        capsys.readouterr()
        assert main(
            [
                "query",
                "--query",
                "SELECT (R.a0 + T.b0) AS x FROM R R, T T "
                "WHERE R.jkey = T.jkey PREFERRING LOWEST(x)",
                "--table", f"R={prefix}_R.csv",
                "--table", f"T={prefix}_T.csv",
            ]
        ) == 0

    @pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("columnar", "col")])
    def test_filtered_query_matches_the_session(self, fmt, suffix, tmp_path, capsys):
        """The reach surface's filtered query: CSV tables filter eagerly,
        columnar ones stream through ``FilteredSource``; both print the
        results a ``Session`` over the generated tables gives."""
        prefix = str(tmp_path / "w")
        assert main(["generate", "-n", "200", "--prefix", prefix,
                     "--format", fmt]) == 0
        capsys.readouterr()
        table = "columnar:{}" if fmt == "columnar" else "{}"
        assert main([
            "query", "--query", CLI_QUERY,
            "--table", "R=" + table.format(f"{prefix}_R.{suffix}"),
            "--table", "T=" + table.format(f"{prefix}_T.{suffix}"),
        ]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("{")]
        tables = SyntheticWorkload(n=200, seed=7).tables()
        direct = Session().register_tables(tables).execute(CLI_QUERY).drain()
        assert sorted(printed) == sorted(str(r.outputs) for r in direct)
        assert 0 < len(printed)

    def test_query_requires_text(self):
        with pytest.raises(SystemExit):
            main(["query", "--table", "R=none.csv"])

    def test_query_bad_table_spec(self, tmp_path):
        query = (
            "SELECT (R.a0 + T.b0) AS x FROM R R, T T "
            "WHERE R.jkey = T.jkey PREFERRING LOWEST(x)"
        )
        with pytest.raises(SystemExit, match="NAME=PATH"):
            main(["query", "--query", query, "--table", "nopath"])

    def test_parse_error_is_reported_not_raised(self, tmp_path, capsys):
        prefix = str(tmp_path / "wl")
        main(["generate", "-n", "40", "--prefix", prefix])
        capsys.readouterr()
        code = main(
            [
                "query",
                "--query", "SELECT garbage",
                "--table", f"R={prefix}_R.csv",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBudgets:
    def test_run_with_result_budget(self, capsys):
        assert main(
            ["run", "-n", "80", "--sigma", "0.1", "--max-results", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ProgXe: 2 results" in out
        assert "stopped early: result budget (2) exhausted" in out

    def test_run_with_vtime_budget(self, capsys):
        assert main(
            ["run", "-n", "80", "--sigma", "0.1", "--max-vtime", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "stopped early: virtual time budget" in out

    def test_run_with_preset(self, capsys):
        assert main(
            ["run", "-n", "80", "--sigma", "0.1", "--preset", "production"]
        ) == 0
        assert "ProgXe:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "compare", "serve"])
    def test_retired_low_memory_preset_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "low-memory"])
        assert exc.value.code == 2
        assert "invalid choice: 'low-memory'" in capsys.readouterr().err

    def test_query_limit_stops_early(self, tmp_path, capsys):
        prefix = str(tmp_path / "wl")
        main(["generate", "-n", "60", "--sigma", "0.1", "--prefix", prefix])
        capsys.readouterr()
        assert main(
            [
                "query",
                "--query",
                "SELECT (R.a0 + T.b0) AS x FROM R R, T T "
                "WHERE R.jkey = T.jkey PREFERRING LOWEST(x)",
                "--table", f"R={prefix}_R.csv",
                "--table", f"T={prefix}_T.csv",
                "--limit", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1 results" in out


class TestAlgorithms:
    def test_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "ProgXe+" in out and "SSMJ" in out
        assert "aliases" in out

    def test_run_accepts_alias(self, capsys):
        assert main(["run", "-n", "60", "--sigma", "0.1", "-a", "ssmj"]) == 0
        assert "SSMJ:" in capsys.readouterr().out


class TestExplain:
    def test_explain_renders_plan(self, capsys):
        assert main(["explain", "-n", "80", "--sigma", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "ProgXe plan" in out
        assert "output regions" in out

    def test_explain_top_limits_listing(self, capsys):
        assert main(["explain", "-n", "80", "--sigma", "0.1", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 2 regions" in out

    @pytest.mark.parametrize("skewed, line", [
        (False, "auto partitioner: grid (skew 0.123 < 0.55; pinned: none)"),
        (True, "auto partitioner: quadtree (skew 0.787 >= 0.55; pinned: none)"),
    ], ids=["grid", "quadtree"])
    def test_explain_prints_the_planner_decision(self, capsys, monkeypatch, skewed, line):
        if skewed:
            monkeypatch.setattr(
                cli, "_workload", lambda args: ExpSkewWorkload(n=args.n, seed=args.seed)
            )
        assert main(["explain", "-n", "300", "-D", "anticorrelated"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ProgXe plan"
        assert out[-1] == "  " + line

    @pytest.mark.parametrize("flags", [["--no-run"], ["--format", "json"]],
                             ids=["no-run", "format-json"])
    def test_explain_has_no_run_or_format_option(self, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", "-n", "80", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCsv:
    def test_round_trip(self, tmp_path):
        t = Table.from_rows("t", ["id", "x"], [("a", 1.5), ("b", 2.0)])
        path = tmp_path / "t.csv"
        t.to_csv(path)
        back = Table.from_csv("t", path)
        assert back.rows == t.rows

    def test_numeric_coercion(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x\nfoo,3.5\nbar,hello\n")
        t = Table.from_csv("t", path)
        assert t.rows == [("foo", 3.5), ("bar", "hello")]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            Table.from_csv("t", path)
