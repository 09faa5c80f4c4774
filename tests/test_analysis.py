"""Tests for the static-analysis framework (``repro lint``).

Every built-in rule is exercised in both polarities — a fixture that must
fire and a near-identical one that must stay clean — plus the suppression
grammar, the JSON output schema, the CLI wiring, and the meta-test that
the real ``src/`` tree is lint-clean (the repo's zero-baseline policy).
"""

from __future__ import annotations

import ast
import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Checker,
    Finding,
    LintReport,
    ParsedModule,
    SUPPRESSION_RULE,
    all_checkers,
    check_module,
    checker_for,
    collect_suppressions,
    package_path_of,
    parse_marker,
    parse_module,
    run_checks,
    run_lint,
)
from repro.analysis import registry as registry_module
from repro.analysis.registry import register
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

RULE_IDS = {
    "async-hygiene",
    "clock-discipline",
    "determinism",
    "error-handling",
    "export-consistency",
}


def lint_file(tmp_path: Path, relpath: str, source: str, rules=None) -> LintReport:
    """Write one fixture module and run the checkers over it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_checks([tmp_path], rules=rules)


def rules_fired(report: LintReport) -> list[str]:
    return [finding.rule for finding in report.findings]


# ----------------------------------------------------------------------
# framework plumbing
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_builtin_rules_register(self):
        assert {c.rule_id for c in all_checkers()} >= RULE_IDS

    def test_builtin_rule_set_is_exact(self):
        builtin = {
            c.rule_id for c in all_checkers()
            if c.__module__.startswith("repro.analysis.rules.")
        }
        assert builtin == RULE_IDS

    def test_checker_for_unknown_rule(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            checker_for("no-such-rule")

    def test_duplicate_registration_rejected(self):
        first = checker_for("determinism")
        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Impostor(Checker):
                rule_id = "determinism"
        assert checker_for("determinism") is first

    def test_package_path_anchors_at_repro(self, tmp_path):
        inside = tmp_path / "deep" / "repro" / "core" / "mod.py"
        assert package_path_of(inside) == "repro/core/mod.py"
        outside = tmp_path / "scripts" / "tool.py"
        assert package_path_of(outside) == "tool.py"

    def test_custom_plugin_rule_runs_through_check_module(self, tmp_path):
        @register
        class NoPrintChecker(Checker):
            rule_id = "test-no-print"
            description = "print() is banned (test rule)"

            def check(self, module: ParsedModule):
                for lineno, line in enumerate(module.source.splitlines(), 1):
                    if "print(" in line:
                        yield self.finding(module, lineno, "print call")

        try:
            path = tmp_path / "mod.py"
            path.write_text("print('hi')\n")
            module = parse_module(path)
            found = check_module(module, [NoPrintChecker()])
            assert [f.rule for f in found] == ["test-no-print"]
        finally:
            registry_module._CHECKERS.pop("test-no-print")

    def test_parse_error_becomes_a_finding(self, tmp_path):
        report = lint_file(tmp_path, "repro/core/bad.py", "def broken(:\n")
        assert rules_fired(report) == ["parse-error"]
        assert not report.ok

    def test_finding_format_and_severity_validation(self):
        finding = Finding(path="a.py", line=3, rule="r", message="m", hint="h")
        assert finding.format() == "a.py:3: [r] m\n    hint: h"
        with pytest.raises(ValueError):
            Finding(path="a.py", line=1, rule="r", message="m", severity="fatal")


# ----------------------------------------------------------------------
# rule: clock-discipline
# ----------------------------------------------------------------------
class TestClockDiscipline:
    def test_fires_on_unaccounted_comparison(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/skyline/mod.py",
            """
            from repro.skyline.dominance import dominates

            def filter_one(u, v):
                return dominates(u, v)
            """,
        )
        assert rules_fired(report) == ["clock-discipline"]
        assert "filter_one" in report.findings[0].message

    def test_fires_at_module_level(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/join/mod.py",
            """
            from repro.skyline.dominance import dominates

            RESULT = dominates((1.0,), (2.0,))
            """,
        )
        assert rules_fired(report) == ["clock-discipline"]
        assert "module level" in report.findings[0].message

    def test_clean_with_accounting_parameter(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/skyline/mod.py",
            """
            from repro.skyline.dominance import dominates

            def filter_one(u, v, on_comparison):
                on_comparison()
                return dominates(u, v)
            """,
        )
        assert report.ok

    def test_clean_when_charging_a_clock(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.skyline.dominance import dominates

            def filter_one(self, u, v):
                self.clock.charge("dominance_cmp")
                return dominates(u, v)
            """,
        )
        assert report.ok

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/serve/mod.py",
            """
            from repro.skyline.dominance import dominates

            def f(u, v):
                return dominates(u, v)
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# rule: determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_fires_on_wall_clock_read(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/core/mod.py",
            """
            import time

            def step(self):
                return time.perf_counter()
            """,
        )
        assert rules_fired(report) == ["determinism"]
        assert "wall-clock" in report.findings[0].message

    def test_fires_on_unseeded_rng(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/cache/mod.py",
            """
            import numpy as np

            def sample():
                return np.random.default_rng()
            """,
        )
        assert rules_fired(report) == ["determinism"]
        assert "unseeded" in report.findings[0].message

    def test_fires_on_global_random_and_id(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/query/mod.py",
            """
            import random

            def pick(items):
                random.shuffle(items)
                return sorted(items, key=lambda x: id(x))
            """,
        )
        assert sorted(rules_fired(report)) == ["determinism", "determinism"]

    def test_seeded_rng_with_marker_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/data/mod.py",
            """
            import numpy as np

            def tables(self):
                rng = np.random.default_rng(self.seed)  # repro: allow[determinism] — seeded by the spec
                return rng
            """,
        )
        assert report.ok

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/serve/mod.py",
            """
            import time

            def now():
                return time.time()
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# rule: async-hygiene
# ----------------------------------------------------------------------
class TestAsyncHygiene:
    def test_fires_on_blocking_call_in_async_def(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/serve/mod.py",
            """
            import time

            async def pump(self):
                time.sleep(0.1)
            """,
        )
        assert rules_fired(report) == ["async-hygiene"]
        assert "blocking call time.sleep()" in report.findings[0].message

    def test_fires_on_dropped_coroutine(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/session/scheduler.py",
            """
            async def drain(self):
                return None

            async def run(self):
                drain(self)
            """,
        )
        assert rules_fired(report) == ["async-hygiene"]
        assert "never awaited" in report.findings[0].message

    def test_clean_async_code(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/serve/mod.py",
            """
            import asyncio

            async def drain(self):
                return None

            async def run(self):
                await asyncio.sleep(0)
                await drain(self)
                task = asyncio.create_task(drain(self))
                return task
            """,
        )
        assert report.ok

    def test_sync_function_may_block(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/serve/mod.py",
            """
            import time

            def wait():
                time.sleep(0.1)
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# rule: error-handling
# ----------------------------------------------------------------------
class TestErrorHandling:
    def test_fires_on_swallowing_broad_except(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/session/mod.py",
            """
            def tick(self):
                try:
                    self.step()
                except Exception:
                    pass
            """,
        )
        assert rules_fired(report) == ["error-handling"]

    def test_fires_on_broad_contextlib_suppress(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/serve/mod.py",
            """
            import contextlib

            def tick(self):
                with contextlib.suppress(Exception):
                    self.step()
            """,
        )
        assert rules_fired(report) == ["error-handling"]

    def test_clean_when_reraising(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/session/mod.py",
            """
            def tick(self):
                try:
                    self.step()
                except Exception:
                    self.retire_failed()
                    raise
            """,
        )
        assert report.ok

    def test_clean_when_recording_terminal_state(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/session/mod.py",
            """
            def tick(self):
                try:
                    self.step()
                except Exception as exc:
                    self.query.error = exc
            """,
        )
        assert report.ok

    def test_narrow_except_is_fine(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/session/mod.py",
            """
            def tick(self):
                try:
                    self.step()
                except (ValueError, KeyError):
                    pass
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# rule: export-consistency
# ----------------------------------------------------------------------
class TestExportConsistency:
    def test_fires_on_missing_dunder_all(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/widgets/__init__.py",
            """
            from repro.widgets.impl import thing
            """,
        )
        fired = rules_fired(report)
        assert "export-consistency" in fired
        assert any("no __all__" in f.message for f in report.findings)

    def test_fires_on_unresolvable_entry(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/widgets/__init__.py",
            """
            from repro.widgets.impl import thing

            __all__ = ["thing", "gone"]
            """,
        )
        assert rules_fired(report) == ["export-consistency"]
        assert "'gone'" in report.findings[0].message

    def test_fires_on_duplicate_entry(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/widgets/__init__.py",
            """
            from repro.widgets.impl import thing

            __all__ = ["thing", "thing"]
            """,
        )
        assert rules_fired(report) == ["export-consistency"]
        assert "duplicate" in report.findings[0].message

    def test_fires_on_undeclared_reexport(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/widgets/__init__.py",
            """
            from repro.widgets.impl import thing, other

            __all__ = ["thing"]
            """,
        )
        assert rules_fired(report) == ["export-consistency"]
        assert "'other'" in report.findings[0].message

    def test_consistent_init_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/widgets/__init__.py",
            """
            from repro.widgets.impl import thing as _impl_thing
            from repro.widgets.impl import other

            CONSTANT = 3

            def helper():
                return _impl_thing

            __all__ = ["CONSTANT", "helper", "other"]
            """,
        )
        assert report.ok

    def test_plain_module_without_dunder_all_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/widgets/impl.py",
            """
            def thing():
                return 1
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    FIRING = """
    import time

    def step(self):
        return time.time(){marker}
    """

    def test_marker_with_reason_suppresses_silently(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/core/mod.py",
            self.FIRING.format(
                marker="  # repro: allow[determinism] — fixture says so"
            ),
        )
        assert report.ok

    def test_reasonless_marker_suppresses_but_is_itself_a_finding(
        self, tmp_path
    ):
        report = lint_file(
            tmp_path,
            "repro/core/mod.py",
            self.FIRING.format(marker="  # repro: allow[determinism]"),
        )
        assert rules_fired(report) == [SUPPRESSION_RULE]
        assert "without a reason" in report.findings[0].message

    def test_marker_for_another_rule_does_not_suppress(self, tmp_path):
        report = lint_file(
            tmp_path,
            "repro/core/mod.py",
            self.FIRING.format(
                marker="  # repro: allow[clock-discipline] — wrong rule"
            ),
        )
        assert rules_fired(report) == ["determinism"]

    def test_one_marker_may_name_several_rules(self):
        rules, reason = parse_marker(
            "# repro: allow[determinism, clock-discipline] — shared fixture"
        )
        assert rules == frozenset({"determinism", "clock-discipline"})
        assert reason == "shared fixture"

    def test_marker_inside_a_string_is_not_a_suppression(self):
        table = collect_suppressions(
            'TEXT = "# repro: allow[determinism] — not a comment"\n'
        )
        assert not table.by_line and not table.unexplained


# ----------------------------------------------------------------------
# CLI and output formats
# ----------------------------------------------------------------------
class TestCli:
    def test_json_output_schema(self, tmp_path):
        path = tmp_path / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\ndef f():\n    return time.time()\n")
        out = io.StringIO()
        code = run_lint([str(tmp_path)], fmt="json", out=out)
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert set(payload["rules"]) >= RULE_IDS
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "message", "hint"
        }
        assert finding["rule"] == "determinism"
        assert finding["line"] == 4

    def test_text_output_and_clean_exit(self, tmp_path):
        path = tmp_path / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("VALUE = 1\n")
        out = io.StringIO()
        assert run_lint([str(tmp_path)], out=out) == 0
        assert "clean: 1 file scanned" in out.getvalue()

    def test_rule_filter(self, tmp_path):
        path = tmp_path / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        out = io.StringIO()
        assert run_lint(
            [str(tmp_path)], rules=["clock-discipline"], out=out
        ) == 0
        assert run_lint(
            [str(tmp_path)], rules=["determinism"], out=io.StringIO()
        ) == 1

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        err = io.StringIO()
        code = run_lint(
            [str(tmp_path)], rules=["nope"], out=io.StringIO(), err=err
        )
        assert code == 2
        assert "unknown lint rule" in err.getvalue()

    def test_missing_path_is_a_usage_error(self, tmp_path):
        err = io.StringIO()
        code = run_lint(
            [str(tmp_path / "absent")], out=io.StringIO(), err=err
        )
        assert code == 2
        assert "no such path" in err.getvalue()

    def test_repro_lint_subcommand_and_list_rules(self, capsys, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("VALUE = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        assert cli_main(["lint", "--list-rules"]) == 0
        listing = capsys.readouterr().out
        for rule in RULE_IDS:
            assert rule in listing


# ----------------------------------------------------------------------
# the zero-baseline meta-test
# ----------------------------------------------------------------------
class TestZeroBaseline:
    def test_real_src_tree_is_lint_clean(self):
        report = run_checks([SRC])
        assert report.files_scanned > 50
        problems = "\n".join(f.format() for f in report.findings)
        assert report.ok, f"repro lint must stay clean over src/:\n{problems}"

    def test_cli_over_real_src_exits_zero(self):
        assert cli_main(["lint", str(SRC)]) == 0

    def test_src_imports_no_process_pool(self):
        """Execution is one in-process kernel: no module under src/ imports
        multiprocessing or a process-pool executor."""
        offenders = []
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        alias.name for alias in node.names
                    ]
                else:
                    continue
                if any(
                    name.split(".")[0] == "multiprocessing"
                    or name == "ProcessPoolExecutor"
                    for name in names
                ):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []
