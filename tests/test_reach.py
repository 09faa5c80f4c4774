"""``benchmarks/reach.py``: the line count it attributes to each function,
and the hook that records which functions a run reached."""

from __future__ import annotations

import ast
import sys
import textwrap

import pytest

from benchmarks import reach

MODULE = textwrap.dedent('''\
    import functools

    X = 1


    def plain():
        return X


    @functools.lru_cache
    def decorated():
        def inner():
            return 2

        return inner()


    class Box:
        size = 3

        def method(self):
            return self.size
''')


def test_each_line_counts_for_its_innermost_function_only(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    # Keyed by the code object's first line: the first decorator, if any.
    assert reach.function_lines(path) == {
        6: 2,  # plain
        10: 3,  # decorated: its def, its blank line and its return
        12: 2,  # inner
        21: 2,  # Box.method; the class body counts for nothing
    }


def test_the_table_counts_unreached_lines_per_module(monkeypatch, tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "module.py").write_text(MODULE)
    (package / "empty.py").write_text("X = 1\n")
    monkeypatch.setattr(reach, "SRC", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)
    reached = {(str(package / "module.py"), 6), (str(package / "module.py"), 21)}
    assert reach.table(reached) == [("repro/module.py", 9, 5), ("repro/empty.py", 0, 0)]


def test_the_hook_records_what_a_run_calls(monkeypatch):
    script = (
        "from repro.skyline.preferences import ParetoPreference, lowest\n"
        "ParetoPreference([lowest('x')]).signs_for(['x'])\n"
    )
    monkeypatch.setitem(reach.SURFACES, "probe", [[sys.executable, "-c", script]])
    reached = reach.run_surfaces(["probe"])
    path = reach.PACKAGE / "skyline" / "preferences.py"
    first = {
        node.name: min([node.lineno] + [d.lineno for d in node.decorator_list])
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    ran = {line for file, line in reached if file == str(path)}
    assert {first["__init__"], first["signs_for"]} <= ran
    assert first["all_lowest"] not in ran


@pytest.mark.parametrize("argv", reach.SURFACES["cli"], ids=lambda argv: argv[3])
def test_every_cli_surface_run_parses(argv):
    from repro.cli import build_parser

    assert argv[1:3] == ["-m", "repro"]
    assert build_parser().parse_args(argv[3:]).fn.__name__ == f"_cmd_{argv[3]}"
