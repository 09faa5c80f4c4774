"""Row-free phase 2: pinned identity and the semantics it must not bend.

The region join works on partition column blocks and index
pairs and materialises row tuples only for emitted results.  That is a
change of *representation*: the algorithm must do exactly the same work.
``tests/data/rowfree_golden.json`` pins, for a small seeded matrix, the
result-key sequence and the full virtual-clock snapshot recorded on the
commit **before** the rewrite; :class:`TestPinnedIdentity` asserts the
current code reproduces every entry exactly, and that a columnar follow
query whose arrivals another handle appends reproduces the ``columnar``
entry.

Regenerate the golden file (only ever from a commit whose behaviour is the
reference) with::

    PYTHONPATH=src:. python tests/test_rowfree_phase2.py

A change that only lowers some clock kinds regenerates the affected rows
under a guard (see :func:`_regenerate`)::

    PYTHONPATH=src:. python tests/test_rowfree_phase2.py --mode follow
    PYTHONPATH=src:. python tests/test_rowfree_phase2.py --mode all \\
        --may-fall dominance_cmp
"""

from __future__ import annotations

import itertools
import json
import pathlib
import tempfile

import pytest

from repro.core import progdetermine, tuple_level
from repro.core.engine import ProgXeEngine
from repro.core.verify import verify_results
from repro.data.workloads import SyntheticWorkload
from repro.query.expressions import Attr, Const
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.smj import JoinCondition, SkyMapJoinQuery
from repro.runtime.clock import VirtualClock
from repro.skyline.preferences import ParetoPreference, lowest
from repro.storage.sources import ColumnarFileSource, write_columnar
from repro.storage.table import Table

from tests.conftest import oracle_candidates
from tests.test_streaming import make_streaming_pair

GOLDEN = pathlib.Path(__file__).parent / "data" / "rowfree_golden.json"

PARTITIONINGS = ("grid", "quadtree")
BACKENDS = ("table", "columnar")
MODES = ("static", "follow")
#: ``FLUSH_PAIRS`` values; no region here has 1 024 pairs, so that one
#: flushes each region whole, as the default does.
FLUSH_SIZES = (1, 7, 1024)
SMALLER_SIDES = ("left", "right")
CASES = list(
    itertools.product(PARTITIONINGS, BACKENDS, MODES, FLUSH_SIZES, SMALLER_SIDES)
)
#: Follow cases whose arrivals a second handle appends to the columnar
#: dataset (the query's handle refreshes).  The same rows arrive at the
#: same steps, so each must reproduce the golden ``columnar`` entry.
APPENDED_CASES = list(
    itertools.product(
        PARTITIONINGS, ("columnar-appended",), ("follow",), FLUSH_SIZES,
        SMALLER_SIDES,
    )
)


def case_id(case) -> str:
    return "-".join(str(part) for part in case)


def golden_id(case) -> str:
    """The golden entry ``case`` must reproduce."""
    partitioning, backend, *rest = case
    if backend == "columnar-appended":
        backend = "columnar"
    return case_id((partitioning, backend, *rest))


def run_case(case, tmp_path: pathlib.Path) -> dict:
    """Result-key sequence + clock snapshot of one matrix entry."""
    partitioning, backend, mode, flush_pairs, smaller = case
    workload = SyntheticWorkload(n=200, d=2, sigma=0.1, seed=20100301)
    sizes = {"R": 110, "T": 200} if smaller == "left" else {"R": 200, "T": 110}
    rows = {
        alias: list(table.rows)[: sizes[alias]]
        for alias, table in workload.tables().items()
    }
    columns = {
        alias: list(table.schema.columns)
        for alias, table in workload.tables().items()
    }
    follow = mode == "follow"
    sources, appenders = {}, {}
    for alias in ("R", "T"):
        # Follow queries start on the first half; the rest arrives in chunks.
        initial = rows[alias][: sizes[alias] // 2] if follow else rows[alias]
        prefix = Table.from_rows(alias, columns[alias], initial)
        sources[alias], appenders[alias] = make_streaming_pair(
            backend, alias, prefix, tmp_path
        )
    clock = VirtualClock()
    engine = ProgXeEngine(
        workload.query().bind(sources), clock,
        partitioning=partitioning, input_cells=2, follow=follow,
    )
    kernel = engine.kernel()
    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuple_level, "FLUSH_PAIRS", flush_pairs)
        if follow:
            rest = {
                alias: rows[alias][sizes[alias] // 2:] for alias in ("R", "T")
            }
            third = len(rest["R"]) // 2
            # Three delta chunks, appended between kernel steps.
            for steps, alias, chunk in (
                (3, "R", rest["R"][:third]),
                (4, "T", rest["T"]),
                (2, "R", rest["R"][third:]),
            ):
                for _ in range(steps):
                    results.extend(kernel.step().results)
                appenders[alias](chunk)
            kernel.close_ingest()
        while not kernel.finished:
            results.extend(kernel.step().results)
    return {
        "keys": [[list(r.left_row), list(r.right_row)] for r in results],
        "clock": dict(sorted(clock.snapshot().items())),
        "vtime": clock.now(),
    }


class TestPinnedIdentity:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_golden_covers_the_matrix(self, golden):
        assert sorted(golden) == sorted(case_id(c) for c in CASES)
        assert any(len(entry["keys"]) > 3 for entry in golden.values())

    @pytest.mark.parametrize("case", CASES + APPENDED_CASES, ids=case_id)
    def test_reproduces_parent_commit(self, case, golden, tmp_path):
        got = run_case(case, tmp_path)
        want = golden[golden_id(case)]
        assert got["keys"] == want["keys"]
        assert got["clock"] == want["clock"]
        assert got["vtime"] == want["vtime"]

    @pytest.mark.parametrize("lanes", (1, 64), ids=lambda n: f"lanes-{n}")
    @pytest.mark.parametrize("case", CASES + APPENDED_CASES, ids=case_id)
    def test_dominance_blocks_change_nothing(
        self, case, lanes, golden, tmp_path, monkeypatch
    ):
        """Tiny ``insert_batch`` kernel blocks leave entries and charges
        alone; at one lane every launch tests a single column."""
        monkeypatch.setattr(progdetermine, "DOMINANCE_LANES", lanes)
        got = run_case(case, tmp_path)
        want = golden[golden_id(case)]
        assert got["keys"] == want["keys"]
        assert got["clock"] == want["clock"]
        assert got["vtime"] == want["vtime"]


# ----------------------------------------------------------------------
# semantics the index-pair join must keep
# ----------------------------------------------------------------------
def sum_query(constant_dim: bool = False) -> SkyMapJoinQuery:
    second = Const(5.0) if constant_dim else Attr("R", "a1") + Attr("T", "b1")
    return SkyMapJoinQuery(
        left_alias="R",
        right_alias="T",
        join=JoinCondition("jkey", "jkey"),
        mappings=MappingSet(
            [
                MappingFunction("x0", Attr("R", "a0") + Attr("T", "b0")),
                MappingFunction("x1", second),
            ]
        ),
        preference=ParetoPreference([lowest("x0"), lowest("x1")]),
    )


def run_keys(bound, **engine_kwargs):
    clock = VirtualClock()
    results = list(ProgXeEngine(bound, clock, **engine_kwargs).run())
    return [r.key() for r in results], results, clock


def key_tables(left_keys, right_keys):
    """Tables whose row ``i`` carries join key ``keys[i]`` and spread-out
    attribute values (so rows land in different partitions)."""
    left = Table.from_rows(
        "R", ["id", "jkey", "a0", "a1"],
        [(f"R{i}", k, 1.0 + 7 * i % 40, 40.0 - 7 * i % 40)
         for i, k in enumerate(left_keys)],
    )
    right = Table.from_rows(
        "T", ["id", "jkey", "b0", "b1"],
        [(f"T{i}", k, 1.0 + 11 * i % 40, 40.0 - 11 * i % 40)
         for i, k in enumerate(right_keys)],
    )
    return {"R": left, "T": right}


class TestJoinKeySemantics:
    """Probing uses a plain ``dict``: Python equality, no float coercion."""

    def assert_matches_oracle(self, tables, expected_pairs):
        bound = sum_query().bind(tables)
        keys, results, clock = run_keys(bound, input_cells=2)
        report = verify_results(bound, results)
        assert report.ok, report.render()
        # The oracle's nested-loop join compares keys with the same Python
        # equality; the engine charges each pair it joins once, and joins
        # no more (regions skipped by the look-ahead are never joined).
        assert len(oracle_candidates(bound)) == expected_pairs
        assert clock.count("join_result") <= expected_pairs
        joined_ids = {(lrow[1], rrow[1]) for lrow, rrow in keys}
        return joined_ids

    def test_numeric_looking_strings_stay_distinct(self):
        tables = key_tables(["01", "1", "01", "1"], ["1", "1", "01", "x"])
        joined = self.assert_matches_oracle(tables, expected_pairs=2 * 2 + 2 * 1)
        assert joined <= {("1", "1"), ("01", "01")}

    def test_int_and_float_keys_are_equal(self):
        tables = key_tables([1, 2.0, 3, 1.0], [1.0, 2, 4, 1])
        joined = self.assert_matches_oracle(tables, expected_pairs=2 * 2 + 1)
        assert {(float(a), float(b)) for a, b in joined} <= {(1.0, 1.0), (2.0, 2.0)}
        assert joined  # something did join across int/float

    def test_many_to_many_duplicates(self):
        tables = key_tables(["k"] * 9 + ["m"] * 3, ["k"] * 7 + ["m"] * 5)
        self.assert_matches_oracle(tables, expected_pairs=9 * 7 + 3 * 5)

    def test_key_present_on_one_side_only(self):
        tables = key_tables(["a", "b", "only-left"] * 4, ["a", "only-right"] * 5)
        joined = self.assert_matches_oracle(tables, expected_pairs=4 * 5)
        assert joined == {("a", "a")}


class TestRepresentationEdges:
    def test_constant_valued_mapping_dimension(self):
        bound = sum_query(constant_dim=True).bind(
            SyntheticWorkload(n=60, d=2, sigma=0.1, seed=3).tables()
        )
        _, results, _ = run_keys(bound)
        assert verify_results(bound, results).ok
        assert {r.mapped[1] for r in results} == {5.0}

    def test_pushthrough_pruned_tables(self, monkeypatch):
        bound = SyntheticWorkload(n=150, d=2, sigma=0.05, seed=5).bound()
        keys, results, _ = run_keys(bound, pushthrough=True)
        assert verify_results(bound, results).ok
        assert set(keys) == set(run_keys(bound)[0])
        monkeypatch.setattr(tuple_level, "FLUSH_PAIRS", 3)
        assert set(keys) == set(run_keys(bound, pushthrough=True)[0])

    def test_rows_fetched_are_bounded_by_results(self, tmp_path, monkeypatch):
        """A columnar source decodes rows for emitted results only."""
        workload = SyntheticWorkload(n=400, d=2, sigma=0.05, seed=11)
        sources = {}
        for alias, table in workload.tables().items():
            path = tmp_path / f"{alias}.col"
            write_columnar(path, table)
            sources[alias] = ColumnarFileSource(path, name=alias)
        fetched = {"R": 0, "T": 0}
        original = ColumnarFileSource.fetch_rows

        def spy(source, row_ids):
            rows = original(source, row_ids)
            fetched[source.name] += len(rows)
            return rows

        monkeypatch.setattr(ColumnarFileSource, "fetch_rows", spy)
        bound = workload.query().bind(sources)
        keys, results, clock = run_keys(bound)
        assert results and clock.count("join_result") > 20 * len(results)
        assert fetched["R"] <= len(results)
        assert fetched["T"] <= len(results)
        assert verify_results(bound, results).ok
        assert keys == run_keys(workload.bound())[0]  # same as from RAM


#: Clock kinds a guarded regeneration may lower (never raise) by default.
_MAY_FALL = ("partition_op", "queue_op")


def _guard(
    name: str, old: dict, new: dict, may_fall: tuple[str, ...] = _MAY_FALL
) -> list[str]:
    """Why ``new`` may not replace ``old`` in a guarded regeneration."""
    problems = []
    if new["keys"] != old["keys"]:
        problems.append(f"{name}: result-key sequence differs")
    for kind in sorted(set(old["clock"]) | set(new["clock"])):
        was, now = old["clock"].get(kind, 0), new["clock"].get(kind, 0)
        if kind not in may_fall and now != was:
            problems.append(f"{name}: clock[{kind}] {was} -> {now}")
        elif now > was:
            problems.append(f"{name}: clock[{kind}] rose {was} -> {now}")
    if new["vtime"] > old["vtime"]:
        problems.append(f"{name}: vtime rose {old['vtime']} -> {new['vtime']}")
    return problems


def _regenerate(
    mode: str | None = None, may_fall: tuple[str, ...] = _MAY_FALL
) -> int:
    """Rewrite the golden file; returns the process exit code.

    Without ``mode`` every row is rewritten, unguarded (only ever from a
    commit whose behaviour is the reference).  With ``mode`` (``static``,
    ``follow`` or ``all``) only the selected rows are, the others are
    carried over untouched, and nothing is written unless every rewritten
    row keeps its result keys and every clock count — except the
    ``may_fall`` kinds, which may only fall — and its ``vtime`` did not
    rise.
    """
    current = json.loads(GOLDEN.read_text()) if mode else {}
    golden, problems = dict(current), []
    for case in CASES:
        if mode not in (None, "all", case[2]):
            continue
        with tempfile.TemporaryDirectory() as tmp:
            row = golden[case_id(case)] = run_case(case, pathlib.Path(tmp))
        if mode:
            problems += _guard(
                case_id(case), current[case_id(case)], row, may_fall
            )
    if problems:
        print("\n".join(problems))
        print(f"refused: {GOLDEN} left untouched")
        return 1
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    changed = sum(golden[k] != current.get(k) for k in golden)
    print(f"wrote {GOLDEN} ({len(golden)} cases, {changed} changed)")
    return 0


class TestGuardedRegeneration:
    """``--mode`` rewrites only the selected rows, and only if nothing but
    the ``--may-fall`` kinds moved, downwards, and ``vtime`` did not rise."""

    ROW = {
        "keys": [[[1], [2]]],
        "clock": {"discard": 4, "partition_op": 90, "queue_op": 30},
        "vtime": 31.0,
    }

    def variant(self, vtime=None, **clock):
        return {
            **self.ROW,
            "clock": {**self.ROW["clock"], **clock},
            "vtime": self.ROW["vtime"] if vtime is None else vtime,
        }

    def test_guard_accepts_only_falling_bookkeeping(self):
        assert _guard("c", self.ROW, self.ROW) == []
        assert _guard("c", self.ROW, self.variant(partition_op=70, queue_op=9)) == []
        assert _guard("c", self.ROW, self.variant(queue_op=31)) == [
            "c: clock[queue_op] rose 30 -> 31"
        ]
        assert _guard("c", self.ROW, self.variant(discard=3)) == [
            "c: clock[discard] 4 -> 3"
        ]
        assert _guard("c", self.ROW, self.variant(join_result=1)) == [
            "c: clock[join_result] 0 -> 1"
        ]
        assert _guard("c", self.ROW, {**self.ROW, "keys": []}) == [
            "c: result-key sequence differs"
        ]

    def test_guard_refuses_a_rising_vtime(self):
        assert _guard("c", self.ROW, self.variant(vtime=31.5)) == [
            "c: vtime rose 31.0 -> 31.5"
        ]
        assert _guard("c", self.ROW, self.variant(vtime=30.0)) == []

    def test_guard_takes_the_kinds_that_may_fall(self):
        fell = self.variant(discard=3, vtime=30.75)
        assert _guard("c", self.ROW, fell, ("discard",)) == []
        assert _guard("c", self.ROW, self.variant(discard=5), ("discard",)) == [
            "c: clock[discard] rose 4 -> 5"
        ]
        # Naming a kind replaces the default pair, it does not extend it.
        assert _guard("c", self.ROW, self.variant(queue_op=9), ("discard",)) == [
            "c: clock[queue_op] 30 -> 9"
        ]

    def regenerate(self, monkeypatch, tmp_path, row, mode="follow", **kwargs):
        import tests.test_rowfree_phase2 as module

        golden = tmp_path / "golden.json"
        before = {case_id(case): self.ROW for case in CASES}
        golden.write_text(json.dumps(before, indent=0, sort_keys=True) + "\n")
        ran = []

        def fake_run_case(case, tmp):
            ran.append(case)
            return row

        monkeypatch.setattr(module, "GOLDEN", golden)
        monkeypatch.setattr(module, "run_case", fake_run_case)
        code = module._regenerate(mode, **kwargs)
        assert ran == [case for case in CASES if mode in ("all", case[2])]
        return code, golden, before

    def test_partial_regeneration_rewrites_follow_rows_only(
        self, monkeypatch, tmp_path
    ):
        lowered = self.variant(partition_op=50)
        code, golden, before = self.regenerate(monkeypatch, tmp_path, lowered)
        assert code == 0
        after = json.loads(golden.read_text())
        for case in CASES:
            want = lowered if case[2] == "follow" else before[case_id(case)]
            assert after[case_id(case)] == want

    def test_mode_all_rewrites_every_row(self, monkeypatch, tmp_path):
        lowered = self.variant(discard=2, vtime=30.5)
        code, golden, _ = self.regenerate(
            monkeypatch, tmp_path, lowered, mode="all", may_fall=("discard",)
        )
        assert code == 0
        after = json.loads(golden.read_text())
        assert after == {case_id(case): lowered for case in CASES}

    def test_mode_static_rewrites_static_rows_only(self, monkeypatch, tmp_path):
        lowered = self.variant(queue_op=10)
        code, golden, before = self.regenerate(
            monkeypatch, tmp_path, lowered, mode="static"
        )
        assert code == 0
        after = json.loads(golden.read_text())
        for case in CASES:
            want = lowered if case[2] == "static" else before[case_id(case)]
            assert after[case_id(case)] == want

    @pytest.mark.parametrize(
        "row",
        [{"discard": 5}, {"discard": 2, "vtime": 31.5}, {"partition_op": 80}],
        ids=["kind-rose", "vtime-rose", "kind-not-named"],
    )
    def test_a_refused_mode_all_regeneration_writes_nothing(
        self, monkeypatch, tmp_path, row
    ):
        code, golden, before = self.regenerate(
            monkeypatch, tmp_path, self.variant(**row), mode="all",
            may_fall=("discard",),
        )
        assert code == 1
        assert json.loads(golden.read_text()) == before

    def test_a_refused_regeneration_writes_nothing(self, monkeypatch, tmp_path):
        code, golden, before = self.regenerate(
            monkeypatch, tmp_path, self.variant(discard=5)
        )
        assert code == 1
        assert json.loads(golden.read_text()) == before


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=_regenerate.__doc__)
    parser.add_argument("--mode", choices=(*MODES, "all"))
    parser.add_argument(
        "--may-fall", nargs="+", default=list(_MAY_FALL), metavar="KIND"
    )
    args = parser.parse_args()
    raise SystemExit(_regenerate(args.mode, tuple(args.may_fall)))
