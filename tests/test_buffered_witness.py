"""A buffered result that dominates a join's corner saves the join.

``process_region`` pools the entries of the region's corner cell and its
lower cone (:meth:`ExecutionState.witnesses`) right after its
``unmarked_covered == 0`` exit: if one strictly dominates ``region.lower``,
the region is charged one ``discard`` and completed without a join.
Otherwise, in a region expecting ``ROW_TEST_PAIRS_PER_ROW`` pairs per row
or more, each row whose own corner an entry strictly dominates stays out of
the join.
Both tests rest on one premise — every pair a region joins maps to a vector
``>=`` its lower corner and the corners of its two rows — under which each
pair left out would have died in the (1a) scan without surviving, evicting
or marking.

* :class:`TestPremise` checks the premise property-style, with the tests
  off so that every region is joined whole.
* :class:`TestSameAnswers` runs the engine with the tests on and off: the
  same results, the same region steps, and clock counts that fall only in
  the join's kinds.
* :class:`TestWitness`, :class:`TestDominatedPoints` and
  :class:`TestRowWitness` pin the edge cases of the two tests.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import output_grid, tuple_level
from repro.core.engine import ProgXeEngine
from repro.core.output_grid import OutputGrid, dominated_points, dominates_point
from repro.core.progdetermine import ExecutionState
from repro.core.regions import OutputRegion
from repro.core.verify import verify_results
from repro.data.workloads import SyntheticWorkload
from repro.query.expressions import Attr
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.smj import JoinCondition, SkyMapJoinQuery
from repro.runtime.clock import VirtualClock
from repro.skyline.preferences import ParetoPreference, highest, lowest
from repro.storage.table import Table

from tests.plan_reference import box_cell_range, iter_coords_in_range
from tests.test_streaming import make_streaming_pair

#: The clock kinds a skipped join no longer charges.
FALLING = ("discard", "join_build", "join_probe", "join_result", "map", "dominance_cmp")


def witness_off(patch) -> None:
    """Join every region whole: no region has a witness pool."""
    patch.setattr(ExecutionState, "witnesses", lambda self, region: None)


def witnessed(state: ExecutionState, region: OutputRegion) -> bool:
    """The dispatch-time test: a pooled witness dominates the corner."""
    pool = state.witnesses(region)
    return pool is not None and dominates_point(pool, np.asarray(region.lower))


def split_rows(workload: SyntheticWorkload, follow: bool):
    """Per alias: the rows present at planning and the rows that arrive."""
    columns, live, arriving = {}, {}, {}
    for alias, table in workload.tables().items():
        rows = list(table.rows)
        cut = len(rows) // 2 if follow else len(rows)
        columns[alias] = list(table.schema.columns)
        live[alias], arriving[alias] = rows[:cut], rows[cut:]
    return columns, live, arriving


def drive(kernel, appenders, arriving) -> list:
    """Step ``kernel`` to the end; rows arrive in three chunks between steps
    when ``arriving`` has any.  Returns the step reports."""
    reports = []
    if any(arriving.values()):
        third = len(arriving["R"]) // 2
        for steps, alias, chunk in (
            (3, "R", arriving["R"][:third]),
            (4, "T", arriving["T"]),
            (2, "R", arriving["R"][third:]),
        ):
            for _ in range(steps):
                reports.append(kernel.step())
            appenders[alias](chunk)
        kernel.close_ingest()
    while not kernel.finished:
        reports.append(kernel.step())
    return reports


# ----------------------------------------------------------------------
# the premise
# ----------------------------------------------------------------------
def premise_query(weighted: bool, first_highest: bool) -> SkyMapJoinQuery:
    x0 = (2 * Attr("R", "a0") if weighted else Attr("R", "a0")) + Attr("T", "b0")
    return SkyMapJoinQuery(
        left_alias="R",
        right_alias="T",
        join=JoinCondition("jkey", "jkey"),
        mappings=MappingSet(
            [
                MappingFunction("x0", x0),
                MappingFunction("x1", Attr("R", "a1") + Attr("T", "b1")),
            ]
        ),
        preference=ParetoPreference(
            [highest("x0") if first_highest else lowest("x0"), lowest("x1")]
        ),
    )


class TestPremise:
    """Every pair a region joins maps to a vector ``>=`` ``region.lower``
    and ``>=`` the corners of both its rows
    (:meth:`~repro.query.smj.BoundQuery.row_corners`)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        partitioning=st.sampled_from(["grid", "quadtree"]),
        follow=st.booleans(),
        weighted=st.booleans(),
        first_highest=st.booleans(),
        # Arrivals stretched about the frozen input domain's midpoint:
        # beyond 1, some land outside it and clamp into edge partitions.
        stretch=st.sampled_from([1.0, 1.5, 3.0]),
    )
    def test_joined_pairs_are_above_the_region_corner(
        self, seed, partitioning, follow, weighted, first_highest, stretch
    ):
        workload = SyntheticWorkload(n=60, d=2, sigma=0.1, seed=seed)
        columns, live, arriving = split_rows(workload, follow)
        for alias, rows in arriving.items():
            arriving[alias] = [
                (*row[:2], *(50.0 + stretch * (v - 50.0) for v in row[2:]))
                for row in rows
            ]
        tables = {a: Table.from_rows(a, columns[a], live[a]) for a in live}
        appenders = {a: tables[a].extend_rows for a in tables}
        bound = premise_query(weighted, first_highest).bind(tables)
        joined, below = [0], []
        insert_batch = ExecutionState.insert_batch

        def recording(state, vectors, lrows, rrows, mapped):
            region = state.active_region
            # Each pair against the region's corner and its two rows' own.
            corners = bound.row_corners(
                lrows.matrix,
                rrows.matrix,
                region.left_partition.attribute_intervals(bound.left_map_attrs),
                region.right_partition.attribute_intervals(bound.right_map_attrs),
            )
            for corner in (
                np.asarray(region.lower),
                corners[lrows.positions],
                corners[len(lrows.matrix) + rrows.positions],
            ):
                under = ~(vectors >= corner).all(axis=1)
                if under.any():
                    below.append((region.rid, region.lower, vectors[under][0]))
            joined[0] += len(vectors)
            return insert_batch(state, vectors, lrows, rrows, mapped)

        with pytest.MonkeyPatch.context() as patch:
            witness_off(patch)
            patch.setattr(ExecutionState, "insert_batch", recording)
            engine = ProgXeEngine(
                bound, VirtualClock(), partitioning=partitioning,
                input_cells=3, follow=follow,
            )
            drive(engine.kernel(), appenders, arriving)
        assert joined[0] > 0
        assert below == []


# ----------------------------------------------------------------------
# the same answers with and without the skip
# ----------------------------------------------------------------------
def run(backend, partitioning, follow, tmp_path, *, skip: bool, gate=None) -> dict:
    """One engine run: steps, results, clock, stats and the
    ``processed + discarded + pending == total`` check after every step.
    ``gate`` overrides ``ROW_TEST_PAIRS_PER_ROW`` (a cost rule only)."""
    workload = SyntheticWorkload(n=200, d=2, sigma=0.1, seed=20100301)
    columns, live, arriving = split_rows(workload, follow)
    sources, appenders = {}, {}
    for alias in ("R", "T"):
        prefix = Table.from_rows(alias, columns[alias], live[alias])
        sources[alias], appenders[alias] = make_streaming_pair(
            backend, alias, prefix, tmp_path / ("on" if skip else "off")
        )
    clock = VirtualClock()
    bound = workload.query().bind(sources)
    engine = ProgXeEngine(
        bound, clock, partitioning=partitioning, input_cells=2, follow=follow
    )
    kernel = engine.kernel()
    step = kernel.step
    sums = []

    def checked_step():
        report = step()
        snap = kernel.snapshot()
        sums.append(
            snap.regions_processed + snap.regions_discarded + snap.regions_pending
            == snap.regions_total
        )
        return report

    kernel.step = checked_step
    with pytest.MonkeyPatch.context() as patch:
        if not skip:
            witness_off(patch)
        if gate is not None:
            patch.setattr(tuple_level, "ROW_TEST_PAIRS_PER_ROW", gate)
        reports = drive(kernel, appenders, arriving)
    results = [r for report in reports for r in report.results]
    assert all(sums)
    assert verify_results(bound, results).ok
    return {
        "keys": [r.key() for r in results],
        "steps": [
            (report.kind, report.region_id, [r.key() for r in report.results])
            for report in reports
        ],
        "clock": clock.snapshot(),
        "stats": kernel.stats,
    }


class TestSameAnswers:
    # ``gate`` 1 lets the row test run in every region with more pairs
    # than rows; at the default no region of this small input reaches it.
    @pytest.mark.parametrize(
        "backend, partitioning, follow, gate",
        list(
            itertools.product(
                ("table", "columnar"), ("grid", "quadtree"), (False, True), (None, 1)
            )
        ),
        ids=lambda v: {False: "static", True: "follow", None: "default-gate", 1: "gate-1"}.get(v, v),
    )
    def test_skip_on_and_off_agree(self, backend, partitioning, follow, gate, tmp_path):
        (tmp_path / "on").mkdir()
        (tmp_path / "off").mkdir()
        on = run(backend, partitioning, follow, tmp_path, skip=True, gate=gate)
        off = run(backend, partitioning, follow, tmp_path, skip=False, gate=gate)
        assert on["keys"] == off["keys"]
        assert on["steps"] == off["steps"]
        assert on["stats"]["regions_skipped"] > 0
        assert off["stats"]["regions_skipped"] == 0
        assert off["stats"]["rows_skipped"] == 0
        if gate == 1 and partitioning == "grid":
            # (quadtree regions here have fewer pairs than rows)
            assert on["stats"]["rows_skipped"] > 0
        assert on["stats"]["regions_skipped"] <= on["stats"]["regions_processed"]
        for key in ("regions_total", "regions_processed", "regions_discarded", "inserted"):
            assert on["stats"][key] == off["stats"][key]
        for kind in set(on["clock"]) | set(off["clock"]):
            now, was = on["clock"].get(kind, 0), off["clock"].get(kind, 0)
            if kind in FALLING:
                assert now <= was, kind
            else:
                assert now == was, kind
        assert on["clock"]["join_result"] < off["clock"]["join_result"]


# ----------------------------------------------------------------------
# the witness test's edge cases
# ----------------------------------------------------------------------
def grid_state(entries: dict, premarked=()) -> ExecutionState:
    """A 3x3 grid over ``[0, 6)^2`` with every cell active; ``entries`` maps
    cell coordinates to buffered vectors, ``premarked`` cells are marked
    before the cones are built, as the look-ahead marks them."""
    grid = OutputGrid((0.0, 0.0), (6.0, 6.0), 3)
    for coords in itertools.product(range(3), repeat=2):
        grid.activate(coords)
    for coords in premarked:
        grid.cells[coords].marked = grid.cells[coords].settled = True
    grid.build_cones()
    for coords, vectors in entries.items():
        block = np.asarray(vectors, dtype=float)
        none = [None] * len(block)
        grid.cells[coords].append(block, none, none, block)
    return ExecutionState(None, [], grid, VirtualClock())


def region_at(state: ExecutionState, lower, upper) -> OutputRegion:
    """A pending region over ``[lower, upper]`` covering its grid cells."""
    grid = state.grid
    region = OutputRegion(len(state.regions), None, None, lower, upper, 1.0)
    region.cell_min, region.cell_max = box_cell_range(grid, lower, upper)
    region.covered = [
        grid.cells[c]
        for c in iter_coords_in_range(region.cell_min, region.cell_max)
    ]
    for cell in region.covered:
        cell.reg_count += 1
        cell.region_ids.append(region.rid)
    region.unmarked_covered = sum(1 for c in region.covered if not c.marked)
    state.regions[region.rid] = region
    return region


def dispatch(state: ExecutionState, region: OutputRegion, patch) -> bool:
    """Run ``process_region``; returns whether the region was joined."""
    joined = []

    def join(state, region, witnesses):
        joined.append(region.rid)
        yield from ()

    patch.setattr(tuple_level, "_join_region", join)
    list(tuple_level.process_region(state, region))
    return bool(joined)


class TestWitness:
    def test_an_entry_equal_to_the_corner_is_no_witness(self, monkeypatch):
        state = grid_state({(1, 1): [(2.5, 2.5)]})
        region = region_at(state, (2.5, 2.5), (5.0, 5.0))
        assert not witnessed(state, region)
        assert dispatch(state, region, monkeypatch)
        assert state.regions_skipped == 0
        assert state.clock.count("discard") == 0

    def test_an_entry_strictly_below_the_corner_skips_the_join(self, monkeypatch):
        # Equal in one dimension, lower in the other: strict Pareto dominance.
        state = grid_state({(1, 1): [(2.5, 2.4)]})
        region = region_at(state, (2.5, 2.5), (5.0, 5.0))
        assert witnessed(state, region)
        assert not dispatch(state, region, monkeypatch)
        assert state.regions_skipped == 1
        assert state.clock.snapshot() == {"discard": 1}

    def test_a_lower_cone_entry_witnesses(self):
        state = grid_state({(0, 1): [(1.0, 2.2)]})
        region = region_at(state, (2.5, 2.5), (5.0, 5.0))
        assert state.grid.cells[(0, 1)] in state.grid.cells[(1, 1)].cone_lower
        assert witnessed(state, region)

    def test_an_entry_outside_the_cone_is_not_consulted(self):
        # Dominates the corner, but sits in a cell above the corner's cell:
        # impossible for a real entry, so the test need not look there.
        state = grid_state({(2, 2): [(0.1, 0.1)]})
        region = region_at(state, (2.5, 2.5), (5.0, 5.0))
        assert not witnessed(state, region)

    def test_an_emitted_entry_witnesses(self, monkeypatch):
        state = grid_state({(0, 0): [(1.0, 1.0)]})
        cell = state.grid.cells[(0, 0)]
        cell.settled = cell.emitted = True
        region = region_at(state, (2.5, 2.5), (5.0, 5.0))
        assert not dispatch(state, region, monkeypatch)
        assert state.regions_skipped == 1

    def test_a_premarked_corner_cell_is_joined_as_before(self, monkeypatch):
        state = grid_state({(0, 0): [(1.0, 1.0)]}, premarked=[(1, 1)])
        assert state.grid.cells[(1, 1)].cone_lower == []
        region = region_at(state, (2.5, 2.5), (5.0, 5.0))
        assert region.unmarked_covered > 0
        assert not witnessed(state, region)
        assert dispatch(state, region, monkeypatch)
        assert state.regions_skipped == 0
        assert state.clock.snapshot() == {}

    def test_a_region_over_marked_cells_only_takes_the_marked_exit(
        self, monkeypatch
    ):
        # Set up directly: marking through mark_cell would discard the
        # region before it could be dispatched.
        state = grid_state({(0, 0): [(1.0, 1.0)]})
        region = region_at(state, (2.5, 2.5), (3.5, 3.5))
        for cell in region.covered:
            cell.marked = True
        region.unmarked_covered = 0

        def never(state, region):
            raise AssertionError("the witness test ran")

        monkeypatch.setattr(ExecutionState, "witnesses", never)
        assert not dispatch(state, region, monkeypatch)
        assert state.regions_skipped == 0
        assert state.clock.snapshot() == {"discard": 1}

    def test_a_finished_kernel_reports_the_skipped_regions(self):
        workload = SyntheticWorkload(n=200, d=2, sigma=0.1, seed=20100301)
        engine = ProgXeEngine(workload.bound(), VirtualClock(), input_cells=2)
        list(engine.run())
        stats = engine.stats
        assert 0 < stats["regions_skipped"] <= stats["regions_processed"]
        assert stats["regions_skipped"] == engine.state.regions_skipped


# ----------------------------------------------------------------------
# the row test inside a joined region
# ----------------------------------------------------------------------
class TestDominatedPoints:
    POOL = np.array([[1.0, 3.0], [2.0, 2.0]])

    def test_strict_pareto_dominance_per_point(self):
        points = np.array([
            [2.0, 2.0],  # equal to an entry: not dominated
            [2.0, 2.5],  # equal in one dimension, above in the other
            [1.5, 1.5],  # below every entry in some dimension
            [5.0, 5.0],
        ])
        assert dominated_points(self.POOL, points).tolist() == [False, True, False, True]

    def test_blocks_give_the_single_pass_answer(self, monkeypatch):
        points = np.random.default_rng(3).uniform(0.0, 4.0, (50, 2))
        whole = dominated_points(self.POOL, points)
        monkeypatch.setattr(output_grid, "_POINT_LANES", 1)
        assert dominated_points(self.POOL, points).tolist() == whole.tolist()
        assert whole.tolist() == [dominates_point(self.POOL, p) for p in points]


class TestRowWitness:
    """``_live_rows`` on a planned region: a row leaves the join exactly
    when a witness strictly dominates its corner, and only in a region
    expecting ``ROW_TEST_PAIRS_PER_ROW`` pairs per row or more."""

    @pytest.fixture
    def planned(self):
        workload = SyntheticWorkload(n=200, d=2, sigma=0.1, seed=20100301)
        bound = workload.bound()
        state = ProgXeEngine(bound, VirtualClock(), input_cells=2).kernel().state
        region = max(state.regions.values(), key=lambda r: r.expected_join)
        blocks = (
            region.left_partition.column_block(bound.left_map_indices, bound.left_join_index),
            region.right_partition.column_block(bound.right_map_indices, bound.right_join_index),
        )
        corners = bound.row_corners(
            blocks[0].matrix,
            blocks[1].matrix,
            region.left_partition.attribute_intervals(bound.left_map_attrs),
            region.right_partition.attribute_intervals(bound.right_map_attrs),
        )
        return state, region, blocks, corners

    def test_a_dominated_corner_leaves_the_join(self, planned):
        state, region, (lblock, rblock), corners = planned
        rows = len(lblock) + len(rblock)
        region.expected_join = tuple_level.ROW_TEST_PAIRS_PER_ROW * rows
        # A witness just below one row's corner, not below any other's.
        target = int(np.argmax(corners.sum(axis=1)))
        witness = corners[target] - 1e-9
        expected = ~dominated_points(witness[None], corners)
        assert not expected[target] and expected.sum() < rows
        live = np.concatenate(tuple_level._live_rows(state, region, lblock, rblock, witness[None]))
        assert live.tolist() == expected.tolist()
        assert state.rows_skipped == rows - expected.sum()

    def test_a_witness_equal_to_a_corner_keeps_the_row(self, planned):
        state, region, (lblock, rblock), corners = planned
        region.expected_join = tuple_level.ROW_TEST_PAIRS_PER_ROW * (len(lblock) + len(rblock))
        live = np.concatenate(tuple_level._live_rows(state, region, lblock, rblock, corners[:1]))
        assert live[0]
        assert live.tolist() == (~dominated_points(corners[:1], corners)).tolist()

    def test_rows_are_tested_only_where_pairs_per_row_reach_the_gate(self, planned):
        state, region, (lblock, rblock), corners = planned
        region.expected_join = tuple_level.ROW_TEST_PAIRS_PER_ROW * (len(lblock) + len(rblock)) - 1
        everything = np.full((1, corners.shape[1]), -np.inf)
        live = np.concatenate(tuple_level._live_rows(state, region, lblock, rblock, everything))
        assert live.all()
        assert state.rows_skipped == 0

    def test_the_join_pairs_only_live_rows(self, planned, monkeypatch):
        state, region, (lblock, rblock), corners = planned
        nl = len(lblock)
        region.expected_join = tuple_level.ROW_TEST_PAIRS_PER_ROW * (nl + len(rblock))
        # Just below the highest corner of each side: one row of each falls.
        top_left = corners[:nl][np.argmax(corners[:nl].sum(axis=1))]
        top_right = corners[nl:][np.argmax(corners[nl:].sum(axis=1))]
        witness = np.minimum(top_left, top_right)[None] - 1e-9
        live = ~dominated_points(witness, corners)
        assert not live[:nl].all() and not live[nl:].all()
        pairs = []
        monkeypatch.setattr(
            ExecutionState,
            "insert_batch",
            lambda self, vectors, lrows, rrows, mapped: pairs.append(
                (lrows.positions, rrows.positions)
            ),
        )
        list(tuple_level._join_region(state, region, witness))
        lpos = np.concatenate([p[0] for p in pairs])
        rpos = np.concatenate([p[1] for p in pairs])
        assert len(lpos) > 0
        assert live[:nl][lpos].all() and live[nl:][rpos].all()
