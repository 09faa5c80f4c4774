"""ProgCount from the kernel's counters.

``core/benefit.progressive_count`` reads Definition 2 off two counters the
kernel keeps — RegCount (``reg_count``) and the cone's ``pending`` count —
instead of walking every feeder of every lower-cone cell.  Both halves of
that are checked here:

* the counters: after every kernel step, an unsettled cell's ``reg_count``
  is the number of live regions among its feeders, and its ``pending`` the
  number of unsettled cells in its lower cone — on static kernels and on
  follow kernels whose arrivals reopen settled cells;
* the count: at every rank call it equals the feeder walk kept in
  ``tests/plan_reference.py`` — for both partitioners, both storage
  backends, static and follow kernels, and ``explain``'s plan-only path;
  and the partial-settling credit the same walk sums, which breaks Eq. 8's
  ties, equals a sum over ``region.covered`` from recounted feeders and
  cone cells.

A hypothesis property then runs the order this key gives against the
oracle: every emitted entry is in the skyline after every step, and the
result set is the skyline at the end.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.benefit as benefit
import repro.core.kernel as kernel_module
import repro.core.plan as plan_module
from repro.core.engine import ProgXeEngine
from repro.core.explain import explain
from repro.core.lookahead import run_lookahead
from repro.core.progdetermine import ExecutionState
from repro.core.streaming import StreamingKernel
from repro.data.workloads import SyntheticWorkload
from repro.runtime.clock import VirtualClock
from repro.storage.sources import ColumnarFileSource, write_columnar
from repro.storage.table import Table

from tests.conftest import make_bound, oracle_skyline_keys
from tests.plan_reference import credit_reference, progressive_count_reference

ALIASES = ("R", "T")


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def make_source(backend, table, directory):
    """``(source, appender)`` over ``table``'s rows in ``backend``."""
    if backend == "table":
        return table, table.extend_rows
    path = Path(directory) / f"{table.name}.col"
    write_columnar(path, list(table.rows), columns=list(table.schema.columns),
                   name=table.name)
    source = ColumnarFileSource(path, name=table.name)
    return source, source.append_rows


def drive(seed, partitioning, backend, schedule, after_step, directory,
          distribution="independent", d=2):
    """Run a kernel to the end, calling ``after_step(kernel, report)`` after
    every step; returns the kernel.

    ``schedule`` is ``None`` for a static kernel over all rows.  Otherwise
    the kernel follows tables holding half the rows, and each ``(steps,
    alias, size)`` event takes that many steps, then appends the next
    ``size`` arriving rows to ``alias``.
    """
    workload = SyntheticWorkload(
        distribution=distribution, n=90, d=d, sigma=0.05, seed=seed
    )
    tables, arriving = {}, {}
    for alias, table in workload.tables().items():
        rows = list(table.rows)
        cut = len(rows) if schedule is None else len(rows) // 2
        tables[alias] = Table.from_rows(alias, list(table.schema.columns), rows[:cut])
        arriving[alias] = rows[cut:]
    sources, appenders = {}, {}
    for alias, table in tables.items():
        sources[alias], appenders[alias] = make_source(backend, table, directory)
    bound = workload.query().bind(sources)
    kernel = ProgXeEngine(
        bound, VirtualClock(), partitioning=partitioning,
        follow=schedule is not None,
    ).kernel()
    for steps, alias, size in schedule or ():
        for _ in range(steps):
            after_step(kernel, kernel.step())
        appenders[alias](arriving[alias][:size])
        del arriving[alias][:size]
    if schedule is not None:
        kernel.close_ingest()
    while not kernel.finished:
        after_step(kernel, kernel.step())
    return kernel


def assert_counters(kernel, report=None):
    """RegCount and ``pending`` of every unsettled cell, recounted."""
    regions = kernel.state.regions
    for cell in kernel.plan.grid.cells.values():
        if cell.settled:
            continue
        live = sum(1 for rid in cell.region_ids if not regions[rid].done)
        assert cell.reg_count == live, f"{cell!r}: {live} live feeders"
        unsettled = sum(1 for lc in cell.cone_lower if not lc.settled)
        assert cell.pending == unsettled, f"{cell!r}: {unsettled} unsettled below"


@contextmanager
def checked_progcount():
    """Check ProgCount against the feeder walk, and the credit against a
    sum over recounted feeders and cone cells, at every call.

    The walk looks feeders up in a region table: the regions of the last
    kernel made (its ``ExecutionState``'s, plus those its arrival polls
    wire, all of a batch before any is ranked) or of the last plan's
    look-ahead (``explain`` ranks those).  Yields the list of checked
    ``(count, credit)`` pairs.
    """
    table: dict = {}
    checked: list[tuple[int, float]] = []
    count = benefit.progressive_count
    wire = StreamingKernel._wire_regions

    class RecordingState(ExecutionState):
        def __init__(self, *args):
            super().__init__(*args)
            table.clear()
            table.update(self.regions)

    def recording_wire(kernel, regions):
        table.update((r.rid, r) for r in regions)
        return wire(kernel, regions)

    def recording_lookahead(*args, **kwargs):
        regions, grid = run_lookahead(*args, **kwargs)
        table.clear()
        table.update((r.rid, r) for r in regions)
        return regions, grid

    def checked_count(region):
        got = count(region)
        want = progressive_count_reference(region, table)
        assert got[0] == want, f"region #{region.rid}: {got[0]} != feeder walk {want}"
        credit = credit_reference(region, table)
        assert got[1] == credit, (
            f"region #{region.rid}: credit {got[1]} != {credit}"
        )
        checked.append(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(benefit, "progressive_count", checked_count)
        patch.setattr(kernel_module, "ExecutionState", RecordingState)
        patch.setattr(StreamingKernel, "_wire_regions", recording_wire)
        patch.setattr(plan_module, "run_lookahead", recording_lookahead)
        yield checked


#: The second half of each side, arriving in four chunks; the tests that
#: use it check that it reopens settled cells.
REOPENING = [(3, "R", 20), (3, "T", 20), (2, "R", 25), (0, "T", 25)]


# ----------------------------------------------------------------------
# the counters
# ----------------------------------------------------------------------
class TestCountersAfterEveryStep:
    @pytest.mark.parametrize("partitioning", ["grid", "quadtree"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_static_kernel(self, partitioning, seed, tmp_path):
        kernel = drive(seed, partitioning, "table", None, assert_counters, tmp_path)
        assert kernel.state.regions

    @pytest.mark.parametrize("partitioning", ["grid", "quadtree"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_follow_kernel_reopening_cells(self, partitioning, seed, tmp_path):
        kernel = drive(seed, partitioning, "table", REOPENING, assert_counters, tmp_path)
        assert kernel.cells_reopened > 0


# ----------------------------------------------------------------------
# the count
# ----------------------------------------------------------------------
arrivals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),    # steps before the arrival
        st.sampled_from(ALIASES),                 # which side grows
        st.integers(min_value=0, max_value=25),   # rows (0 = no-op)
    ),
    min_size=1,
    max_size=5,
)


class TestProgCountMatchesFeederWalk:
    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 5),
        partitioning=st.sampled_from(["grid", "quadtree"]),
        backend=st.sampled_from(["table", "columnar"]),
        schedule=st.none() | arrivals,
    )
    def test_at_every_rank_call(self, seed, partitioning, backend, schedule):
        with tempfile.TemporaryDirectory() as directory, checked_progcount() as checked:
            drive(seed, partitioning, backend, schedule, lambda *_: None, directory)
        assert checked

    @pytest.mark.parametrize("partitioning", ["grid", "quadtree"])
    @pytest.mark.parametrize("backend", ["table", "columnar"])
    def test_while_arrivals_reopen_cells(self, partitioning, backend, tmp_path):
        with checked_progcount() as checked:
            kernel = drive(1, partitioning, backend, REOPENING, assert_counters, tmp_path)
        assert kernel.cells_reopened > 0
        assert checked

    @pytest.mark.parametrize(
        "distribution, d, seed",
        [("independent", 2, 3), ("anticorrelated", 2, 4), ("independent", 3, 5)],
    )
    def test_explain_plan_only(self, distribution, d, seed):
        bound = make_bound(n=120, d=d, sigma=0.1, seed=seed, distribution=distribution)
        with checked_progcount() as checked:
            report = explain(bound)
        assert len(checked) == sum(1 for r in report.region_plans if not r.discarded)


# ----------------------------------------------------------------------
# the order against the oracle
# ----------------------------------------------------------------------
class TestOrderKeepsTheOracle:
    """Whatever order the ``(rank, credit)`` key picks, emission stays
    safe: an entry a step emits is in the final skyline, and the emitted
    set is the skyline once the kernel finishes.  Three dimensions, and
    anticorrelated inputs, give skylines of up to ~170 entries over many
    cells, where an early emission would show."""

    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 5),
        distribution=st.sampled_from(["independent", "anticorrelated"]),
        d=st.sampled_from([2, 3]),
        partitioning=st.sampled_from(["grid", "quadtree"]),
        backend=st.sampled_from(["table", "columnar"]),
        follow=st.booleans(),
        schedule=arrivals,
    )
    def test_every_emitted_entry_is_final(
        self, seed, distribution, d, partitioning, backend, follow, schedule
    ):
        emitted: list[set] = []

        def record(kernel, report):
            emitted.append({r.key() for r in report.results})

        with tempfile.TemporaryDirectory() as directory:
            kernel = drive(
                seed, partitioning, backend, schedule if follow else None,
                record, directory, distribution, d,
            )
            # The oracle over every row the sources hold at the end: all of
            # them statically, the arrived ones in follow mode.
            oracle = oracle_skyline_keys(kernel.bound)
        for step, keys in enumerate(emitted, 1):
            assert keys <= oracle, f"step {step} emitted {keys - oracle}"
        assert set().union(*emitted) == oracle
