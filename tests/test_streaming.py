"""Streaming ingestion: the differential-replay contract.

The central property of follow queries (``EngineConfig(follow=True)``):
for ANY append-only arrival schedule — rows split into arbitrary chunks,
appended at arbitrary points between kernel steps, to either side — the
final result set equals a one-shot batch execution over the final table
contents, and the emission sequence remains a valid progressive order
(no emitted result is ever dominated by a later one).

Layers covered here:

* **Differential replay** — hypothesis property test over random arrival
  schedules (chunk sizes x arrival points), plus a deterministic
  conformance matrix across storage backend x flush granularity.
* **Empty-poll hygiene** — an arrival poll that observes unchanged
  version tokens must be a pure no-op: no partition-store counter moves,
  no re-entry into planning.
* **Patched-vs-invalidated split** — queries 2..N over a growing shared
  table plan via cache *patches*; a non-append mutation falls back to
  invalidation, and the two outcomes are counted separately all the way
  up through ``StreamStats.partition_cache``.
* **Scheduler / serving interaction** — a long-lived follow query never
  starves finite queries; the serving edge's ``DeadlineGuard`` closes a
  follow query's arrival window instead of cancelling it; a slow
  client's backpressure pause also pauses delta polling.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.plan_cache import PlanCache
from repro.core import streaming
from repro.core.engine import ProgXeEngine
from repro.core.kernel import STEP_INGEST
from repro.core.verify import verify_results
from repro.data.workloads import SyntheticWorkload
from repro.errors import ExecutionError, QueryError
from repro.runtime.clock import VirtualClock
from repro.serve.admission import DeadlineGuard
from repro.serve.backpressure import BackpressureBridge, Watermarks
from repro.serve.protocol import QueryRequest
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.session.stream import CANCELLED, COMPLETED
from repro.skyline import dominates
from repro.storage.sources import ColumnarFileSource, write_columnar
from repro.storage.table import Table

from tests.conftest import (
    FLUSH_IDS,
    FLUSH_SIZES,
    make_bound,
    mean_cone_size_from_scratch,
    oracle_skyline_keys,
    set_flush_pairs,
)
from tests.plan_reference import box_cell_range, iter_coords_in_range

ALIASES = ("R", "T")


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def split_workload(n=100, d=2, seed=0, frac=0.5):
    """A workload split into live-prefix Tables plus pending arrival rows."""
    workload = SyntheticWorkload(n=n, d=d, sigma=0.05, seed=seed)
    live, arriving = {}, {}
    for alias, table in workload.tables().items():
        rows = list(table.rows)
        cut = max(1, int(len(rows) * frac))
        live[alias] = Table.from_rows(
            alias, list(table.schema.columns), rows[:cut]
        )
        arriving[alias] = rows[cut:]
    return workload, live, arriving


def stream_drive(tables, query, schedule, appenders, **engine_kwargs):
    """Drive a follow kernel under an arrival schedule; return it + results.

    ``schedule`` is a list of ``(steps_before, alias, chunk)`` events: take
    that many kernel steps, then hand ``chunk`` to the side's appender.
    After the last event the window closes and the kernel drains.
    """
    bound = query.bind(tables)
    engine = ProgXeEngine(bound, VirtualClock(), follow=True, **engine_kwargs)
    kernel = engine.kernel()
    results = []
    for steps_before, alias, chunk in schedule:
        for _ in range(steps_before):
            results.extend(kernel.step().results)
        appenders[alias](chunk)
    kernel.close_ingest()
    while not kernel.finished:
        results.extend(kernel.step().results)
    return kernel, results


def one_shot_keys(tables, query, **engine_kwargs):
    """Result keys of a one-shot batch run over ``tables`` as they are now."""
    bound = query.bind(tables)
    engine = ProgXeEngine(bound, VirtualClock(), **engine_kwargs)
    return [r.key() for r in engine.run()]


def assert_valid_progressive_order(results):
    """No emitted result may be dominated by a later emission."""
    emitted = []
    for result in results:
        for earlier in emitted:
            assert not dominates(result.vector, earlier.vector), (
                "a later result dominates an earlier emission: "
                f"{result.outputs} > {earlier.outputs}"
            )
        emitted.append(result)


def table_appenders(live):
    return {alias: live[alias].extend_rows for alias in ALIASES}


# ----------------------------------------------------------------------
# differential replay (satellite 1)
# ----------------------------------------------------------------------
arrival_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),   # steps before the arrival
        st.sampled_from(ALIASES),                 # which side grows
        st.integers(min_value=0, max_value=25),   # chunk size (0 = no-op)
    ),
    min_size=1,
    max_size=6,
)


class TestDifferentialReplay:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 3),
        partitioning=st.sampled_from(["grid", "quadtree"]),
        schedule=arrival_schedules,
    )
    def test_any_arrival_schedule_replays_the_batch_result(
        self, seed, partitioning, schedule
    ):
        workload, live, arriving = split_workload(n=90, seed=seed)
        cursors = dict.fromkeys(ALIASES, 0)
        events = []
        for steps, alias, size in schedule:
            chunk = arriving[alias][cursors[alias]:cursors[alias] + size]
            cursors[alias] += len(chunk)
            events.append((steps, alias, chunk))
        kwargs = dict(partitioning=partitioning)
        kernel, results = stream_drive(
            live, workload.query(), events, table_appenders(live), **kwargs
        )
        # Final result set == one-shot batch over the final table contents.
        assert {r.key() for r in results} == set(
            one_shot_keys(live, workload.query(), **kwargs)
        )
        # ...and == the independent oracle (hash join + BNL, no ProgXe).
        report = verify_results(workload.query().bind(live), results)
        assert report.ok, report.render()
        assert_valid_progressive_order(results)
        assert kernel.rows_ingested == sum(cursors.values())

    def test_everything_arrives_before_any_step(self):
        """Degenerate schedule: the whole suffix lands before step one."""
        workload, live, arriving = split_workload(seed=11)
        events = [(0, "R", arriving["R"]), (0, "T", arriving["T"])]
        _, results = stream_drive(
            live, workload.query(), events, table_appenders(live)
        )
        report = verify_results(workload.query().bind(live), results)
        assert report.ok, report.render()

    def test_no_arrivals_matches_plain_kernel(self):
        """A follow query nobody appends to is just a slow batch query."""
        workload, live, _ = split_workload(seed=13)
        kernel, results = stream_drive(
            live, workload.query(), [(5, "R", [])], table_appenders(live)
        )
        assert kernel.rows_ingested == 0
        assert {r.key() for r in results} == set(
            one_shot_keys(live, workload.query())
        )

    def test_non_append_mutation_mid_run_raises(self):
        workload, live, arriving = split_workload(seed=17)
        bound = workload.query().bind(live)
        engine = ProgXeEngine(bound, VirtualClock(), follow=True)
        kernel = engine.kernel()
        kernel.step()
        live["R"].touch()  # declares an in-place (non-append) mutation
        with pytest.raises(ExecutionError, match="non-append-only"):
            for _ in range(200_000):
                kernel.step()


BACKENDS = ["table", "columnar", "columnar-appended"]


def make_streaming_pair(backend, alias, prefix_table, tmp_path):
    """(source, appender) for one relation in the requested backend."""
    columns = list(prefix_table.schema.columns)
    rows = list(prefix_table.rows)
    if backend == "table":
        table = Table.from_rows(alias, columns, rows)
        return table, table.extend_rows
    if backend == "columnar":
        path = tmp_path / f"{alias}.col"
        write_columnar(path, rows, columns=columns, name=alias)
        src = ColumnarFileSource(path, name=alias)
        return src, src.append_rows
    if backend == "columnar-appended":
        # An external writer: arrivals go through a second handle, and
        # the query's handle picks them up on ``refresh()``.
        src, _ = make_streaming_pair("columnar", alias, prefix_table, tmp_path)
        writer = ColumnarFileSource(src.path)

        def append(chunk, src=src, writer=writer):
            writer.append_rows(chunk)
            src.refresh()

        return src, append
    raise AssertionError(backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("flush_pairs", FLUSH_SIZES, ids=FLUSH_IDS)
def test_replay_holds_on_every_backend(backend, flush_pairs, tmp_path, monkeypatch):
    set_flush_pairs(monkeypatch, flush_pairs)
    workload, live, arriving = split_workload(n=80, seed=29)
    sources, appenders = {}, {}
    for alias in ALIASES:
        sources[alias], appenders[alias] = make_streaming_pair(
            backend, alias, live[alias], tmp_path
        )
    events = [
        (3, "R", arriving["R"][:15]),
        (4, "T", arriving["T"][:20]),
        (2, "R", arriving["R"][15:]),
        (0, "T", arriving["T"][20:]),
    ]
    kernel, results = stream_drive(sources, workload.query(), events, appenders)
    assert kernel.rows_ingested == len(arriving["R"]) + len(arriving["T"])
    assert {r.key() for r in results} == set(
        one_shot_keys(sources, workload.query())
    )
    report = verify_results(workload.query().bind(sources), results)
    assert report.ok, f"{backend}: {report.render()}"
    assert_valid_progressive_order(results)


@pytest.mark.parametrize("partitioning", ["grid", "quadtree"])
def test_replay_holds_for_both_partitioners(partitioning, tmp_path):
    workload, live, arriving = split_workload(n=80, seed=31)
    events = [(4, "R", arriving["R"]), (4, "T", arriving["T"])]
    kwargs = dict(partitioning=partitioning)
    _, results = stream_drive(
        live, workload.query(), events, table_appenders(live), **kwargs
    )
    assert {r.key() for r in results} == set(
        one_shot_keys(live, workload.query(), **kwargs)
    )


# ----------------------------------------------------------------------
# empty-poll hygiene (satellite 3a)
# ----------------------------------------------------------------------
class TestEmptyPollIsPure:
    def _dry_kernel(self, cache):
        workload, live, arriving = split_workload(seed=37)
        bound = workload.query().bind(live)
        engine = ProgXeEngine(bound, VirtualClock(), follow=True, cache=cache)
        kernel = engine.kernel()
        while kernel.step().kind != STEP_INGEST:
            pass  # drive to the first queue-dry arrival poll
        return kernel, live

    def test_unchanged_tokens_move_no_store_counters(self):
        cache = PlanCache()
        kernel, live = self._dry_kernel(cache)
        before = cache.stats()
        regions = kernel.regions_added
        polls = kernel.polls
        assert kernel.poll_deltas() == 0
        after = cache.stats()
        # A pure no-op: not even a cache lookup, let alone a rebuild.
        assert (after.hits, after.misses, after.patched,
                after.invalidations, after.lookups) == \
               (before.hits, before.misses, before.patched,
                before.invalidations, before.lookups)
        assert kernel.regions_added == regions  # no re-entry into planning
        assert kernel.polls == polls + 1        # ...but the poll is counted

    def test_empty_extend_rows_is_still_invisible(self):
        """Companion to the PR-5 regression: an empty extend_rows bumps no
        version, so the next poll must see unchanged tokens and stay pure."""
        cache = PlanCache()
        kernel, live = self._dry_kernel(cache)
        live["R"].extend_rows([])
        live["T"].extend_rows(iter(()))
        before = cache.stats()
        assert kernel.poll_deltas() == 0
        assert cache.stats() == before
        assert kernel.rows_ingested == 0


    def test_unchanged_tokens_read_no_partition_lists(self):
        """The old sides are collected only once some side grew: an empty
        poll may compare tokens and charge its ``queue_op``, nothing else."""

        class NoPeek:
            def __init__(self, structure):
                self._structure = structure

            def __getattr__(self, name):
                assert name not in ("partitions", "extensions"), (
                    f"empty poll read structure.{name}"
                )
                return getattr(self._structure, name)

        kernel, live = self._dry_kernel(PlanCache())
        structures = [side.structure for side in kernel._sides]
        for side in kernel._sides:
            side.structure = NoPeek(side.structure)
        before = kernel.clock.snapshot()
        assert kernel.poll_deltas() == 0
        assert kernel.clock.since(before) == {"queue_op": 1}
        # The spy does fire on a poll that has something to absorb.
        live["R"].extend_rows(live["R"].rows[:3])
        with pytest.raises(AssertionError, match="empty poll read"):
            kernel.poll_deltas()
        for side, structure in zip(kernel._sides, structures):
            side.structure = structure


def test_mean_cone_size_survives_a_poll_that_activates_cells():
    """The grid's running cone totals must not outlive a rewiring: a poll
    that activates cells changes cone sizes of old cells too."""
    workload, live, arriving = split_workload(n=120, seed=37, frac=0.3)
    bound = workload.query().bind(live)
    kernel = ProgXeEngine(bound, VirtualClock(), follow=True).kernel()
    while kernel.step().kind != STEP_INGEST:
        pass
    grid = kernel.plan.grid
    assert grid.mean_cone_size() == mean_cone_size_from_scratch(grid)
    cells_before = grid.active_count
    for alias in ALIASES:
        live[alias].extend_rows(arriving[alias])
    assert kernel.poll_deltas() > 0
    assert grid.active_count > cells_before  # the poll did activate cells
    assert grid.mean_cone_size() == mean_cone_size_from_scratch(grid)
    kernel.close_ingest()
    while not kernel.finished:
        kernel.step()
        assert grid.mean_cone_size() == mean_cone_size_from_scratch(grid)


def test_an_arrival_beyond_the_grid_clamps_into_the_edge_cell():
    """A mapped value beyond 2^63 cells of the frozen output grid clamps to
    the edge cell, as ``coords_of`` does, instead of wrapping to cell 0."""
    tables = {
        "R": Table.from_rows("R", ["id", "jkey", "a0", "a1"], [("l", 0, 2.0, 0.0)]),
        "T": Table.from_rows("T", ["id", "jkey", "b0", "b1"], [("r", 0, 1.0, 3.0)]),
    }
    bound = Session().register_tables(tables).sql(
        "SELECT (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 FROM R R, T T "
        "WHERE R.jkey = T.jkey PREFERRING LOWEST(x0) AND LOWEST(x1)"
    )
    kernel = ProgXeEngine(bound, VirtualClock(), follow=True).kernel()
    results = list(kernel.step().results)
    tables["T"].extend_rows([("rx", 0, 1e12, 1.0)])
    kernel.close_ingest()
    while not kernel.finished:
        results.extend(kernel.step().results)
    assert {r.key() for r in results} == oracle_skyline_keys(bound)


# ----------------------------------------------------------------------
# born-dead delta regions and the progress counts
# ----------------------------------------------------------------------
def two_poll_events(arriving):
    """Both sides grow twice, each time after the queue ran dry."""
    half = {alias: len(rows) // 2 for alias, rows in arriving.items()}
    return [
        (40, "R", arriving["R"][: half["R"]]),
        (0, "T", arriving["T"][: half["T"]]),
        (60, "R", arriving["R"][half["R"]:]),
        (0, "T", arriving["T"][half["T"]:]),
    ]


def covered_coords(kernel, lower, upper):
    grid = kernel.plan.grid
    return list(iter_coords_in_range(*box_cell_range(grid, lower, upper)))


class TestBornDeadRegions:
    def drive(self, monkeypatch, *, prune=True, check=None):
        """A seeded two-poll follow run; ``prune=False`` withholds the grid
        from the builder, which is the kernel as it was before pruning."""
        builder = streaming.build_block_regions
        blocks = []

        def build(*args, grid, **kwargs):
            blocks.append(args[1:3])
            built, pruned = builder(
                *args, grid=grid if prune else None, **kwargs
            )
            if check is not None:
                check(args, grid, built, pruned)
            return built, pruned

        monkeypatch.setattr(streaming, "build_block_regions", build)
        workload, live, arriving = split_workload(n=240, seed=83, frac=0.4)
        kernel, results = stream_drive(
            live, workload.query(), two_poll_events(arriving),
            table_appenders(live),
        )
        assert len(blocks) >= 4  # two pair blocks per absorbing poll
        assert kernel.rows_ingested == sum(map(len, arriving.values()))
        return kernel, results

    def test_pruned_pairs_cover_only_marked_cells(self, monkeypatch):
        checked = {"pruned": 0, "built": 0}

        def check(args, grid, built, pruned):
            bound, left_parts, right_parts, left_attrs, right_attrs = args[:5]
            kept = {(r.left_partition, r.right_partition) for r in built}
            dropped = 0
            for lp in left_parts:
                for rp in right_parts:
                    if (lp, rp) in kept or not lp.signature.may_share(rp.signature):
                        continue
                    dropped += 1
                    box = bound.region_box(
                        lp.attribute_intervals(left_attrs),
                        rp.attribute_intervals(right_attrs),
                    )
                    # Walked cell by cell, at the moment it was pruned.
                    for coords in iter_coords_in_range(
                        *box_cell_range(grid, *box)
                    ):
                        assert coords in grid.cells
                        assert grid.cells[coords].marked
            assert dropped == pruned
            checked["pruned"] += pruned
            checked["built"] += len(built)

        kernel, _ = self.drive(monkeypatch, check=check)
        assert checked["pruned"] > 0 and checked["built"] > 0
        assert kernel.regions_pruned == checked["pruned"]
        assert kernel.regions_added == checked["built"]
        assert kernel.stats["regions_pruned"] == checked["pruned"]

    def test_wired_regions_have_a_live_cell(self, monkeypatch):
        StreamingKernel = streaming.StreamingKernel
        wire = StreamingKernel._wire_regions
        seen = []

        def checked_wire(kernel, regions):
            cells = kernel.plan.grid.cells
            for region in regions:
                # An unmarked cell, or one this wiring activates (fresh).
                assert any(
                    coords not in cells or not cells[coords].marked
                    for coords in covered_coords(kernel, region.lower, region.upper)
                )
            seen.extend(regions)
            return wire(kernel, regions)

        monkeypatch.setattr(StreamingKernel, "_wire_regions", checked_wire)
        kernel, _ = self.drive(monkeypatch)
        assert len(seen) == kernel.regions_added > 0

    def test_pruning_is_the_discard_taken_earlier(self, monkeypatch):
        """Against the same run with nothing pruned: same results in the
        same order, same live regions under the same ids, same charges
        apart from the wiring and queueing of regions that no longer exist."""
        kernel, results = self.drive(monkeypatch)
        full, full_results = self.drive(monkeypatch, prune=False)
        assert [r.key() for r in results] == [r.key() for r in full_results]
        assert full.regions_pruned == 0 < kernel.regions_pruned
        assert kernel.regions_added + kernel.regions_pruned == full.regions_added
        born_dead = set(full.state.regions) - set(kernel.state.regions)
        assert len(born_dead) == kernel.regions_pruned
        for rid, region in kernel.state.regions.items():
            twin = full.state.regions[rid]
            assert (region.lower, region.upper) == (twin.lower, twin.upper)
            assert (region.processed, region.discarded) == (
                twin.processed, twin.discarded
            )
        assert kernel.steps == full.steps - len(born_dead)
        ours, theirs = kernel.clock.snapshot(), full.clock.snapshot()
        for kind in theirs:
            if kind in ("partition_op", "queue_op"):
                assert ours[kind] < theirs[kind]
            else:
                assert ours[kind] == theirs[kind], kind
        # Each born-dead region cost at least its heap push and one pop.
        assert theirs["queue_op"] - ours["queue_op"] >= 2 * len(born_dead)

    def test_progress_counts_partition_the_total_after_every_step(self):
        workload, live, arriving = split_workload(n=240, seed=83, frac=0.4)
        bound = workload.query().bind(live)
        kernel = ProgXeEngine(bound, VirtualClock(), follow=True).kernel()
        appenders = table_appenders(live)

        def step():
            kernel.step()
            snap = kernel.snapshot()
            assert snap.regions_total == len(kernel.state.regions)
            assert (
                snap.regions_processed + snap.regions_discarded
                + snap.regions_pending == snap.regions_total
            )
            return snap

        planned = step().regions_total
        for steps_before, alias, chunk in two_poll_events(arriving):
            for _ in range(steps_before):
                step()
            appenders[alias](chunk)
        kernel.close_ingest()
        while not kernel.finished:
            snap = step()
        assert kernel.polls >= 2 and kernel.regions_added > 0
        assert snap.regions_total == planned + kernel.regions_added
        assert snap.regions_pending == 0
        stats = kernel.stats
        assert stats["regions_total"] == snap.regions_total
        assert stats["regions_processed"] + stats["regions_discarded"] == (
            stats["regions_total"]
        )


# ----------------------------------------------------------------------
# patched vs invalidated (satellites 3b + tentpole acceptance)
# ----------------------------------------------------------------------
class TestPatchedVsInvalidated:
    def test_queries_2_to_n_patch_a_growing_shared_table(self):
        workload, live, arriving = split_workload(n=120, seed=41, frac=0.4)
        session = Session().register_tables(live)
        session.execute(workload.query().bind(live)).drain()  # cold: 2 misses
        chunks = [arriving["R"][:20], arriving["R"][20:40], arriving["R"][40:]]
        for i, chunk in enumerate(chunks, start=2):
            live["R"].extend_rows(chunk)
            stream = session.execute(workload.query().bind(live))
            stream.drain()
            events = stream.stats().partition_cache
            # Query i planned by *patching* the grown side, hitting the
            # unchanged one — never by invalidating and rebuilding.
            assert events.get("partition_patched") == 1, (i, events)
            assert events.get("partition_hits") == 1, (i, events)
            assert "partition_misses" not in events, (i, events)
            assert "partition_invalidated" not in events, (i, events)
        stats = session.plan_cache.stats()
        assert stats.patched == len(chunks)
        assert stats.invalidations == 0
        # The split is explicit in the public counter snapshot.
        snapshot = stats.as_dict()
        assert snapshot["patched"] == len(chunks)
        assert snapshot["invalidations"] == 0

    def test_non_append_mutation_falls_back_to_invalidation(self):
        workload, live, arriving = split_workload(n=100, seed=43)
        session = Session().register_tables(live)
        session.execute(workload.query().bind(live)).drain()
        live["R"].extend_rows(arriving["R"][:10])
        session.execute(workload.query().bind(live)).drain()
        assert session.plan_cache.stats().patched == 1
        live["R"].touch()  # in-place mutation: the prefix is no longer trusted
        stream = session.execute(workload.query().bind(live))
        stream.drain()
        events = stream.stats().partition_cache
        assert events.get("partition_invalidated") == 1, events
        assert events.get("partition_misses") == 1, events
        assert "partition_patched" not in events, events
        stats = session.plan_cache.stats()
        assert stats.invalidations >= 1 and stats.patched == 1

    def test_streamed_and_patched_results_agree(self):
        """A follow query and a later batch query share one structure
        chain: the follower patches through the cache, the batch query
        reuses the patched generation — same results either way."""
        workload, live, arriving = split_workload(n=90, seed=47)
        session = Session().register_tables(live)
        cache = session.plan_cache
        bound = workload.query().bind(live)
        engine = ProgXeEngine(
            bound, VirtualClock(), follow=True, cache=cache
        )
        kernel = engine.kernel()
        for _ in range(4):
            kernel.step()
        live["R"].extend_rows(arriving["R"])
        live["T"].extend_rows(arriving["T"])
        kernel.close_ingest()
        streamed = []
        while not kernel.finished:
            streamed.extend(kernel.step().results)
        batch = session.execute(workload.query().bind(live))
        batch_keys = [r.key() for r in batch.drain()]
        assert {r.key() for r in streamed} == set(batch_keys)
        # The batch query found both patched generations waiting.
        events = batch.stats().partition_cache
        assert events.get("partition_hits") == 2, events


# ----------------------------------------------------------------------
# config / wiring surface
# ----------------------------------------------------------------------
class TestFollowWiring:
    @pytest.mark.parametrize("name", ["ProgXe+", "ProgXe+ (No-Order)"])
    def test_follow_rejects_pushthrough(self, name):
        workload, live, _ = split_workload(n=40)
        session = Session().register_tables(live)
        bound = workload.query().bind(live)
        with pytest.raises(ValueError, match="pushthrough"):
            session.execute(bound, algorithm=name, config=EngineConfig(follow=True))

    def test_request_follow_coercion(self):
        request = QueryRequest.from_mapping(
            {"sql": "SELECT 1", "follow": "true"}
        )
        assert request.follow and request.engine_config().follow
        plain = QueryRequest.from_mapping({"sql": "SELECT 1"})
        assert not plain.follow and plain.engine_config() is None

    def test_result_stream_append_close_drain(self):
        workload, live, arriving = split_workload(seed=53)
        session = Session().register_tables(live)
        stream = session.execute(
            workload.query().bind(live),
            config=session.config.with_options(follow=True),
        )
        live["R"].extend_rows(arriving["R"])
        stream.close_ingest()
        results = stream.drain()
        report = verify_results(workload.query().bind(live), results)
        assert report.ok, report.render()

    def test_close_ingest_on_batch_stream_raises(self):
        workload, live, _ = split_workload(seed=59)
        session = Session().register_tables(live)
        stream = session.execute(workload.query().bind(live))
        with pytest.raises(QueryError, match="follow"):
            stream.close_ingest()


# ----------------------------------------------------------------------
# scheduler / serving interaction (satellite 4)
# ----------------------------------------------------------------------
def submit_follow(session, scheduler, workload, live, name="follow"):
    return scheduler.submit(
        workload.query().bind(live),
        config=session.config.with_options(follow=True),
        name=name,
    )


class TestSchedulerInteraction:
    def test_follow_query_does_not_starve_finite_queries(self):
        session = Session()
        workload, live, arriving = split_workload(seed=61)
        scheduler = session.scheduler()
        follow = submit_follow(session, scheduler, workload, live)
        finites = [
            scheduler.submit(make_bound(n=80, seed=400 + i), name=f"f{i}")
            for i in range(2)
        ]
        for _ in range(200_000):
            if all(f.finished for f in finites):
                break
            assert scheduler.tick(), (
                "scheduler went idle with finite queries pending"
            )
        assert all(f.state == COMPLETED for f in finites)
        # The follow query is still live (polling), not starved either:
        assert not follow.finished and follow.steps > 0
        live["R"].extend_rows(arriving["R"])
        live["T"].extend_rows(arriving["T"])
        follow.close_ingest()
        while not follow.finished and scheduler.tick():
            pass
        assert follow.state == COMPLETED
        report = verify_results(workload.query().bind(live), follow.results)
        assert report.ok, report.render()

    def test_deadline_guard_closes_follow_window_not_cancel(self):
        session = Session()
        workload, live, arriving = split_workload(seed=67)
        scheduler = session.scheduler()
        follow = submit_follow(session, scheduler, workload, live)
        for _ in range(10):
            scheduler.tick()
        live["R"].extend_rows(arriving["R"])
        for _ in range(30):
            scheduler.tick()
        guard = DeadlineGuard(
            follow, wall_limit=0.0, vtime_limit=None, follow=True
        )
        assert guard.expired() is not None
        assert guard.enforce() is True      # closes the arrival window...
        assert guard.enforce() is False     # ...exactly once
        while not follow.finished and scheduler.tick():
            pass
        # Absorbed rows were fully processed; the query COMPLETED.
        assert follow.state == COMPLETED
        report = verify_results(workload.query().bind(live), follow.results)
        assert report.ok, report.render()

    def test_deadline_guard_still_cancels_batch_queries(self):
        session = Session()
        scheduler = session.scheduler()
        handle = scheduler.submit(make_bound(n=80, seed=500))
        scheduler.tick()
        guard = DeadlineGuard(handle, wall_limit=0.0, vtime_limit=None)
        assert guard.enforce() is True
        scheduler.tick()  # cancellation is applied at the next decision
        assert handle.state == CANCELLED

    def test_backpressure_pause_pauses_delta_polling(self):
        async def main():
            session = Session()
            workload, live, arriving = split_workload(seed=71)
            scheduler = session.scheduler()
            follow = submit_follow(session, scheduler, workload, live)
            # Drive into the polling regime (queue dry, window open).
            kernel = None
            for _ in range(10_000):
                scheduler.tick()
                kernel = follow._stepper
                if kernel is not None and kernel.polls > 0:
                    break
            assert kernel is not None and kernel.polls > 0
            bridge = BackpressureBridge(follow, Watermarks(high=4, low=0))
            bridge.channel.put(b"frame-past-high-water")
            assert follow.paused
            polls = kernel.polls
            for _ in range(20):
                assert scheduler.tick() == []
            # Paused client => paused polling: arrivals are not absorbed.
            assert kernel.polls == polls
            live["R"].extend_rows(arriving["R"][:10])
            for _ in range(5):
                scheduler.tick()
            assert kernel.rows_ingested == 0
            await bridge.channel.get()  # client drains below low water
            assert not follow.paused
            for _ in range(10_000):
                scheduler.tick()
                if kernel.rows_ingested:
                    break
            assert kernel.polls > polls
            assert kernel.rows_ingested == 10
            follow.close_ingest()
            while not follow.finished and scheduler.tick():
                pass
            assert follow.state == COMPLETED
            report = verify_results(
                workload.query().bind(live), follow.results
            )
            assert report.ok, report.render()

        asyncio.run(main())
