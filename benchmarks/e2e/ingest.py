"""``ingest-follow``: a follow query absorbing arriving rows, in-process.

No server: the same storage / cache / core layers as the served workloads,
used the other way round — writes beside reads.  One *session* is the unit
the other workloads call a query: tables holding the first half of the rows,
a ``follow=True`` query submitted to ``Session.scheduler()``, the second half
arriving in chunks via ``Table.extend_rows`` (each followed by ticks until
the kernel polls and finds nothing), then ``close_ingest()`` and a drain.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from benchmarks.e2e.client import QueryRecord
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.storage.table import Table


class _Stopped(Exception):
    """The session cannot go on: the reason becomes the record's failure."""


def follow_session(full_tables, workload, rows: int, deadline: float) -> QueryRecord:
    """Run one follow session over the first ``rows`` rows of each table.

    ``deadline`` (a ``perf_counter`` value) is the wall cap: a session that
    passes it, or whose query stops being runnable while its arrival window
    is still open, returns a failed record instead of ticking forever.
    """
    spec = workload.queries[0]
    half = rows // 2
    tables = {
        alias: Table(alias, table.schema.columns, table.rows[:half])
        for alias, table in full_tables.items()
    }
    scheduler = Session().register_tables(tables).scheduler()
    record = QueryRecord(spec.name)
    record.sent = sent = time.perf_counter()
    handle = scheduler.submit(spec.sql(), config=EngineConfig(follow=True))

    def tick() -> list[str]:
        """One scheduling decision; returns the kinds of the steps it ran
        (none once the query is terminal or paused)."""
        if time.perf_counter() > deadline:
            raise _Stopped("wall cap exceeded")
        burst = scheduler.tick()
        now = time.perf_counter() - sent
        for _, report in burst:
            for result in report.results:
                record.result_times.append(now)
                record.keys.append((result.outputs["rid"], result.outputs["tid"]))
        return [report.kind for _, report in burst]

    def run_until_polls(count: int) -> None:
        # An arrival poll ("ingest" step) happens only when the region queue
        # is dry: the first one after an append absorbs it, the second finds
        # nothing — the kernel has caught up.
        while count > 0:
            kinds = tick()
            if not kinds:
                raise _Stopped("query stopped while its arrival window was open")
            count -= kinds.count("ingest")

    try:
        run_until_polls(1)
        step = max(1, (rows - half) // workload.chunks)
        for chunk in range(workload.chunks):
            lo = half + chunk * step
            hi = rows if chunk == workload.chunks - 1 else lo + step
            for alias, table in tables.items():
                table.extend_rows(full_tables[alias].rows[lo:hi])
            run_until_polls(2)
        handle.close_ingest()
        while tick():
            pass
        record.complete_s = time.perf_counter() - sent
    except _Stopped as stop:
        record.failures.append(str(stop))
    except Exception as exc:  # the scheduler re-raises whatever a step raised
        record.failures.append(f"step raised {exc!r}")
    record.state = handle.state
    record.stats = {**asdict(handle.stats()), "steps": handle.steps}
    if handle.state != "completed":
        record.failures.append(f"terminal state {handle.state!r}")
    return record
