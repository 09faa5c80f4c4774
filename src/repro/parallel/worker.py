"""Worker-side execution of one region's join (importable, spawn-safe).

A worker task reproduces, bit for bit, the *pair stream* that solo
tuple-level processing (:mod:`repro.core.tuple_level`) would have fed the
output grid for one region: the same hash-join orientation (build on the
smaller side), the same probe order, the same per-probe-row match groups.
The worker maps the pairs and computes their normalised vectors, charges
the join/map work to a private :class:`~repro.runtime.clock.VirtualClock`,
and returns everything as a picklable :class:`RegionResult`.  All
dominance work — insertion, marking, settle cascades, emission — stays in
the coordinator, which is what makes the sharded emission order identical
to the solo kernel's (see ``docs/sharding.md``).

Everything here must be importable from a fresh ``spawn`` interpreter:
the task entry point :func:`run_region_task` is a module-level function,
the payloads are plain dataclasses, and per-query state (a re-bound query
over the columnar shard paths) is cached process-globally keyed by the
context file the coordinator wrote.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Sequence

from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.storage.sources.columnar import ColumnarFileSource

#: Re-bound query contexts cached per worker process, keyed by context
#: path.  Bounded so long-lived pools shared across many queries do not
#: pin every spill directory's mmaps forever.
_CONTEXTS: dict[str, "_WorkerContext"] = {}
_MAX_CACHED_CONTEXTS = 4


@dataclass(frozen=True)
class RegionTask:
    """One region's work order (coordinator → worker, picklable).

    Exactly one of ``rows``/``ids`` is set per side: lazy partitions ship
    global row ids (the worker gathers tuples from its own mmap of the
    columnar shard — zero copies through the task queue), partitions that
    were materialised during planning (push-through survivors) ship their
    rows directly.
    """

    rid: int
    context_path: str
    left_rows: tuple | None
    left_ids: Any
    right_rows: tuple | None
    right_ids: Any


@dataclass
class RegionResult:
    """One region's join output (worker → coordinator, picklable).

    ``lrows[i]`` joined with ``rrows[i]``; pairs appear in the exact order
    solo processing would have generated them.  ``group_sizes`` are the
    per-probe-row match-group lengths (rows without matches contribute no
    group), which the coordinator uses to replay the solo kernel's flush
    and drain cadence.  ``mapped``/``vectors`` are ``(n, k)``/``(n, d)``
    float64 matrices (empty lists when the region joined nothing).
    ``charges`` is the worker clock's per-kind charge delta for
    this region (join build/probe/result and mapping work).
    """

    rid: int
    lrows: list
    rrows: list
    group_sizes: list[int]
    mapped: Any
    vectors: Any
    charges: dict[str, int]

    @property
    def pair_count(self) -> int:
        """Number of join results produced for the region."""
        return len(self.lrows)


class _WorkerContext:
    """Per-query worker state: the query re-bound over the shard paths."""

    __slots__ = ("bound",)

    def __init__(self, payload: dict) -> None:
        query = payload["query"]
        left = ColumnarFileSource(payload["left_path"])
        right = ColumnarFileSource(payload["right_path"])
        self.bound: BoundQuery = query.bind(
            {query.left_alias: left, query.right_alias: right}
        )


def _context(path: str) -> _WorkerContext:
    context = _CONTEXTS.get(path)
    if context is None:
        with open(path, "rb") as f:
            payload = pickle.load(f)
        context = _WorkerContext(payload)
        while len(_CONTEXTS) >= _MAX_CACHED_CONTEXTS:
            _CONTEXTS.pop(next(iter(_CONTEXTS)))
        _CONTEXTS[path] = context
    return context


def _side_rows(
    bound: BoundQuery, rows: tuple | None, ids: Any, side: str
) -> list:
    if rows is not None:
        return list(rows)
    source = bound.left_table if side == "left" else bound.right_table
    return source.fetch_rows(ids)


def _join(
    bound: BoundQuery,
    clock: VirtualClock,
    left_rows: Sequence[tuple],
    right_rows: Sequence[tuple],
) -> tuple[list, list, list[int]]:
    """The region's join results in solo pair order, with group sizes.

    Mirrors the hash join of :func:`repro.core.tuple_level.process_region`:
    build on the smaller side, probe in partition order, matches in build
    order.  Charges one ``join_build`` per build row and one
    ``join_probe`` per probe row (the totals the solo path charges).
    """
    if len(left_rows) <= len(right_rows):
        build_rows, probe_rows = left_rows, right_rows
        build_key, probe_key = bound.left_join_index, bound.right_join_index
        build_is_left = True
    else:
        build_rows, probe_rows = right_rows, left_rows
        build_key, probe_key = bound.right_join_index, bound.left_join_index
        build_is_left = False

    table: dict = {}
    clock.charge("join_build", len(build_rows))
    for row in build_rows:
        table.setdefault(row[build_key], []).append(row)

    lrows: list = []
    rrows: list = []
    group_sizes: list[int] = []
    clock.charge("join_probe", len(probe_rows))
    for prow in probe_rows:
        matches = table.get(prow[probe_key])
        if not matches:
            continue
        if build_is_left:
            for brow in matches:
                lrows.append(brow)
                rrows.append(prow)
        else:
            for brow in matches:
                lrows.append(prow)
                rrows.append(brow)
        group_sizes.append(len(matches))
    return lrows, rrows, group_sizes


def run_region_task(task: RegionTask) -> RegionResult:
    """Execute one region's join + map in this worker process.

    The module-level task entry point the pool pickles by reference; must
    stay importable (``process-hygiene`` lint rule).
    """
    context = _context(task.context_path)
    bound = context.bound
    clock = VirtualClock()
    left_rows = _side_rows(bound, task.left_rows, task.left_ids, "left")
    right_rows = _side_rows(bound, task.right_rows, task.right_ids, "right")
    lrows, rrows, group_sizes = _join(bound, clock, left_rows, right_rows)

    n = len(lrows)
    mapped: Any = []
    vectors: Any = []
    if n:
        clock.charge("join_result", n)
        clock.charge("map", n)
        mapped = bound.map_rows_batch(lrows, rrows)
        vectors = bound.vectors_of_batch(mapped)
    charges = {k: v for k, v in clock.snapshot().items() if v}
    return RegionResult(
        rid=task.rid,
        lrows=lrows,
        rrows=rrows,
        group_sizes=group_sizes,
        mapped=mapped,
        vectors=vectors,
        charges=charges,
    )
