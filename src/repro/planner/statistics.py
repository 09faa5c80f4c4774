"""Per-source statistics: the histograms the planner's skew rule reads.

A :class:`SourceStatistics` summarises one :class:`~repro.storage.sources
.base.DataSource` from a **single sampled batch scan**: the row count and
an equi-width histogram per numeric column over a bounded row sample.
The planner reads only the histograms' concentration
(:meth:`SourceStatistics.skew`).

The :class:`StatisticsStore` caches summaries per source ``uid`` and
validates them with the source's ``cache_token`` — the same
``(uid, version, row_count)`` identity the partition cache uses:

* token unchanged → **hit**, no scan at all;
* token changed but the source proves an append-only delta
  (:func:`~repro.storage.sources.base.delta_start_row`) → **patch**: only
  the appended suffix is scanned and folded into the existing summary;
* anything else (out-of-band mutation, unknown source) → **rebuild**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Number
from typing import Any, Iterable, Sequence

from repro.storage.sources.base import DataSource, delta_start_row

#: Rows summarised per source build; one scan stops after this many.
DEFAULT_SAMPLE_ROWS = 4096
#: Equi-width histogram resolution per numeric column.
DEFAULT_BINS = 16


def _is_number(value: Any) -> bool:
    # NaN and ±inf are summarised like a missing value (neither compares
    # strictly between the infinities); a non-finite value in a mapped
    # column is refused where the rows are partitioned.
    return (
        isinstance(value, Number) and not isinstance(value, bool)
        and -math.inf < value < math.inf
    )


@dataclass
class ColumnStatistics:
    """One column's equi-width histogram over the sample.

    Bucket edges ``[lo, hi]`` are the sample's bounds, fixed when the
    column is first summarised; values arriving through a streaming
    *patch* that fall outside them clamp into the boundary buckets (the
    summary stays approximate but never loses mass).  A column with no
    finite number in the sample keeps an empty ``histogram``.

    Example::

        stats = collect_statistics(table).column("price")
        stats.histogram                 # counts per bucket
        stats.concentration()           # largest bucket's share
    """

    name: str
    histogram: list[int] = field(default_factory=list)
    lo: float = 0.0
    hi: float = 0.0

    def _bucket(self, value: float) -> int:
        span = self.hi - self.lo
        if span <= 0.0:
            return 0
        index = int((value - self.lo) / span * len(self.histogram))
        return min(max(index, 0), len(self.histogram) - 1)

    def seed(self, values: Sequence[Any], bins: int) -> None:
        """Build the histogram from the initial sample (fixes bucket edges)."""
        numbers = [float(v) for v in values if _is_number(v)]
        if not numbers:
            return
        self.lo, self.hi = min(numbers), max(numbers)
        self.histogram = [0] * max(1, bins)
        for value in numbers:
            self.histogram[self._bucket(value)] += 1

    def patch(self, values: Iterable[Any]) -> None:
        """Fold appended values into the fixed buckets."""
        if not self.histogram:
            return
        for value in values:
            if _is_number(value):
                self.histogram[self._bucket(float(value))] += 1

    def concentration(self) -> float:
        """Largest single-bucket share — the planner's skew signal.

        ``1/bins`` for perfectly uniform data, approaching ``1.0`` when the
        sample piles into one bucket.  Non-numeric columns report ``0.0``.
        """
        total = sum(self.histogram)
        if total == 0:
            return 0.0
        return max(self.histogram) / total


@dataclass
class SourceStatistics:
    """One source's summary: the unit the :class:`StatisticsStore` caches.

    Example::

        stats = collect_statistics(table)
        stats.row_count
        stats.skew(("a0", "a1"))        # worst concentration of the two
    """

    uid: Any
    token: tuple
    row_count: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics | None:
        """The named column's summary (``None`` for unknown columns)."""
        return self.columns.get(name)

    def skew(self, attributes: Sequence[str]) -> float:
        """Worst histogram concentration across ``attributes``."""
        scores = [
            self.columns[a].concentration()
            for a in attributes
            if a in self.columns
        ]
        return max(scores) if scores else 0.0


def collect_statistics(
    source: DataSource,
    *,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    bins: int = DEFAULT_BINS,
) -> SourceStatistics:
    """Summarise ``source`` in one sampled batch scan.

    All schema columns are summarised, so one summary serves any query
    over the source.  The scan stops after ``sample_rows`` rows; the exact
    row count comes from ``len(source)`` (metadata, not a scan).

    Example::

        stats = collect_statistics(table, sample_rows=1024)
        stats.column("a0").histogram
    """
    token = source.cache_token
    sample: list[tuple] = []
    for batch in source.scan_batches():
        sample.extend(batch.rows)
        if len(sample) >= sample_rows:
            del sample[sample_rows:]
            break
    columns: dict[str, ColumnStatistics] = {}
    for index, name in enumerate(source.schema.columns):
        column = ColumnStatistics(name=name)
        column.seed([row[index] for row in sample], bins)
        columns[name] = column
    return SourceStatistics(
        uid=source.uid, token=token, row_count=len(source), columns=columns
    )


@dataclass(frozen=True)
class StatisticsCounters:
    """Cache-outcome counters of a :class:`StatisticsStore` (plain data)."""

    hits: int
    patches: int
    rebuilds: int
    entries: int


class StatisticsStore:
    """Token-validated cache of :class:`SourceStatistics`.

    Example::

        store = StatisticsStore()
        stats = store.for_source(table)      # scan + summarise
        stats = store.for_source(table)      # token unchanged: cache hit
        table.extend_rows(new_rows)
        stats = store.for_source(table)      # append proven: patch, not rebuild
        store.counters().patches             # 1
    """

    def __init__(
        self,
        *,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
        bins: int = DEFAULT_BINS,
        max_entries: int = 128,
    ) -> None:
        self.sample_rows = sample_rows
        self.bins = bins
        self.max_entries = max_entries
        self._entries: dict[Any, SourceStatistics] = {}
        self.hits = 0
        self.patches = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # source summaries
    # ------------------------------------------------------------------
    def for_source(self, source: DataSource) -> SourceStatistics:
        """The source's summary: cached, patched, or rebuilt as the token
        demands (see the module docstring for the three-way split)."""
        uid = source.uid
        held = self._entries.get(uid)
        token = source.cache_token
        if held is not None:
            if held.token == token:
                self.hits += 1
                return held
            patched = self._try_patch(source, held)
            if patched is not None:
                self.patches += 1
                return patched
        built = collect_statistics(
            source, sample_rows=self.sample_rows, bins=self.bins
        )
        self.rebuilds += 1
        self._remember(uid, built)
        return built

    def _try_patch(
        self, source: DataSource, held: SourceStatistics
    ) -> SourceStatistics | None:
        """Fold an append-only delta into ``held``; ``None`` if unprovable."""
        if delta_start_row(source, held.token) is None:
            return None
        try:
            batches = source.scan_batches(since_version=held.token)
            names = tuple(source.schema.columns)
            for batch in batches:
                for index, name in enumerate(names):
                    column = held.columns.get(name)
                    if column is not None:
                        column.patch(row[index] for row in batch.rows)
        except TypeError:
            # The source proved the delta but cannot scan a suffix (no
            # since_version support): a rebuild is the only safe answer.
            return None
        held.token = source.cache_token
        held.row_count = len(source)
        return held

    def invalidate(self, source_or_uid: Any) -> None:
        """Drop a cached summary (by source or raw uid)."""
        uid = getattr(source_or_uid, "uid", source_or_uid)
        self._entries.pop(uid, None)

    def _remember(self, uid: Any, stats: SourceStatistics) -> None:
        self._entries[uid] = stats
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    def cached(self, source_or_uid: Any) -> SourceStatistics | None:
        """The cached summary if present (no scan, no validation)."""
        uid = getattr(source_or_uid, "uid", source_or_uid)
        return self._entries.get(uid)

    def counters(self) -> StatisticsCounters:
        """Hit/patch/rebuild counters plus the entry count (plain data)."""
        return StatisticsCounters(
            hits=self.hits,
            patches=self.patches,
            rebuilds=self.rebuilds,
            entries=len(self._entries),
        )
