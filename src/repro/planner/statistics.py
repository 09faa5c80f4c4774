"""Per-source statistics: the input side of the cost-based planner.

A :class:`SourceStatistics` summarises one :class:`~repro.storage.sources
.base.DataSource` from a **single sampled batch scan**: row count,
per-column min/max, number-of-distinct-values (NDV) estimates, and
equi-width histograms over a bounded row sample.  The summaries are what
the planner's estimates (:mod:`repro.planner.cost`) consume: bytes
scanned, partition fanout, filter selectivity and join cardinality before
a single tuple of real work runs.

The :class:`StatisticsStore` caches summaries per source ``uid`` and
validates them with the source's ``cache_token`` — the same
``(uid, version, row_count)`` identity the partition cache uses:

* token unchanged → **hit**, no scan at all;
* token changed but the source proves an append-only delta
  (:func:`~repro.storage.sources.base.delta_start_row`) → **patch**: only
  the appended suffix is scanned and folded into the existing summary;
* anything else (out-of-band mutation, unknown source) → **rebuild**.

The store also holds the planner's *feedback* memory: after a run, actual
join/skyline cardinalities are recorded per query fingerprint
(:meth:`StatisticsStore.record_feedback`), so the next plan over the same
tables starts from observed numbers instead of independence assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number
from typing import Any, Iterable, Sequence

from repro.storage.sources.base import DataSource, delta_start_row

#: Rows summarised per source build; one scan stops after this many.
DEFAULT_SAMPLE_ROWS = 4096
#: Equi-width histogram resolution per numeric column.
DEFAULT_BINS = 16
#: Distinct values tracked exactly per column before the NDV estimator
#: switches to sample-scaled mode.
NDV_TRACK_LIMIT = 4096
#: Estimated storage footprint per column value (float64-ish).
BYTES_PER_VALUE = 8.0
#: Numeric columns whose pairwise moments are tracked for correlation
#: estimates; bounds the O(k²) cross-product accumulators.
MOMENT_COLUMN_LIMIT = 8


def _is_number(value: Any) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


@dataclass
class ColumnStatistics:
    """Summary of one column: bounds, NDV, and an equi-width histogram.

    Histogram bucket edges are fixed when the column is first summarised;
    values arriving through a streaming *patch* that fall outside the
    original ``[minimum, maximum]`` range clamp into the boundary buckets
    (the summary stays approximate but never loses mass).  Non-numeric
    columns track only distinct values — ``histogram`` stays empty and
    range selectivities fall back to a neutral guess.

    Example::

        stats = collect_statistics(table).column("price")
        stats.ndv                       # distinct-value estimate
        stats.selectivity("<=", 40.0)   # histogram-interpolated fraction
    """

    name: str
    numeric: bool = True
    minimum: float | None = None
    maximum: float | None = None
    histogram: list[int] = field(default_factory=list)
    #: Bucket edges backing ``histogram`` (fixed at build time).
    lo: float = 0.0
    hi: float = 0.0
    #: Rows folded into this summary so far.
    sampled: int = 0
    #: Distinct values seen in the sample (capped at NDV_TRACK_LIMIT).
    distinct: set = field(default_factory=set)
    saturated: bool = False

    def ndv(self, row_count: int) -> float:
        """Distinct-value estimate scaled to the full relation.

        Exact while the tracker has not saturated and the sample covered
        every row; otherwise the sample's distinct ratio is extrapolated
        linearly (capped at ``row_count``).
        """
        seen = len(self.distinct)
        if seen == 0:
            return 1.0
        if not self.saturated and self.sampled >= row_count:
            return float(seen)
        ratio = seen / max(self.sampled, 1)
        return max(float(seen), min(float(row_count), ratio * row_count))

    # ------------------------------------------------------------------
    # construction / patching
    # ------------------------------------------------------------------
    def _track_distinct(self, value: Any) -> None:
        if self.saturated:
            return
        self.distinct.add(value)
        if len(self.distinct) > NDV_TRACK_LIMIT:
            self.saturated = True

    def _bucket(self, value: float) -> int:
        span = self.hi - self.lo
        if span <= 0.0 or not self.histogram:
            return 0
        index = int((value - self.lo) / span * len(self.histogram))
        return min(max(index, 0), len(self.histogram) - 1)

    def seed(self, values: Sequence[Any], bins: int) -> None:
        """Build the summary from the initial sample (fixes bucket edges)."""
        for value in values:
            self._track_distinct(value)
        numbers = [float(v) for v in values if _is_number(v)]
        self.sampled = len(values)
        if not numbers:
            self.numeric = False
            return
        self.numeric = True
        self.minimum = min(numbers)
        self.maximum = max(numbers)
        self.lo, self.hi = self.minimum, self.maximum
        self.histogram = [0] * max(1, bins)
        for value in numbers:
            self.histogram[self._bucket(value)] += 1

    def patch(self, values: Iterable[Any]) -> None:
        """Fold appended values in: extend bounds, clamp into fixed buckets."""
        for value in values:
            self.sampled += 1
            self._track_distinct(value)
            if self.numeric and _is_number(value):
                value = float(value)
                if self.minimum is None or value < self.minimum:
                    self.minimum = value
                if self.maximum is None or value > self.maximum:
                    self.maximum = value
                if self.histogram:
                    self.histogram[self._bucket(value)] += 1

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def fraction_below(self, threshold: float, *, inclusive: bool) -> float:
        """Estimated fraction of values ``<`` (or ``<=``) ``threshold``."""
        if not self.numeric or self.minimum is None or self.maximum is None:
            return 0.5
        if threshold < self.minimum:
            return 0.0
        if threshold > self.maximum or (inclusive and threshold == self.maximum):
            return 1.0
        total = sum(self.histogram)
        if total == 0 or self.hi <= self.lo:
            return 0.5
        width = (self.hi - self.lo) / len(self.histogram)
        position = (threshold - self.lo) / width
        full = int(position)
        below = sum(self.histogram[:full])
        if full < len(self.histogram):
            # Linear interpolation inside the straddled bucket.
            below += self.histogram[full] * (position - full)
        return min(1.0, max(0.0, below / total))

    def selectivity(self, op: str, literal: Any) -> float:
        """Estimated fraction of rows matching ``column <op> literal``.

        Range operators interpolate the histogram; equality uses ``1/NDV``
        over the tracked distinct set; ``in`` scales equality by the
        literal count; ``contains`` (substring) has no summary to consult
        and returns a neutral ½.  Results are clamped to ``[1e-4, 1.0]``
        so downstream cardinalities never collapse to zero.
        """
        ndv = max(len(self.distinct), 1)
        if op == "=":
            hit = 1.0 if literal in self.distinct or self.saturated else 0.5
            estimate = hit / ndv
        elif op == "!=":
            estimate = 1.0 - 1.0 / ndv
        elif op == "in":
            try:
                k = len(literal)
            except TypeError:
                k = 1
            estimate = min(1.0, k / ndv)
        elif op in ("<", "<="):
            if not _is_number(literal):
                return 0.5
            estimate = self.fraction_below(float(literal), inclusive=op == "<=")
        elif op in (">", ">="):
            if not _is_number(literal):
                return 0.5
            estimate = 1.0 - self.fraction_below(
                float(literal), inclusive=op == ">"
            )
        else:  # "contains" and anything the parser grows later
            estimate = 0.5
        return min(1.0, max(1e-4, estimate))

    def concentration(self) -> float:
        """Largest single-bucket share — the planner's skew signal.

        ``1/bins`` for perfectly uniform data, approaching ``1.0`` when the
        sample piles into one bucket.  Non-numeric columns report uniform.
        """
        total = sum(self.histogram)
        if total == 0 or not self.histogram:
            return 0.0
        return max(self.histogram) / total


@dataclass
class SourceStatistics:
    """One source's summary: the unit the :class:`StatisticsStore` caches.

    Example::

        stats = collect_statistics(table)
        stats.row_count
        stats.selectivity([FilterCondition("R", "price", "<=", 40.0)])
        stats.estimated_bytes()
    """

    uid: Any
    kind: str
    token: tuple
    row_count: int
    sampled_rows: int
    columns: dict[str, ColumnStatistics]
    column_count: int
    #: Numeric columns whose pairwise moments are accumulated (capped at
    #: MOMENT_COLUMN_LIMIT — correlation() answers 0.0 for the rest).
    moment_names: tuple[str, ...] = ()
    moment_count: int = 0
    moment_sums: dict[str, float] = field(default_factory=dict)
    moment_sumsq: dict[str, float] = field(default_factory=dict)
    moment_prods: dict[tuple[str, str], float] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics | None:
        """The named column's summary (``None`` for unknown columns)."""
        return self.columns.get(name)

    def selectivity(self, conditions: Sequence) -> float:
        """Combined selectivity of local filters (independence assumption)."""
        estimate = 1.0
        for condition in conditions:
            stats = self.columns.get(condition.attribute)
            if stats is None:
                estimate *= 0.5
            else:
                estimate *= stats.selectivity(condition.op, condition.literal)
        return min(1.0, max(1e-4, estimate))

    def estimated_rows(self, conditions: Sequence = ()) -> float:
        """Expected surviving rows after ``conditions``."""
        return max(1.0, self.row_count * self.selectivity(conditions))

    def estimated_bytes(self) -> float:
        """Approximate storage footprint of the full relation."""
        return self.row_count * self.column_count * BYTES_PER_VALUE

    def key_ndv(self, attribute: str) -> float:
        """NDV of a join-key column (``1`` when unknown)."""
        stats = self.columns.get(attribute)
        if stats is None:
            return 1.0
        return stats.ndv(self.row_count)

    def skew(self, attributes: Sequence[str]) -> float:
        """Worst histogram concentration across ``attributes``."""
        scores = [
            self.columns[a].concentration()
            for a in attributes
            if a in self.columns
        ]
        return max(scores) if scores else 0.0

    # ------------------------------------------------------------------
    # pairwise moments / correlation
    # ------------------------------------------------------------------
    def fold_moments(
        self, rows: Iterable[Sequence[Any]], schema_columns: Sequence[str]
    ) -> None:
        """Accumulate sums, squares and cross-products over ``rows``.

        Rows where any tracked column is non-numeric are skipped whole so
        every accumulator covers the same row set (a requirement for the
        Pearson estimate in :meth:`correlation`).
        """
        if not self.moment_names:
            return
        positions = [
            (name, schema_columns.index(name)) for name in self.moment_names
        ]
        pairs = [
            (a, b)
            for i, a in enumerate(self.moment_names)
            for b in self.moment_names[i + 1:]
        ]
        for row in rows:
            values = {}
            for name, index in positions:
                value = row[index]
                if not _is_number(value):
                    values = None
                    break
                values[name] = float(value)
            if values is None:
                continue
            self.moment_count += 1
            for name, value in values.items():
                self.moment_sums[name] = self.moment_sums.get(name, 0.0) + value
                self.moment_sumsq[name] = (
                    self.moment_sumsq.get(name, 0.0) + value * value
                )
            for a, b in pairs:
                self.moment_prods[(a, b)] = (
                    self.moment_prods.get((a, b), 0.0) + values[a] * values[b]
                )

    def correlation(self, a: str, b: str) -> float:
        """Sampled Pearson correlation of columns ``a`` and ``b``.

        ``0.0`` whenever the estimate is undefined — untracked columns,
        fewer than two complete rows, or a degenerate (constant) column —
        so callers can treat the answer as "no known linear dependence".
        """
        if a == b:
            return 1.0 if a in self.moment_names else 0.0
        key = (a, b) if (a, b) in self.moment_prods else (b, a)
        if key not in self.moment_prods or self.moment_count < 2:
            return 0.0
        n = float(self.moment_count)
        cov = self.moment_prods[key] - self.moment_sums[a] * self.moment_sums[b] / n
        var_a = self.moment_sumsq[a] - self.moment_sums[a] ** 2 / n
        var_b = self.moment_sumsq[b] - self.moment_sums[b] ** 2 / n
        if var_a <= 0.0 or var_b <= 0.0:
            return 0.0
        r = cov / (var_a * var_b) ** 0.5
        return min(1.0, max(-1.0, r))

    def mean_abs_correlation(self, attributes: Sequence[str]) -> float:
        """Mean ``|r|`` over all pairs of ``attributes`` (0.0 if < 2)."""
        scores = self._pair_correlations(attributes)
        return sum(abs(s) for s in scores) / len(scores) if scores else 0.0

    def _pair_correlations(self, attributes: Sequence[str]) -> list[float]:
        tracked = [a for a in attributes if a in self.moment_names]
        return [
            self.correlation(a, b)
            for i, a in enumerate(tracked)
            for b in tracked[i + 1:]
        ]


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
    schema_columns = tuple(source.schema.columns)
    token = source.cache_token
    row_count = len(source)
    sample: list[tuple] = []
    for batch in source.scan_batches():
        sample.extend(batch.rows)
        if len(sample) >= sample_rows:
            del sample[sample_rows:]
            break
    columns: dict[str, ColumnStatistics] = {}
    for index, name in enumerate(schema_columns):
        column = ColumnStatistics(name=name)
        column.seed([row[index] for row in sample], bins)
        columns[name] = column
    tracked = tuple(
        name for name in schema_columns if columns[name].numeric
    )[:MOMENT_COLUMN_LIMIT]
    stats = SourceStatistics(
        uid=source.uid,
        kind=source.kind,
        token=token,
        row_count=row_count,
        sampled_rows=len(sample),
        columns=columns,
        column_count=len(schema_columns),
        moment_names=tracked,
    )
    stats.fold_moments(sample, schema_columns)
    return stats


@dataclass(frozen=True)
class JoinObservation:
    """Actuals from one finished run, keyed by query fingerprint.

    ``rows_left`` / ``rows_right`` are the (filtered) input cardinalities
    the observation was taken at, so later plans over grown tables can
    scale ``join_rows`` instead of replaying it verbatim.
    """

    rows_left: float
    rows_right: float
    join_rows: float
    skyline_size: float
    regions: float


@dataclass(frozen=True)
class StatisticsCounters:
    """Cache-outcome counters of a :class:`StatisticsStore` (plain data)."""

    hits: int
    patches: int
    rebuilds: int
    entries: int
    feedback_entries: int


class StatisticsStore:
    """Token-validated cache of :class:`SourceStatistics` plus feedback.

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
        self._feedback: dict[Any, JoinObservation] = {}
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
        start = delta_start_row(source, held.token)
        if start is None:
            return None
        try:
            batches = source.scan_batches(since_version=held.token)
            names = tuple(source.schema.columns)
            for batch in batches:
                for index, name in enumerate(names):
                    column = held.columns.get(name)
                    if column is not None:
                        column.patch(row[index] for row in batch.rows)
                held.fold_moments(batch.rows, names)
        except TypeError:
            # The source proved the delta but cannot scan a suffix (no
            # since_version support): a rebuild is the only safe answer.
            return None
        held.token = source.cache_token
        held.row_count = len(source)
        held.sampled_rows = min(held.sampled_rows + (len(source) - start),
                                len(source))
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

    # ------------------------------------------------------------------
    # run feedback
    # ------------------------------------------------------------------
    def record_feedback(
        self, fingerprint: Any, observation: JoinObservation
    ) -> None:
        """Store post-run actuals for ``fingerprint`` (latest wins)."""
        self._feedback[fingerprint] = observation
        while len(self._feedback) > self.max_entries:
            self._feedback.pop(next(iter(self._feedback)))

    def feedback_for(self, fingerprint: Any) -> JoinObservation | None:
        """The latest observation recorded for ``fingerprint``, if any."""
        return self._feedback.get(fingerprint)

    def counters(self) -> StatisticsCounters:
        """Hit/patch/rebuild counters plus entry counts (plain data)."""
        return StatisticsCounters(
            hits=self.hits,
            patches=self.patches,
            rebuilds=self.rebuilds,
            entries=len(self._entries),
            feedback_entries=len(self._feedback),
        )
