"""The SkyMapJoin (SMJ) query model (paper §I, §II).

An SMJ query joins two relations, maps joined pairs through user-defined
mapping functions into an output space, and returns the skyline of the
mapped results under a Pareto preference:

    S_P ( µ[F, X] ( R ⋈_θ T ) )

:class:`SkyMapJoinQuery` is the logical query; :meth:`SkyMapJoinQuery.bind`
resolves it against concrete tables (validating schemas, applying local
filters once) and produces a :class:`BoundQuery` — the execution-ready form
every algorithm in the library consumes.  :class:`ResultTuple` is the common
output object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import BindingError, ExecutionError, QueryError
from repro.query.expressions import AttrRef
from repro.query.intervals import Interval
from repro.query.mapping import MappingSet
from repro.skyline.preferences import ParetoPreference
from repro.storage.partition import materialize_rows
from repro.storage.sources.base import DataSource
from repro.storage.sources.filtered import FilteredSource, conditions_fingerprint
from repro.storage.sources.memory import InMemorySource
from repro.storage.table import Row, Table  # noqa: F401  (re-export compat)

_FILTER_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,  # alias.attr IN (v1, v2, ...)
    "contains": lambda a, b: b in a,  # literal IN alias.attr (collection column)
}


def _is_empty(source: DataSource) -> bool:
    """Whether a source has no rows, without a full counting scan.

    ``len()`` on a filtered view of a larger-than-RAM backend counts by
    scanning everything; the bind-time emptiness check only needs to see
    the first row, so scan one-row batches without building tuples and
    stop at the first.
    """
    if isinstance(source, InMemorySource):
        return not source.rows
    for _ in source.scan_batches(1, with_rows=False):
        return False
    return True


def _columns_of(rows, width: int, indices: Sequence[int]):
    """``rows`` as an object indexable by schema position → float column."""
    gather = getattr(rows, "columns", None)
    if gather is not None:  # PairRows: no tuples to transpose
        return gather(indices)
    from repro.storage.column_batch import ColumnBatch

    return ColumnBatch(rows, width, indices)


@dataclass(frozen=True)
class JoinCondition:
    """Equi-join ``left_alias.left_attr = right_alias.right_attr``."""

    left_attr: str
    right_attr: str


@dataclass(frozen=True)
class FilterCondition:
    """A local (single-source) filter, e.g. ``R.manCap >= 100000``."""

    alias: str
    attribute: str
    op: str
    literal: Any

    def __post_init__(self) -> None:
        if self.op not in _FILTER_OPS:
            raise QueryError(
                f"unsupported filter operator {self.op!r}; "
                f"supported: {sorted(_FILTER_OPS)}"
            )

    def matches(self, value: Any) -> bool:
        """Apply the filter to one attribute value."""
        return _FILTER_OPS[self.op](value, self.literal)


@dataclass(frozen=True)
class PassThrough:
    """A select-list item carried through unchanged, e.g. ``R.id``."""

    alias: str
    attribute: str
    output_name: str


@dataclass(eq=False, repr=False, slots=True)
class ResultTuple:
    """One SMJ result: the joined pair plus its mapped output point.

    ``vector`` is the *normalised* (minimisation-space) comparison vector;
    ``mapped`` holds the raw mapped values in query orientation.

    A plain slots dataclass, picklable like the
    :class:`~repro.core.kernel.StepReport` that carries it.
    ``eq=False`` deliberately keeps identity-based equality and hashing:
    result bookkeeping throughout the library keys on the *object* (two
    distinct join results may carry equal rows and vectors).
    """

    left_row: Row
    right_row: Row
    mapped: tuple[float, ...]
    vector: tuple[float, ...]
    outputs: dict[str, Any]

    def key(self) -> tuple:
        """Identity key for cross-algorithm result-set comparison."""
        return (self.left_row, self.right_row)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultTuple({self.outputs})"


@dataclass
class SkyMapJoinQuery:
    """Logical SMJ query: join + filters + mappings + Pareto preference."""

    left_alias: str
    right_alias: str
    join: JoinCondition
    mappings: MappingSet
    preference: ParetoPreference
    filters: tuple[FilterCondition, ...] = ()
    passthrough: tuple[PassThrough, ...] = ()
    table_names: tuple[tuple[str, str], ...] = ()  # (alias, table name) from FROM

    def __post_init__(self) -> None:
        if self.left_alias == self.right_alias:
            raise QueryError("left and right aliases must differ")
        known = set(self.mappings.names)
        for p in self.preference:
            if p.attribute not in known:
                raise QueryError(
                    f"preference on {p.attribute!r} but no mapping defines it; "
                    f"mappings: {sorted(known)}"
                )
        aliases = {self.left_alias, self.right_alias}
        for f in self.filters:
            if f.alias not in aliases:
                raise QueryError(f"filter references unknown alias {f.alias!r}")
        for pt in self.passthrough:
            if pt.alias not in aliases:
                raise QueryError(f"select item references unknown alias {pt.alias!r}")
        for a, name in frozenset().union(
            *(m.attributes() for m in self.mappings)
        ):
            if a not in aliases:
                raise QueryError(f"mapping references unknown alias {a!r}")

    def bind(self, tables: Mapping[str, DataSource]) -> "BoundQuery":
        """Resolve against concrete data sources keyed by *alias*."""
        try:
            left = tables[self.left_alias]
            right = tables[self.right_alias]
        except KeyError as exc:
            raise BindingError(
                f"no table bound for alias {exc}; provided: {sorted(tables)}"
            ) from None
        return BoundQuery(self, left, right)

    def bind_by_table_name(self, tables: Mapping[str, DataSource]) -> "BoundQuery":
        """Resolve against concrete sources keyed by *table name* (FROM clause).

        Only available for queries built by the parser (which records the
        FROM-clause table names); programmatically built queries should use
        :meth:`bind`.
        """
        if not self.table_names:
            raise BindingError(
                "query has no FROM-clause table names; use bind() with aliases"
            )
        names = dict(self.table_names)
        by_alias: dict[str, DataSource] = {}
        for alias in (self.left_alias, self.right_alias):
            table_name = names[alias]
            try:
                by_alias[alias] = tables[table_name]
            except KeyError:
                raise BindingError(
                    f"no table named {table_name!r} provided for alias {alias!r}; "
                    f"provided: {sorted(tables)}"
                ) from None
        return self.bind(by_alias)


class BoundQuery:
    """An SMJ query resolved against concrete data sources.

    Exposes everything the engines need pre-computed: filtered sources,
    join key positions, mapped-attribute positions, a compiled mapping
    closure and preference normalisation.  Either side may be *any*
    :class:`~repro.storage.sources.base.DataSource` — an in-memory
    :class:`~repro.storage.table.Table` or an mmap-backed columnar file;
    local filters are applied eagerly for in-memory sources and wrapped
    as a streaming filter view otherwise.
    """

    def __init__(
        self,
        query: SkyMapJoinQuery,
        left: DataSource,
        right: DataSource,
    ) -> None:
        self.query = query
        self.left_alias = query.left_alias
        self.right_alias = query.right_alias
        #: The *unfiltered* sources the query was bound against — what the
        #: planner collects statistics over, so one cached summary per
        #: source serves every filter bound against it.
        self.left_base = left
        self.right_base = right

        self.left_table = self._filtered(left, query.left_alias, query)
        self.right_table = self._filtered(right, query.right_alias, query)
        if _is_empty(self.left_table):
            raise BindingError(
                f"table for alias {query.left_alias!r} has no rows after filters"
            )
        if _is_empty(self.right_table):
            raise BindingError(
                f"table for alias {query.right_alias!r} has no rows after filters"
            )

        self.left_join_index = self.left_table.schema.index(query.join.left_attr)
        self.right_join_index = self.right_table.schema.index(query.join.right_attr)

        self.left_map_attrs = query.mappings.source_attributes(query.left_alias)
        self.right_map_attrs = query.mappings.source_attributes(query.right_alias)
        self.left_map_indices = self.left_table.schema.indices(self.left_map_attrs)
        self.right_map_indices = self.right_table.schema.indices(self.right_map_attrs)

        left_index = {c: i for i, c in enumerate(self.left_table.schema.columns)}
        right_index = {c: i for i, c in enumerate(self.right_table.schema.columns)}
        self._map_fn = query.mappings.compile(
            query.left_alias, query.right_alias, left_index, right_index
        )

        # Preference sign per output dimension, in mapping order; 0 marks an
        # output that is not a skyline dimension.
        self.dimension_signs = query.preference.signs_for(query.mappings.names)
        self.skyline_dims: tuple[int, ...] = tuple(
            i for i, s in enumerate(self.dimension_signs) if s != 0
        )
        if not self.skyline_dims:
            raise BindingError("no mapping output participates in the preference")

        self._passthrough_specs = [
            (pt.output_name,
             0 if pt.alias == query.left_alias else 1,
             (self.left_table if pt.alias == query.left_alias
              else self.right_table).schema.index(pt.attribute))
            for pt in query.passthrough
        ]

    @staticmethod
    def _filtered(
        source: DataSource,
        alias: str,
        query: SkyMapJoinQuery,
    ) -> DataSource:
        conds = [f for f in query.filters if f.alias == alias]
        if not conds:
            return source
        if isinstance(source, InMemorySource):
            # Rows are resident anyway: filter eagerly.  The result adopts a
            # structural cache identity derived from the base table +
            # conditions, so re-binding the same filtered query shares
            # cached partitionings instead of minting an unreachable fresh
            # uid per bind.
            idx_conds = [(source.schema.index(f.attribute), f) for f in conds]

            def keep(row: Row) -> bool:
                return all(f.matches(row[i]) for i, f in idx_conds)

            return source.filter(keep).with_derived_identity(
                source, conditions_fingerprint(conds)
            )
        return FilteredSource(source, conds)

    @property
    def left_source(self) -> DataSource:
        """The (filtered) left data source — protocol-era name for
        :attr:`left_table`, which may be any backend."""
        return self.left_table

    @property
    def right_source(self) -> DataSource:
        """The (filtered) right data source (see :attr:`left_source`)."""
        return self.right_table

    # ------------------------------------------------------------------
    # hot-path evaluation
    # ------------------------------------------------------------------
    def map_pair(self, lrow: Row, rrow: Row) -> tuple[float, ...]:
        """Raw mapped values for one joined pair (query orientation).

        Refuses a pair whose vector would hold a NaN or ±inf
        (:meth:`_refuse_non_finite`), as :meth:`map_rows_batch` does."""
        mapped = self._map_fn(lrow, rrow)
        for i in self.skyline_dims:
            if not math.isfinite(mapped[i]):
                raise self._refuse_non_finite(mapped[i], i, lrow, rrow)
        return mapped

    def vector_of(self, mapped: tuple[float, ...]) -> tuple[float, ...]:
        """Normalised minimisation vector over the skyline dimensions."""
        signs = self.dimension_signs
        return tuple(
            signs[i] * mapped[i] for i in self.skyline_dims
        )

    def make_result(self, lrow: Row, rrow: Row,
                    mapped: tuple[float, ...] | None = None) -> ResultTuple:
        """Build the user-facing :class:`ResultTuple` for a joined pair."""
        if mapped is None:
            mapped = self.map_pair(lrow, rrow)
        outputs: dict[str, Any] = {}
        for name, side, idx in self._passthrough_specs:
            outputs[name] = (lrow if side == 0 else rrow)[idx]
        for name, value in zip(self.query.mappings.names, mapped):
            outputs[name] = value
        return ResultTuple(lrow, rrow, mapped, self.vector_of(mapped), outputs)

    # ------------------------------------------------------------------
    # batched (columnar) evaluation
    # ------------------------------------------------------------------
    def map_rows_batch(self, lrows: Sequence[Row], rrows: Sequence[Row]):
        """Columnar Map: mapped values for a chunk of joined pairs.

        ``lrows[i]`` joins with ``rrows[i]``; returns an ``(n, k)`` float64
        matrix whose rows are what :meth:`map_pair` returns per pair.  The
        compiled mapping closures are pure arithmetic over anything
        indexable by schema position, so they evaluate every mapping over
        the whole chunk in one vectorized pass.  Each side is either a
        sequence of row tuples (transposed into a
        :class:`~repro.storage.column_batch.ColumnBatch`) or a
        :class:`~repro.storage.partition.PairRows` — positions into a
        partition's column block, whose columns are gathered directly.
        """
        import numpy as np

        n = len(lrows)
        raw = self._map_fn(
            _columns_of(
                lrows, len(self.left_table.schema.columns), self.left_map_indices
            ),
            _columns_of(
                rrows, len(self.right_table.schema.columns), self.right_map_indices
            ),
        )
        cols = []
        for c in raw:
            arr = np.asarray(c, dtype=float)
            if arr.ndim == 0:  # constant-valued mapping dimension
                arr = np.full(n, float(arr))
            cols.append(arr)
        mapped = np.column_stack(cols)
        dims = list(self.skyline_dims)
        bad = ~np.isfinite(mapped[:, dims])
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise self._refuse_non_finite(mapped[i, dims[j]], dims[j], lrows[i], rrows[i])
        return mapped

    def _refuse_non_finite(
        self, value: float, dim: int, lrow: Any, rrow: Any
    ) -> ExecutionError:
        """The error for a pair whose mapped value ``value`` in output
        column ``dim`` is NaN or ±inf, naming the column and both rows.

        Finite inputs can map to one (``2 * 1e308`` overflows, and ``inf -
        inf`` is NaN).  A NaN breaks the transitivity of dominance, which
        the insertion path's scan-then-sweep order and the witness tests
        rest on; an infinity has no output grid cell.  ``lrow`` and
        ``rrow`` are row tuples or
        :class:`~repro.storage.partition.RowRef` references, fetched here.
        """
        shown = "NaN" if math.isnan(value) else repr(float(value))
        left, right = materialize_rows([lrow, rrow])
        return ExecutionError(
            f"{shown} in output column {self.query.mappings.names[dim]!r} for "
            f"{self.left_alias} row {left!r} joined with {self.right_alias} "
            f"row {right!r}: a mapped value must be a finite number"
        )

    def vectors_of_batch(self, mapped):
        """Batched :meth:`vector_of`: ``(n, k)`` mapped → ``(n, d)`` vectors."""
        import numpy as np

        dims = list(self.skyline_dims)
        signs = np.asarray(
            [self.dimension_signs[i] for i in dims], dtype=float
        )
        return np.asarray(mapped, dtype=float)[:, dims] * signs

    # ------------------------------------------------------------------
    # look-ahead support
    # ------------------------------------------------------------------
    def interval_env(
        self,
        left_bounds: Mapping[str, tuple[float, float]],
        right_bounds: Mapping[str, tuple[float, float]],
    ) -> dict[AttrRef, Interval]:
        """Build an interval environment from per-source attribute boxes."""
        env: dict[AttrRef, Interval] = {}
        for attr, (lo, hi) in left_bounds.items():
            env[(self.left_alias, attr)] = Interval(lo, hi)
        for attr, (lo, hi) in right_bounds.items():
            env[(self.right_alias, attr)] = Interval(lo, hi)
        return env

    def region_box(
        self,
        left_bounds: Mapping[str, tuple[float, float]],
        right_bounds: Mapping[str, tuple[float, float]],
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Normalised output-space box for a pair of input partition boxes.

        Applies the mapping functions over intervals, keeps only skyline
        dimensions and converts to minimisation space (negating maximised
        dimensions flips their interval endpoints).
        """
        env = self.interval_env(left_bounds, right_bounds)
        lows, highs = self.query.mappings.apply_intervals(env)
        lo_out = []
        hi_out = []
        for i in self.skyline_dims:
            s = self.dimension_signs[i]
            if s > 0:
                lo_out.append(lows[i])
                hi_out.append(highs[i])
            else:
                lo_out.append(-highs[i])
                hi_out.append(-lows[i])
        return tuple(lo_out), tuple(hi_out)

    def region_boxes(
        self,
        left_boxes: Sequence[Mapping[str, tuple[float, float]]],
        right_boxes: Sequence[Mapping[str, tuple[float, float]]],
    ):
        """:meth:`region_box` of all pairs from two non-empty box lists, as
        ``(nl, nr, d)`` lower / upper corner arrays: the same walk, once,
        over array-valued intervals; it raises if any pair's walk would."""
        import numpy as np

        def endpoints(boxes, shape):  # attribute -> (lo array, hi array)
            ends = np.array([[box[a] for a in boxes[0]] for box in boxes], float)
            return {
                a: (ends[:, k, 0].reshape(shape), ends[:, k, 1].reshape(shape))
                for k, a in enumerate(boxes[0])
            }

        lows, highs = self.region_box(
            endpoints(left_boxes, (-1, 1)), endpoints(right_boxes, (1, -1))
        )
        pairs = (len(left_boxes), len(right_boxes))
        return tuple(
            np.stack([np.broadcast_to(v, pairs) for v in side], axis=-1)
            for side in (lows, highs)
        )

    def row_corners(
        self,
        left_matrix,
        right_matrix,
        left_box: Mapping[str, tuple[float, float]],
        right_box: Mapping[str, tuple[float, float]],
    ):
        """:meth:`region_box` lower corners of single rows: ``(nl + nr, d)``,
        first each row of the ``(nl, k)`` ``left_matrix`` (a point box)
        against ``right_box``, then each row of ``right_matrix`` against
        ``left_box``.  Row ``i``'s corner is ``<=`` every pair it can join
        into within those boxes.  The matrices hold a side's mapping
        attributes in order; one array-valued walk covers both sides."""
        import numpy as np

        nl, nr = len(left_matrix), len(right_matrix)

        def env(matrix, attrs, box, rows_first):
            # Per attribute: the rows as point intervals, and ``box`` in the
            # slots of the other side's rows.
            out = {}
            for k, a in enumerate(attrs):
                rows = matrix[:, k]
                fill = [np.full(nr if rows_first else nl, end) for end in box[a]]
                out[a] = tuple(
                    np.concatenate((rows, end) if rows_first else (end, rows))
                    for end in fill
                )
            return out

        lows, _ = self.region_box(
            env(left_matrix, self.left_map_attrs, left_box, True),
            env(right_matrix, self.right_map_attrs, right_box, False),
        )
        shape = (nl + nr,)
        return np.stack(
            [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in lows], axis=1
        )

    @property
    def skyline_dimension_count(self) -> int:
        """Number of skyline dimensions ``d``."""
        return len(self.skyline_dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BoundQuery({self.left_alias}⋈{self.right_alias}, "
            f"{len(self.left_table)}x{len(self.right_table)} rows, "
            f"d={self.skyline_dimension_count})"
        )
