"""The planning-facing face of cross-query work sharing.

:class:`PlanCache` is the object :meth:`repro.core.plan.QueryPlan.build`
consumes: it owns a :class:`~repro.cache.store.PartitionStore` and answers
"partition this table with this partitioner" either from cache or by
running the partitioner.  Everything *after* phase 1 — push-through,
look-ahead, region wiring, cones — stays per-query, because it depends on
the query's preferences, mapping functions and conditions.

A :class:`~repro.session.service.Session` owns one ``PlanCache`` by default,
so concurrent queries over the same registered tables share partitioning
work automatically; ``EngineConfig(share_partitions=False)`` (per query,
or as the session's default config) opts out.
"""

from __future__ import annotations

from typing import Sequence

from repro.cache.store import CacheStats, PartitionKey, PartitionStore
from repro.storage.sources.base import DataSource, delta_start_row


class PlanCache:
    """Shared partition/plan-prologue cache used by ``QueryPlan.build``.

    Example::

        cache = PlanCache(max_entries=32)
        grid, outcome, _ = cache.get_or_partition_outcome(
            GridPartitioner(4), table, ("a0", "a1"), "jkey", source="R",
        )
        assert outcome == "miss"           # first build
        _, outcome, _ = cache.get_or_partition_outcome(
            GridPartitioner(4), table, ("a0", "a1"), "jkey", source="R",
        )
        assert outcome == "hit"            # same table+config: shared
        cache.stats().hit_rate             # 0.5

    The cache is cooperative-concurrency safe: the scheduler interleaves
    kernels on one thread, and the structures handed out are read-only
    during execution, so no locking is needed.
    """

    def __init__(
        self,
        store: PartitionStore | None = None,
        *,
        max_entries: int = 64,
    ) -> None:
        self.store = store if store is not None else PartitionStore(max_entries)

    def key_for(
        self,
        partitioner,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        *,
        source: str | None = None,
    ) -> PartitionKey:
        """The :class:`PartitionKey` this cache would use for the request."""
        return PartitionKey.for_table(
            table, attributes, join_attribute, partitioner.descriptor(),
            source=source,
        )

    def get_or_partition_outcome(
        self,
        partitioner,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        *,
        source: str | None = None,
    ) -> tuple[object, str, int]:
        """Partition ``table`` (or reuse a shared build); returns
        ``(structure, outcome, delta_rows)`` with outcome ``"hit"``,
        ``"patched"`` or ``"miss"`` (``delta_rows`` is the number of
        appended rows a patch consumed; 0 for hits and misses).

        ``partitioner`` is a :class:`~repro.storage.grid.GridPartitioner` or
        :class:`~repro.storage.quadtree.QuadTreePartitioner`; its
        ``descriptor()`` plus the table's
        :attr:`~repro.storage.sources.base.DataSource.cache_token` form
        the key.

        ``"patched"`` is the streaming path: the store held the same
        partitioning over an older generation of the table, the source
        proved an append-only delta from that generation
        (:func:`~repro.storage.sources.base.delta_start_row`), and the
        cached structure was *extended* with the appended rows via the
        partitioner's ``partition_delta`` instead of rebuilt — queries
        2..N over a growing table plan in delta time.  An unprovable delta
        (non-append mutation) invalidates the stale generation and
        rebuilds, exactly as before.
        """
        key = self.key_for(
            partitioner, table, attributes, join_attribute, source=source
        )
        patch = getattr(partitioner, "partition_delta", None)
        delta_rows = 0

        def patcher(old_key: PartitionKey, structure: object) -> bool:
            nonlocal delta_rows
            if patch is None:
                return False
            token = (old_key.table_uid, old_key.table_version, old_key.row_count)
            if delta_start_row(table, token) is None:
                return False
            patch(
                structure, table, attributes, join_attribute,
                since_token=token, end_row=key.row_count,
            )
            delta_rows = max(0, key.row_count - old_key.row_count)
            return True

        structure, outcome = self.store.get_or_patch(
            key,
            patcher=patcher,
            builder=lambda: partitioner.partition(
                table, attributes, join_attribute, source=source
            ),
        )
        return structure, outcome, delta_rows

    def invalidate(self, table: DataSource) -> int:
        """Drop every cached partitioning of ``table``; returns the count."""
        return self.store.invalidate_table(table)

    def clear(self) -> None:
        """Drop everything held by the underlying store."""
        self.store.clear()

    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the underlying store."""
        return self.store.stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanCache({self.store!r})"
