"""The shared partition store: memoised phase-1 work, keyed by content.

Input partitioning — gridding or quad-treeing a table over its mapping
attributes and attaching join-value signatures to every cell — is the
expensive *query-independent* prologue of the ProgXe pipeline: it depends
only on the table's contents, the partitioning attributes, the join
attribute and the partitioner configuration, never on preferences or filter
conditions.  :class:`PartitionStore` memoises that work so N concurrent
queries over the same tables partition once and share the result.

Safety rests on two facts:

* built :class:`~repro.storage.grid.InputGrid` /
  :class:`~repro.storage.quadtree.QuadTreeIndex` structures are **read-only
  during execution** — the kernel reads partition column blocks and
  signatures but mutates only its own per-plan regions and output grid
  (a partition's column block is a fill-once cache every sharer reads),
  so one structure can back any number of simultaneous kernels;
* every key embeds the source's :attr:`~repro.storage.sources.base.DataSource.cache_token`
  (identity, version, cardinality), so mutating a table through its API
  bumps the version and the next plan rebuilds instead of reading stale
  partitions.

The store is a bounded LRU: least-recently-used entries are evicted once
``max_entries`` is exceeded, and per-table invalidation
(:meth:`PartitionStore.invalidate_table`) drops every generation of a
table's entries at once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import QueryError
from repro.storage.sources.base import DataSource


@dataclass(frozen=True)
class PartitionKey:
    """Identity of one memoised partitioning.

    Two plans may share a built input grid exactly when all of these agree:

    table_uid / table_version / row_count:
        The source's :attr:`~repro.storage.sources.base.DataSource.cache_token`
        unpacked — which source, which mutation generation, how many rows.
        In-memory uids are process-unique integers; file- and
        database-backed uids are structural tuples (backend, path, …), so
        uids can never collide across backends.
    source:
        The alias the partitioning was built under (``"R"``/``"T"``); baked
        into every :class:`~repro.storage.partition.InputPartition`, so an
        alias mismatch must miss.
    attributes:
        The mapping attributes that form the grid dimensions, in order.
    join_attribute:
        The column feeding the join-value signatures.
    partitioner:
        The partitioner's ``descriptor()`` — kind plus every knob that
        shapes the structure (cells per dimension, leaf capacity and depth).
    backend:
        The source's :attr:`~repro.storage.sources.base.DataSource.kind`.
        Redundant with the uid's structure, but it makes the hygiene rule
        explicit: the same logical data held by two different backends can
        never share a cache entry (their partitions differ in row-storage
        strategy and value coercion).
    """

    table_uid: Any
    table_version: Any
    row_count: int
    source: str
    attributes: tuple[str, ...]
    join_attribute: str
    partitioner: tuple
    backend: str = "memory"

    @classmethod
    def for_source(
        cls,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        partitioner_descriptor: tuple,
        *,
        source: str | None = None,
    ) -> "PartitionKey":
        """Build the key for partitioning a data source under alias ``source``."""
        uid, version, rows = table.cache_token
        return cls(
            table_uid=uid,
            table_version=version,
            row_count=rows,
            source=source or table.name,
            attributes=tuple(attributes),
            join_attribute=join_attribute,
            partitioner=tuple(partitioner_descriptor),
            backend=getattr(table, "kind", "memory"),
        )

    #: Historical name (pre-``DataSource``); same behaviour.
    for_table = for_source


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of a :class:`PartitionStore` (or a whole
    :class:`~repro.cache.plan_cache.PlanCache`).

    Example::

        stats = session.plan_cache.stats()
        print(stats.hits, stats.misses, stats.hit_rate)
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    #: Append-only delta patches applied in place of a rebuild: a stale
    #: generation was *extended* with the appended rows and re-keyed,
    #: rather than invalidated.  Counted separately from both hits and
    #: misses — the patched-vs-invalidated split is what proves streaming
    #: queries 2..N reuse work instead of replanning.
    patched: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + patches + misses)."""
        return self.hits + self.patched + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache — patches count as
        served (0.0 when none yet)."""
        served = self.hits + self.patched
        return served / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """Plain-dict form for JSON reports and CLI output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "patched": self.patched,
            "entries": self.entries,
            "hit_rate": round(self.hit_rate, 4),
        }


class PartitionStore:
    """Bounded LRU store of built input partitionings.

    Example::

        store = PartitionStore(max_entries=32)
        key = PartitionKey.for_table(table, ("a0", "a1"), "jkey",
                                     partitioner.descriptor(), source="R")
        grid, hit = store.get_or_build(
            key, lambda: partitioner.partition(table, ("a0", "a1"), "jkey",
                                               source="R"))

    ``get_or_build`` returns the cached structure and ``hit=True`` on a key
    match; otherwise it runs ``builder``, stores the result and returns it
    with ``hit=False``.  A failing builder stores nothing.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise QueryError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[PartitionKey, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._patched = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PartitionKey) -> bool:
        return key in self._entries

    def get(self, key: PartitionKey):
        """The cached structure for ``key``, or ``None`` (counts a miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry

    def put(self, key: PartitionKey, structure) -> None:
        """Store ``structure`` under ``key``, evicting LRU entries if full."""
        self._entries[key] = structure
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def get_or_build(
        self, key: PartitionKey, builder: Callable[[], object]
    ) -> tuple[object, bool]:
        """Return ``(structure, hit)``; on a miss, build and store first."""
        entry = self.get(key)
        if entry is not None:
            return entry, True
        structure = builder()
        self.put(key, structure)
        return structure, False

    def _find_stale(self, key: PartitionKey) -> PartitionKey | None:
        """An entry agreeing with ``key`` on every structural field but
        holding a different (older) table generation — the candidate for an
        append-only patch.  Prefers the generation with the most rows; the
        store is small (bounded LRU), so a linear scan is fine.
        """
        best: PartitionKey | None = None
        for old_key in self._entries:
            if (
                old_key != key
                and old_key.table_uid == key.table_uid
                and old_key.source == key.source
                and old_key.attributes == key.attributes
                and old_key.join_attribute == key.join_attribute
                and old_key.partitioner == key.partitioner
                and old_key.backend == key.backend
            ):
                if best is None or old_key.row_count > best.row_count:
                    best = old_key
        return best

    def get_or_patch(
        self,
        key: PartitionKey,
        *,
        patcher: Callable[[PartitionKey, object], bool],
        builder: Callable[[], object],
    ) -> tuple[object, str]:
        """Return ``(structure, outcome)`` — outcome ``"hit"``, ``"patched"``
        or ``"miss"``.

        The streaming-aware lookup: on a key miss, scan for a stale
        generation of the same partitioning (same table/alias/attributes/
        partitioner, older version token) and ask ``patcher(old_key,
        structure)`` to extend it in place with the appended rows.  On
        success the entry is **re-keyed** to ``key`` and counted as
        *patched* — neither a hit nor a miss.  A patcher returning False
        (the source cannot prove an append-only delta) drops the stale
        generation (counted as an invalidation) and falls through to a
        plain miss + build.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return entry, "hit"
        old_key = self._find_stale(key)
        if old_key is not None:
            stale = self._entries[old_key]
            if patcher(old_key, stale):
                del self._entries[old_key]
                self._entries[key] = stale
                self._entries.move_to_end(key)
                self._patched += 1
                return stale, "patched"
            del self._entries[old_key]
            self._invalidations += 1
        self._misses += 1
        structure = builder()
        self.put(key, structure)
        return structure, "miss"

    def invalidate_table(self, table: DataSource) -> int:
        """Drop every entry built over ``table`` (any version); return count.

        Version-bumping mutation already guarantees correctness; explicit
        invalidation additionally frees the memory of unreachable
        generations immediately instead of waiting for LRU eviction.
        """
        uid = table.uid
        stale = [k for k in self._entries if k.table_uid == uid]
        for key in stale:
            del self._entries[key]
        self._invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        self._invalidations += len(self._entries)
        self._entries.clear()

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` snapshot."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
            entries=len(self._entries),
            patched=self._patched,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"PartitionStore({s.entries}/{self.max_entries} entries, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
