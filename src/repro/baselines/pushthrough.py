"""Skyline partial push-through (paper §I-C, §VI-B; Hafenrichter & Kießling).

The principle: a tuple of one source that is dominated *within its join
group* (same join value) by another tuple of that source — compared on a
preference *derived* from the mapping functions' monotonicity — can be
pruned before the join.  Any join partner the pruned tuple has, the
dominating tuple has too (same join value), and monotone mappings preserve
the dominance into the output space.

So pruning keeps the **group-level skyline** ``LS(N)`` — the union of the
per-join-value skylines, the complete set of tuples that can still
contribute to any final result.  SSMJ's source-level skyline ``LS(S)``
(join condition ignored) prunes nothing more, since ``LS(S) ⊆ LS(N)``;
only SSMJ itself needs it, for its first batch (:mod:`repro.baselines.ssmj`).

If the derived preference does not exist (a mapping is non-monotone in some
attribute, or two mappings pull an attribute in opposite directions),
push-through is unsafe and callers must skip it (the paper's drawback
discussion of SSMJ under mapping functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.query.smj import BoundQuery
from repro.skyline.preferences import ParetoPreference
from repro.skyline.vectorized import OnComparisons, skyline_mask
from repro.storage.partition import reject_non_finite
from repro.storage.sources.base import DataSource, Row


@dataclass
class SourcePruneResult:
    """Outcome of push-through pruning on one source."""

    kept_rows: list[Row]  # LS(N), in source order
    original_count: int
    comparisons: int

    @property
    def pruned_count(self) -> int:
        """Tuples eliminated by the local pruning."""
        return self.original_count - len(self.kept_rows)


def derived_preference(bound: BoundQuery, alias: str) -> ParetoPreference | None:
    """Derived source preference for ``alias`` (``None`` when unsafe)."""
    return bound.query.mappings.derived_source_preference(
        alias, bound.query.preference
    )


def source_side(bound: BoundQuery, alias: str) -> tuple[DataSource, str]:
    """``(table, join attribute)`` of one side of the bound query."""
    if alias == bound.left_alias:
        return bound.left_table, bound.query.join.left_attr
    if alias == bound.right_alias:
        return bound.right_table, bound.query.join.right_attr
    raise ValueError(f"unknown alias {alias!r}")


def preference_scan(
    table: DataSource, preference: ParetoPreference, join_attr: str
) -> tuple[list[Row], np.ndarray, list[Any]]:
    """Rows, minimisation-space vectors and join keys of ``table``.

    One scan in source order.  A NaN or ±inf preference attribute is
    refused here, before any local pruning, with the partitioners' named
    error (:func:`~repro.storage.partition.reject_non_finite`): a NaN
    breaks the transitivity local pruning rests on, and pruning would
    otherwise drop the row before the partitioner could name it.
    """
    attributes = preference.attributes
    indices = table.schema.indices(attributes)
    rows: list[Row] = []
    keys: list[Any] = []
    blocks = [np.empty((0, len(indices)))]
    for batch in table.scan_batches(columns=attributes, key_column=join_attr):
        m = batch.matrix(indices)
        reject_non_finite(table, attributes, batch, m)
        rows.extend(batch.rows)
        keys.extend(batch.join_keys)
        blocks.append(m)
    signs = np.array(preference.signs_for(attributes), dtype=float)
    return rows, np.concatenate(blocks) * signs, keys


def prune_source(
    bound: BoundQuery,
    alias: str,
    *,
    on_comparisons: OnComparisons | None = None,
) -> SourcePruneResult | None:
    """Push-through pruning of one side of the bound query to ``LS(N)``.

    Rows are grouped by join value (a dict of value → group code, so keys
    compare as the hash join compares them), each group of two or more
    rows keeps its :func:`~repro.skyline.vectorized.skyline_mask`, and
    the kept rows come back in source order.  The groups' sweep counts
    are charged to ``on_comparisons`` in one call.

    Returns ``None`` when no safe derived preference exists — callers must
    then process the source unpruned.
    """
    table, join_attr = source_side(bound, alias)
    pref = derived_preference(bound, alias)
    if pref is None:
        return None
    rows, vectors, keys = preference_scan(table, pref, join_attr)
    n = len(rows)
    codes: dict = {}
    group = np.fromiter(
        (codes.setdefault(key, len(codes)) for key in keys), dtype=np.intp, count=n
    )
    order = np.argsort(group, kind="stable")
    starts = np.flatnonzero(np.diff(group[order], prepend=-1)).tolist()
    keep = np.ones(n, dtype=bool)
    tested: list[int] = []
    for start, stop in zip(starts, [*starts[1:], n]):
        if stop - start > 1:
            members = order[start:stop]
            keep[members] = skyline_mask(vectors[members], on_comparisons=tested.append)
    comparisons = sum(tested)
    if comparisons and on_comparisons is not None:
        on_comparisons(comparisons)
    return SourcePruneResult(
        kept_rows=[rows[i] for i in np.flatnonzero(keep).tolist()],
        original_count=n,
        comparisons=comparisons,
    )


def attribute_bounds(
    rows: Sequence[Row], attributes: Sequence[str], indices: Sequence[int]
) -> dict[str, tuple[float, float]]:
    """Per-attribute ``(min, max)`` over a row set, keyed by attribute name.

    Used to build interval environments for threat/threshold analysis in
    SSMJ and SAJ.  Empty ``rows`` is an error — callers must special-case
    empty candidate sets before asking for bounds.
    """
    if not rows:
        raise ValueError("cannot compute bounds of an empty row set")
    bounds = {}
    for attr, idx in zip(attributes, indices):
        values = [row[idx] for row in rows]
        bounds[attr] = (float(min(values)), float(max(values)))
    return bounds
