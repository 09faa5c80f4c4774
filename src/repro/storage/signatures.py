"""Join-value signatures for input partitions (paper §III-A).

A signature summarises the set of join-attribute values present in one input
partition so the look-ahead phase can decide, *without touching tuples*,
whether a pair of partitions can produce join results.

:class:`ExactSignature` is a value→count histogram.  Overlap tests are
exact, so a pair that shares a value **has** at least one join result —
which is what makes region-level domination pruning and cell marking
sound — and the expected join cardinality ``sum_v cnt_R(v) * cnt_T(v)`` is
available for the ProgOrder cost model.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Sequence

import numpy as np


class ExactSignature:
    """Exact per-value histogram signature.

    The partitioners fill ``counts`` one chunk of keys at a time
    (``counts.update(keys)``); first-seen order is the histogram's order.
    """

    __slots__ = ("counts",)

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self.counts: Counter = Counter(values)

    def may_share(self, other: "ExactSignature") -> bool:
        """Whether the partitions share a join value (so they join)."""
        a, b = self.counts, other.counts
        if len(b) < len(a):
            a, b = b, a
        return any(v in b for v in a)

    def expected_join_size(self, other: "ExactSignature") -> float:
        """Number of join results between the two partitions."""
        a, b = self.counts, other.counts
        if len(b) < len(a):
            a, b = b, a
        return float(sum(c * b[v] for v, c in a.items() if v in b))

    @property
    def distinct_values(self) -> int:
        """Number of distinct join values in the partition."""
        return len(self.counts)

    @property
    def tuple_count(self) -> int:
        """Number of tuples summarised."""
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactSignature({self.distinct_values} values, {self.tuple_count} tuples)"


#: Matching entry pairs :func:`pair_overlap` expands per step (bounded
#: temporaries).
_PAIR_LANES = 2**13


class SignatureCodes:
    """Join-value ids shared by the exact signatures of one partition
    structure, and each signature's ``(value ids, counts)`` arrays.

    Ids count up in order of first sight, keyed by the raw values, so they
    have the equality semantics of the histograms (``1 == 1.0``).  Each
    partition structure owns one, so every plan over it — a plan-cache
    hit, a streaming poll — encodes each partition once: a built
    partition's signature never changes (deltas form fresh partitions).
    """

    __slots__ = ("ids", "_arrays")

    def __init__(self) -> None:
        self.ids: dict[Hashable, int] = {}
        self._arrays: dict[ExactSignature, tuple[np.ndarray, np.ndarray]] = {}

    def entries(self, sigs: Sequence[ExactSignature]) -> tuple[np.ndarray, ...]:
        """``(owner, value id, count)`` over the histogram entries of
        ``sigs``, ``owner`` being a position in ``sigs``."""
        ids, arrays = self.ids, self._arrays
        for sig in sigs:
            if sig not in arrays:
                for v in sig.counts:
                    ids.setdefault(v, len(ids))
                n = len(sig.counts)
                arrays[sig] = (
                    np.fromiter(map(ids.__getitem__, sig.counts), np.int64, n),
                    np.fromiter(sig.counts.values(), np.int64, n),
                )
        got = [arrays[sig] for sig in sigs]
        return (
            np.repeat(np.arange(len(sigs)), [len(v) for v, _ in got]),
            np.concatenate([v for v, _ in got]),
            np.concatenate([c for _, c in got]),
        )


def pair_overlap(
    left: Sequence[ExactSignature],
    right: Sequence[ExactSignature],
    left_codes: SignatureCodes,
    right_codes: SignatureCodes,
) -> tuple[np.ndarray, np.ndarray]:
    """``may_share`` and ``expected_join_size`` of every ``left x right``
    pair, as two ``(len(left), len(right))`` arrays.

    One sparse join of the sides' ``(value id, count)`` entries on the
    value: each matching entry pair adds ``count * count`` to its
    partition pair, so a pair shares a value — and therefore joins — iff
    its sum is positive.  The left ids are translated into right ones with
    one dict lookup per value; no partitions x values matrix is built, and
    the integer sums are exact in float64 below 2^53.
    """
    n, m = len(left), len(right)
    if not n or not m:
        return np.zeros((n, m), dtype=bool), np.zeros((n, m))
    lowner, lids, lcounts = left_codes.entries(left)
    rowner, rids, rcounts = right_codes.entries(right)
    # Left ids as right ones; a value the right lacks gets id -1, whose
    # run (the last, past every right id) is empty.
    get = right_codes.ids.get
    lids = np.fromiter(
        (get(v, -1) for v in left_codes.ids), np.int64, len(left_codes.ids)
    )[lids]
    # Right entries by value; each left entry meets the run of its value.
    by_value = np.argsort(rids, kind="stable")
    rowner, rcounts = rowner[by_value], rcounts[by_value]
    runs = np.bincount(rids, minlength=len(right_codes.ids) + 1)
    start, hits = (np.cumsum(runs) - runs)[lids], runs[lids]
    # At most about _PAIR_LANES matches expanded at a time.
    first = np.cumsum(hits) - hits
    cuts = np.searchsorted(first, np.arange(0, hits.sum(), _PAIR_LANES)).tolist()
    cuts = sorted({c for c in cuts if c < len(lids)})
    expected = np.zeros(n * m)
    for a, b in zip(cuts, [*cuts[1:], len(lids)]):
        h, row = hits[a:b], lowner[a] * m
        match = np.arange(h.sum()) - np.repeat(first[a:b] - first[a] - start[a:b], h)
        sums = np.bincount(
            np.repeat(lowner[a:b] * m - row, h) + rowner[match],
            weights=np.repeat(lcounts[a:b], h) * rcounts[match],
        )
        expected[row : row + len(sums)] += sums
    expected = expected.reshape(n, m)
    return expected > 0, expected
