"""Join-value signatures for input partitions (paper §III-A).

A signature summarises the set of join-attribute values present in one input
partition so the look-ahead phase can decide, *without touching tuples*,
whether a pair of partitions can produce join results.

Two realisations:

* :class:`ExactSignature` — a value→count histogram.  Overlap tests are
  exact, so a positive answer **guarantees** at least one join result (this
  is what makes region-level domination pruning sound), and the expected
  join cardinality ``sum_v cnt_R(v) * cnt_T(v)`` is available for the
  ProgOrder cost model.
* :class:`BloomSignature` — a Bloom filter.  ``may_share`` can err positive
  but never negative, so it is only used to *skip* provably joinless pairs;
  ``definitely_shares`` is always ``False`` (a Bloom filter can never prove
  presence), which automatically disables domination-based region pruning.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.storage.bloom import BloomFilter


@runtime_checkable
class JoinSignature(Protocol):
    """What the look-ahead phase needs from a partition signature."""

    def may_share(self, other: "JoinSignature") -> bool:
        """``False`` only when the partitions provably share no join value."""
        ...

    def definitely_shares(self, other: "JoinSignature") -> bool:
        """``True`` only when at least one join result is guaranteed."""
        ...

    def expected_join_size(self, other: "JoinSignature") -> float:
        """Expected number of join results between the two partitions."""
        ...


class ExactSignature:
    """Exact per-value histogram signature."""

    __slots__ = ("counts",)

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self.counts: Counter = Counter(values)

    def add(self, value: Hashable) -> None:
        """Record one tuple's join value."""
        self.counts[value] += 1

    def may_share(self, other: JoinSignature) -> bool:
        if isinstance(other, ExactSignature):
            a, b = self.counts, other.counts
            if len(b) < len(a):
                a, b = b, a
            return any(v in b for v in a)
        # Mixed mode: probe our exact values against the other signature.
        if isinstance(other, BloomSignature):
            return any(v in other.bloom for v in self.counts)
        raise TypeError(f"unsupported signature type {type(other).__name__}")

    def definitely_shares(self, other: JoinSignature) -> bool:
        if isinstance(other, ExactSignature):
            return self.may_share(other)
        return False  # a Bloom partner can never give a guarantee

    def expected_join_size(self, other: JoinSignature) -> float:
        if isinstance(other, ExactSignature):
            a, b = self.counts, other.counts
            if len(b) < len(a):
                a, b = b, a
            return float(sum(c * b[v] for v, c in a.items() if v in b))
        # Without exact partner counts fall back to an optimistic estimate:
        # every one of our tuples finds one partner.
        return float(sum(self.counts.values()))

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


class BloomSignature:
    """Bloom-filter signature (space-bounded, sound for skipping only)."""

    __slots__ = ("bloom", "tuple_count")

    def __init__(self, values: Iterable[Hashable] = (), *,
                 num_bits: int = 256, num_hashes: int = 3) -> None:
        self.bloom = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        self.tuple_count = 0
        for v in values:
            self.add(v)

    def add(self, value: Hashable) -> None:
        """Record one tuple's join value."""
        self.bloom.add(value)
        self.tuple_count += 1

    def may_share(self, other: JoinSignature) -> bool:
        if isinstance(other, BloomSignature):
            return self.bloom.may_intersect(other.bloom)
        if isinstance(other, ExactSignature):
            return other.may_share(self)
        raise TypeError(f"unsupported signature type {type(other).__name__}")

    def definitely_shares(self, other: JoinSignature) -> bool:
        return False

    def expected_join_size(self, other: JoinSignature) -> float:
        if isinstance(other, BloomSignature):
            return float(max(self.tuple_count, other.tuple_count))
        return other.expected_join_size(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BloomSignature({self.tuple_count} tuples, {self.bloom!r})"


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
    left: Sequence[JoinSignature],
    right: Sequence[JoinSignature],
    left_codes: SignatureCodes,
    right_codes: SignatureCodes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``may_share``, ``expected_join_size`` and ``definitely_shares`` of
    every ``left x right`` pair, as three ``(len(left), len(right))`` arrays.

    Between exact signatures: one sparse join of the sides' ``(value id,
    count)`` entries on the value — each matching entry pair adds
    ``count * count`` to its partition pair, so a pair shares a value iff
    its sum is positive.  The left ids are translated into right ones with
    one dict lookup per value; no partitions x values matrix is built, and
    the integer sums are exact in float64 below 2^53.  A Bloom signature on
    either side keeps the per-pair methods, asking sharing pairs only for
    the expected size and the guarantee.
    """
    n, m = len(left), len(right)
    share = np.zeros((n, m), dtype=bool)
    expected = np.zeros((n, m))
    if not n or not m:
        return share, expected, share
    if not all(type(s) is ExactSignature for s in (*left, *right)):
        guaranteed = share.copy()
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                if a.may_share(b):
                    share[i, j] = True
                    expected[i, j] = a.expected_join_size(b)
                    guaranteed[i, j] = a.definitely_shares(b)
        return share, expected, guaranteed
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
    share = expected.reshape(n, m) > 0
    return share, expected.reshape(n, m), share


#: Signature kinds understood by :func:`build_signature` (and validated by
#: the engine / :class:`~repro.session.EngineConfig` before partitioning).
SIGNATURE_KINDS: tuple[str, ...] = ("exact", "bloom")


def build_signature(values: Iterable[Hashable], kind: str = "exact",
                    *, num_bits: int = 256, num_hashes: int = 3) -> JoinSignature:
    """Factory: build a signature of the requested ``kind``.

    ``kind`` is ``"exact"`` (default) or ``"bloom"``.
    """
    if kind == "exact":
        return ExactSignature(values)
    if kind == "bloom":
        return BloomSignature(values, num_bits=num_bits, num_hashes=num_hashes)
    raise ValueError(
        f"unknown signature kind {kind!r}; use one of {SIGNATURE_KINDS}"
    )
