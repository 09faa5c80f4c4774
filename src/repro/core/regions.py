"""Output regions: the abstraction level of the look-ahead phase.

A region ``R_{a,b}`` (paper notation, Table I) is the box of the output
space into which every join result of input partitions ``I^R_a`` and
``I^T_b`` must fall, obtained by mapping the partitions' attribute boxes
through the query's mapping functions with interval arithmetic.  All region
coordinates here are in *normalised* (minimisation) output space.  A
region exists only for partitions whose signatures share a join value, so
every region holds at least one join result (§III-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.partition import InputPartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.output_grid import OutputCell


class OutputRegion:
    """One region of the mapped output space.

    Lifecycle flags:

    * ``discarded`` — the region is dominated (region-level elimination or
      all its covered cells got marked); its tuple-level processing is
      skipped entirely,
    * ``processed`` — tuple-level processing has completed.
    """

    __slots__ = (
        "rid",
        "left_partition",
        "right_partition",
        "lower",
        "upper",
        "expected_join",
        "covered",
        "cell_min",
        "cell_max",
        "discarded",
        "processed",
        "unmarked_covered",
        "in_degree",
        "out_edges",
        "cardinality",
    )

    def __init__(
        self,
        rid: int,
        left_partition: InputPartition,
        right_partition: InputPartition,
        lower: tuple[float, ...],
        upper: tuple[float, ...],
        expected_join: float,
    ) -> None:
        self.rid = rid
        self.left_partition = left_partition
        self.right_partition = right_partition
        self.lower = lower
        self.upper = upper
        self.expected_join = expected_join
        self.covered: list["OutputCell"] = []
        self.cell_min: tuple[int, ...] = ()
        self.cell_max: tuple[int, ...] = ()
        self.discarded = False
        self.processed = False
        self.unmarked_covered = 0
        self.in_degree = 0
        self.out_edges: list[int] = []
        self.cardinality = 0.0

    @property
    def done(self) -> bool:
        """Whether the region needs no further consideration."""
        return self.processed or self.discarded

    @property
    def partition_count(self) -> int:
        """Number of output partitions the region covers (paper Eq. 2)."""
        return len(self.covered)

    @property
    def join_cost_inputs(self) -> tuple[int, int]:
        """``(n_a, n_b)``: the input partition cardinalities."""
        return len(self.left_partition), len(self.right_partition)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "discarded" if self.discarded else (
            "processed" if self.processed else "pending"
        )
        return (
            f"OutputRegion(#{self.rid}, "
            f"{self.left_partition.coords}x{self.right_partition.coords}, "
            f"box={self.lower}->{self.upper}, {state})"
        )
