"""The four workloads: sizes, queries and seeded input generation.

A :class:`QuerySpec` is the single description of one query: its SQL text
(what the program receives) and the arithmetic the independent oracle
evaluates are both derived from it, so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.data.workloads import SyntheticWorkload
from repro.storage.table import Table

#: Default ``--seed`` (the paper's publication date).
DEFAULT_SEED = 20100301
#: Seed of the distribution draw — the attribute values and the join-key
#: assignment.  Part of the workloads' shape, fixed like ``n`` and ``sigma``:
#: progressive emission on a small skyline is a step function of the draw
#: (across draws ``join-heavy`` yields 12-24 results and its TT50 is bimodal
#: by a factor of ten), while the driver reads seed-to-seed variation as
#: noise that must stay inside each metric's bound.
DRAW = 20100301

LEFT, RIGHT = "R", "T"


@dataclass(frozen=True)
class Dim:
    """One output dimension ``lw * R.lcol + rw * T.rcol`` and its direction."""

    lcol: str
    rcol: str
    lw: int = 1
    lowest: bool = True

    def sql(self, name: str) -> str:
        left = f"{LEFT}.{self.lcol}" if self.lw == 1 else f"{self.lw}*{LEFT}.{self.lcol}"
        return f"({left} + {RIGHT}.{self.rcol}) AS {name}"


@dataclass(frozen=True)
class QuerySpec:
    """One SkyMapJoin query over the workload's two tables."""

    name: str
    dims: tuple[Dim, ...]
    #: Optional local filter ``R.<column> <= <literal>``.
    where_le: tuple[str, float] | None = None
    #: Extra request fields besides ``sql`` (e.g. ``{"preset": "auto"}``).
    request: Mapping[str, Any] = field(default_factory=dict)

    def sql(self) -> str:
        maps = ", ".join(d.sql(f"x{i}") for i, d in enumerate(self.dims))
        prefs = " AND ".join(
            f"{'LOWEST' if d.lowest else 'HIGHEST'}(x{i})"
            for i, d in enumerate(self.dims)
        )
        where = f"{LEFT}.jkey = {RIGHT}.jkey"
        if self.where_le is not None:
            where += f" AND {LEFT}.{self.where_le[0]} <= {self.where_le[1]:g}"
        return (
            f"SELECT {LEFT}.id AS rid, {RIGHT}.id AS tid, {maps} "
            f"FROM {LEFT} {LEFT}, {RIGHT} {RIGHT} WHERE {where} PREFERRING {prefs}"
        )

    def body(self) -> dict[str, Any]:
        """The JSON body of ``POST /query``."""
        return {"sql": self.sql(), **self.request}


def _sum(d: int) -> tuple[Dim, ...]:
    return tuple(Dim(f"a{i}", f"b{i}") for i in range(d))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    distribution: str
    n: int
    columns: int
    sigma: float
    queries: tuple[QuerySpec, ...]
    #: ``columnar`` (mmap files), ``csv`` (loaded into memory by the server)
    #: or ``memory`` (in-process tables, no server).
    storage: str
    clients: int = 1
    #: Arrival chunks of the second half of the rows (``ingest-follow``).
    chunks: int = 0
    #: ``peak_rss_mb`` is read when this many measured queries have
    #: completed (a whole number of rotations of all clients).  The server keeps every finished query's handle and
    #: results, so its resident set grows with each query served (3.15 MB
    #: per ``skyline-heavy`` query); a reading at the end of a timed window
    #: would count how many queries the box got through, not the program.
    rss_after: int = 8

    @property
    def served(self) -> bool:
        return self.storage != "memory"

    def scaled(self, divisor: int) -> "Workload":
        """The same workload at ``n / divisor`` rows per side (``--smoke``)."""
        return replace(self, n=max(64, self.n // divisor))

    def tables(self, seed: int) -> dict[str, Table]:
        """The two input tables for ``seed``.

        The attribute values and join-key assignment come from :data:`DRAW`;
        ``seed`` decides everything else about the inputs: the physical row
        order, the row ids and the join-key labels.
        """
        base = SyntheticWorkload(
            distribution=self.distribution, n=self.n, d=self.columns,
            sigma=self.sigma, seed=DRAW,
        ).tables()
        rng = np.random.default_rng(seed)
        labels = sorted({row[1] for t in base.values() for row in t.rows})
        relabel = dict(zip(labels, rng.permutation(labels).tolist()))
        out = {}
        for alias in (LEFT, RIGHT):
            table = base[alias]
            rows = table.rows
            out[alias] = Table(
                alias,
                table.schema.columns,
                [
                    (f"{alias}{i}", relabel[rows[j][1]], *rows[j][2:])
                    for i, j in enumerate(rng.permutation(len(rows)).tolist())
                ],
            )
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="join-heavy",
            why="381k join pairs, 12 results: hash join, map, cell grouping "
            "and lazy fetch_rows dominate; emission and socket do nothing",
            distribution="independent", n=8_000, columns=2, sigma=0.05,
            queries=(QuerySpec("sum2", _sum(2)),),
            storage="columnar",
        ),
        Workload(
            name="skyline-heavy",
            why="22.5k pairs, 2034 results (anticorrelated d=4): dominance "
            "kernels, eviction and thousands of result frames dominate",
            distribution="anticorrelated", n=1_500, columns=4, sigma=0.01,
            queries=(QuerySpec("sum4", _sum(4)),),
            storage="csv",
        ),
        Workload(
            name="many-small",
            why="2 clients rotate 5 small queries: admission, parse/bind, "
            "scheduler interleaving, cache hits and look-ahead dominate",
            distribution="independent", n=2_000, columns=3, sigma=0.05,
            queries=(
                QuerySpec("sum2", _sum(2)),
                QuerySpec("weighted", (Dim("a0", "b0", lw=2), Dim("a1", "b1"))),
                QuerySpec(
                    "filter-highest",
                    (Dim("a0", "b0"), Dim("a1", "b1", lowest=False)),
                    where_le=("a2", 50.0),
                ),
                QuerySpec("sum3", _sum(3)),
                QuerySpec("sum2-auto", _sum(2), request={"preset": "auto"}),
            ),
            storage="csv",
            clients=2,
            rss_after=40,
        ),
        Workload(
            name="ingest-follow",
            why="in-process follow query while half the rows arrive in 4 "
            "chunks: partition_delta, poll_deltas, reopened cells; no serve",
            distribution="independent", n=8_000, columns=2, sigma=0.05,
            queries=(QuerySpec("sum2", _sum(2)),),
            storage="memory",
            chunks=4,
            rss_after=4,
        ),
    )
}
