#!/usr/bin/env python3
"""Quickstart: progressive skyline-over-join through the session API.

Builds a small synthetic SkyMapJoin workload, assembles the query with the
fluent builder and streams every result the moment it is *provably* part of
the final skyline — no waiting for the full join.

Run:  python examples/quickstart.py
"""

import repro


def main() -> None:
    # Two tables of 400 tuples each, 2 skyline dimensions, anti-correlated
    # attributes (the skyline-hostile regime), join selectivity 1%.
    workload = repro.SyntheticWorkload(
        distribution="anticorrelated", n=400, d=2, sigma=0.01, seed=7
    )

    session = repro.Session().register_tables(workload.tables())
    stream = (
        session.query()
        .from_tables("R", "T")
        .join_on("R.jkey = T.jkey")
        .map("x0", "R.a0 + T.b0")
        .map("x1", "R.a1 + T.b1")
        .select(("R.id", "left_id"), ("T.id", "right_id"))
        .preferring(repro.lowest("x0"), repro.lowest("x1"))
        .execute()
    )

    print(f"algorithm: {stream.name}")
    print(f"{'#':>3}  {'virtual time':>12}  result")
    for i, result in enumerate(stream, start=1):
        print(
            f"{i:>3}  {stream.recorder.events[-1].vtime:>12.0f}  "
            f"{result.outputs['left_id']} x {result.outputs['right_id']}  "
            f"x0={result.outputs['x0']:.2f} x1={result.outputs['x1']:.2f}"
        )

    stats = stream.stats()
    print(f"\ntotal virtual cost: {stats.vtime:.0f} units")
    print(f"dominance comparisons: {stats.dominance_comparisons}")
    print(f"progressiveness AUC: {stats.auc:.3f} "
          f"({stats.results} results in {stats.batches} batches)")


if __name__ == "__main__":
    main()
