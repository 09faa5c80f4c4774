#!/usr/bin/env python3
"""Internet aggregator: the Kayak-style Rome + Paris trip (paper §I-B).

The traveller books one package per city, matched on the travel week.
Because "the user is willing to walk twice as much in Rome than in Paris",
Rome walking distance enters the combined walking objective at half weight;
total cost is a plain cumulative sum.

This version drives the session/streaming API the way an aggregator
front-end would: results are *pushed* through an ``on_result`` callback the
moment they are proven optimal, and a separate budgeted execution shows
"first page" semantics — a ``StreamBudget`` caps the work, the stream stops
cleanly, and the emitted prefix is still provably correct.

Run:  python examples/travel_aggregator.py
"""

import repro


def main() -> None:
    workload = repro.TravelWorkload(
        n_rome=400, n_paris=400, n_weeks=16, distribution="anticorrelated",
        seed=13,
    )
    bound = workload.bound()
    session = repro.Session()

    print("Pareto-optimal Rome+Paris combinations, streamed as proven:\n")
    print(f"{'when (vtime)':>12}  {'rome pkg':>10}  {'paris pkg':>10}  "
          f"{'walk (weighted km)':>18}  {'cost':>8}")

    # Push interface: the rendering callback fires in emission order while
    # the engine is still joining.
    def render(r):
        print(
            f"{stream.recorder.events[-1].vtime:>12.0f}  "
            f"{r.outputs['rome_pkg']:>10}  "
            f"{r.outputs['paris_pkg']:>10}  "
            f"{r.outputs['totalWalk']:>18.2f}  {r.outputs['totalCost']:>8.2f}"
        )

    def done(stats):
        print(f"\n{stats.results} optimal combinations "
              f"({stats.state}, AUC {stats.auc:.3f})")

    stream = (
        session.execute(bound, algorithm="ProgXe")
        .on_result(render)
        .on_complete(done)
    )
    stream.drain()

    engine = stream.algorithm
    print(
        "look-ahead pruned "
        f"{engine.stats['regions_discarded']}/{engine.stats['regions_total']}"
        " join regions before any tuple work"
    )

    # First-page semantics: cap the budget and show the stream stopping
    # cleanly with a provably-correct prefix.
    first_page = session.execute(
        bound, algorithm="ProgXe",
        budget=repro.StreamBudget(max_results=5),
    )
    page = first_page.drain()
    print(
        f"\nfirst page: {len(page)} results, state={first_page.state} "
        f"({first_page.stats().stop_reason})"
    )

    # Contrast: a blocking evaluation shows nothing until the very end.
    jf = session.run(bound, algorithm="JF-SL")
    px = session.run(bound, algorithm="ProgXe")
    print(
        f"\nfirst result: ProgXe at t={px.recorder.time_to_first():.0f} vs "
        f"JF-SL at t={jf.recorder.time_to_first():.0f} "
        f"({jf.recorder.time_to_first() / max(px.recorder.time_to_first(), 1):.0f}x later)"
    )


if __name__ == "__main__":
    main()
