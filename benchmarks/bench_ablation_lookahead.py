"""Ablation: what the output-space look-ahead prunes before tuple work
(paper §III-A: avoid join and/or skyline costs wholesale).

Measures, per distribution: regions discarded (join skipped entirely),
regions skipped at dispatch (a buffered result dominated the region's
lower corner, so its join never ran either), join rows left out (a
buffered result dominated the row's own corner), output cells pre-marked
(arrivals dropped with zero comparisons), and the share of join results
that were discarded on arrival.
"""

import pytest

from benchmarks.harness import banner, figure_bound, write_result
from repro.core.engine import ProgXeEngine
from repro.runtime.clock import VirtualClock


def _stats(dist: str, sigma: float = 0.05):
    bound = figure_bound(dist, n=400, d=4, sigma=sigma)
    engine = ProgXeEngine(bound, VirtualClock())
    results = list(engine.run())
    state = engine.state
    s = dict(engine.stats)
    s["results"] = len(results)
    s["arrival_discard_share"] = state.discarded_on_arrival / max(
        1, state.inserted + state.discarded_on_arrival + state.dominated_on_arrival
    )
    return s


@pytest.fixture(scope="module")
def stats():
    return {d: _stats(d) for d in ("correlated", "independent", "anticorrelated")}


def test_ablation_lookahead_report(stats, benchmark):
    sections = [
        banner(
            "Ablation: look-ahead pruning power",
            "regions whose join never ran; cells whose arrivals cost zero comparisons",
        )
    ]
    for dist, s in stats.items():
        sections.append(
            f"--- {dist} ---\n"
            f"regions: {s['regions_discarded']}/{s['regions_total']} discarded "
            f"({s['regions_discarded'] / s['regions_total']:.0%}), "
            f"{s['regions_skipped']} skipped at dispatch "
            f"({s['regions_skipped'] / s['regions_total']:.0%}), "
            f"{s['rows_skipped']} join rows left out\n"
            f"cells:   {s['marked_cells']}/{s['active_cells']} marked "
            f"({s['marked_cells'] / s['active_cells']:.0%})\n"
            "arrivals discarded without comparison: "
            f"{s['arrival_discard_share']:.0%}"
        )
    path = write_result("ablation_lookahead", *sections)
    print(f"\n[ablation:lookahead] written to {path}")

    benchmark.pedantic(lambda: _stats("independent"), rounds=1, iterations=1)


def test_ablation_lookahead_prunes_on_friendly_data(stats):
    """Correlated/independent data: the look-ahead must kill a visible
    share of regions before any join work."""
    for dist in ("correlated", "independent"):
        s = stats[dist]
        assert s["regions_discarded"] > 0
        assert s["marked_cells"] > 0


def test_ablation_lookahead_weakest_on_anticorrelated(stats):
    """Anti-correlated regions hug the anti-diagonal: region-level
    domination is rare there — the pruning share must be the smallest."""
    shares = {
        dist: s["regions_discarded"] / s["regions_total"]
        for dist, s in stats.items()
    }
    assert shares["anticorrelated"] <= shares["independent"]
    assert shares["anticorrelated"] <= shares["correlated"]


def test_ablation_marked_cells_save_comparisons(stats):
    """Arrivals into marked cells are non-trivial on every distribution."""
    assert any(s["arrival_discard_share"] > 0.05 for s in stats.values())
