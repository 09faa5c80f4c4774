"""Cross-algorithm comparison harness.

Runs several algorithms on the *same* bound query (each with a fresh virtual
clock), verifies they agree on the final result set, and renders the series
behind the paper's figures: cumulative results over time (Figures 10–12)
and total execution cost (Figures 10d–f, 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import ExecutionError
from repro.query.smj import BoundQuery
from repro.runtime.runner import AlgorithmFactory, RunResult, run_algorithm


@dataclass
class ComparisonReport:
    """Results of running a set of algorithms on one workload."""

    runs: dict[str, RunResult]

    def verify_agreement(self) -> None:
        """Raise :class:`ExecutionError` unless all result sets match."""
        names = list(self.runs)
        if len(names) < 2:
            return
        reference = self.runs[names[0]].result_keys
        for name in names[1:]:
            keys = self.runs[name].result_keys
            if keys != reference:
                missing = reference - keys
                extra = keys - reference
                raise ExecutionError(
                    f"result sets disagree: {name} vs {names[0]}; "
                    f"missing={len(missing)} extra={len(extra)}"
                )

    def progressiveness_table(
        self, checkpoints: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0)
    ) -> str:
        """Text table: virtual time to reach each output fraction."""
        header = ["algorithm", "results", "t_first"]
        header += [f"t_{int(c * 100)}%" for c in checkpoints]
        header += ["auc", "batches"]
        lines = ["  ".join(f"{h:>12}" for h in header)]
        for name, run in self.runs.items():
            rec = run.recorder
            row = [name[:12], str(rec.total_results)]
            row.append(_fmt(rec.time_to_first()))
            for c in checkpoints:
                row.append(_fmt(rec.time_to_fraction(c)))
            row.append(f"{rec.progressiveness_auc():.3f}")
            row.append(str(rec.batch_count()))
            lines.append("  ".join(f"{v:>12}" for v in row))
        return "\n".join(lines)

    def total_time_table(self) -> str:
        """Text table: total virtual cost per algorithm."""
        lines = [
            "  ".join(
                f"{h:>14}"
                for h in ("algorithm", "total_vtime", "dominance_cmps", "results")
            )
        ]
        for name, run in self.runs.items():
            lines.append(
                "  ".join(
                    f"{v:>14}"
                    for v in (
                        name[:14],
                        f"{run.recorder.total_vtime:.0f}",
                        str(run.clock.count('dominance_cmp')),
                        str(run.recorder.total_results),
                    )
                )
            )
        return "\n".join(lines)

    def series(self, points: int = 40) -> dict[str, list[tuple[float, int]]]:
        """Per-algorithm sampled (vtime, cumulative results) curves."""
        return {
            name: run.recorder.curve(points) for name, run in self.runs.items()
        }

    def ascii_chart(self, *, width: int = 64, height: int = 16,
                    title: str = "") -> str:
        """Render all runs' progressiveness curves as one text chart."""
        from repro.runtime.plots import ascii_curve

        horizon = max(run.recorder.total_vtime for run in self.runs.values())
        series = {}
        for name, run in self.runs.items():
            rec = run.recorder
            pts = [(e.vtime, e.index) for e in rec.events]
            pts.append((horizon, rec.total_results))
            series[name] = pts
        return ascii_curve(series, width=width, height=height, title=title)

    def summaries(self) -> dict[str, dict]:
        """Per-algorithm scalar summaries."""
        return {name: run.summary() for name, run in self.runs.items()}


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.0f}"


def compare_algorithms(
    factories: Mapping[str, AlgorithmFactory] | Iterable[str],
    bound: BoundQuery,
    *,
    verify: bool = True,
) -> ComparisonReport:
    """Run all ``factories`` on ``bound`` and collect a report.

    ``factories`` is a name → factory mapping, or an iterable of names
    resolved by :func:`~repro.core.variants.lookup_algorithm`
    (:meth:`repro.Session.compare` is the service-level equivalent).  Each
    algorithm gets a fresh :class:`VirtualClock` so costs are independent.
    With ``verify`` (default) the report checks all final result sets are
    identical — the completeness/correctness obligation all algorithms
    share.
    """
    if not isinstance(factories, Mapping):
        # Imported here: the algorithm table's modules import this package.
        from repro.core.variants import lookup_algorithm

        factories = {name: lookup_algorithm(name).factory for name in factories}
    runs = {
        name: run_algorithm(factory, bound) for name, factory in factories.items()
    }
    report = ComparisonReport(runs)
    if verify:
        report.verify_agreement()
    return report
