"""Terminal rendering of progressiveness curves.

The paper's figures plot cumulative results against time per algorithm.
:func:`ascii_curve` renders the same picture as a text chart so examples
and benchmark logs can show the *shape* without any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Series = Sequence[tuple[float, int]]

#: Plot glyphs assigned to series in order.
_GLYPHS = "*o+x#@%&"


def ascii_curve(
    series: Mapping[str, Series],
    *,
    width: int = 64,
    height: int = 16,
    title: str = "",
) -> str:
    """Render cumulative-results-vs-time curves as a text chart.

    ``series`` maps a label to ``(time, cumulative count)`` samples (as
    produced by :meth:`~repro.runtime.recorder.ProgressRecorder.curve`).
    Later samples overwrite earlier glyphs at the same cell; each series
    gets a distinct glyph, listed in the legend.
    """
    if not series:
        raise ValueError("ascii_curve needs at least one series")
    if width < 8 or height < 4:
        raise ValueError("chart too small to be legible")

    t_max = max((pt[0] for s in series.values() for pt in s), default=0.0)
    y_max = max((pt[1] for s in series.values() for pt in s), default=0)
    t_max = t_max or 1.0
    y_max = y_max or 1

    cells = [[" "] * width for _ in range(height)]
    for idx, (label, points) in enumerate(series.items()):
        glyph = _GLYPHS[idx % len(_GLYPHS)]
        for t, count in points:
            col = min(width - 1, int(t / t_max * (width - 1)))
            row = min(height - 1, int(count / y_max * (height - 1)))
            cells[height - 1 - row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max}"
    lines.append(f"{top_label:>8} +" + "-" * width + "+")
    for i, row_cells in enumerate(cells):
        label = " " * 8
        if i == height - 1:
            label = f"{0:>8}"
        lines.append(f"{label} |" + "".join(row_cells) + "|")
    lines.append(" " * 9 + "+" + "-" * width + "+")
    lines.append(" " * 9 + f"t=0{'':>{max(0, width - 12)}}t={t_max:.0f}")
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {label}" for i, label in enumerate(series)
    )
    lines.append(" " * 9 + legend)
    return "\n".join(lines)
