"""Machine-speed calibration: why the benchmark's seconds are comparable.

The box this benchmark was built on (a 2-vCPU guest) changes speed by a
factor of up to three over minutes, **per core**: the same ``join-heavy``
query took 0.58-1.8 s on one unchanged server, its CPU time moving with its
wall time (correlation 0.98), while a fixed kernel timed on the *other* core
barely noticed.  No number of samples inside one run averages that out, and
raw seconds cannot carry a regression bound.

So the process under test is pinned to one core, and between rotations of
the query list — while that core is idle — the load generator hops onto it
and times a fixed kernel of its own: the engine's mix of work, none of the
engine's code.  Every time-valued metric is divided by ``median kernel time
/ REFERENCE_S``: it is reported in seconds *at the reference machine speed*.
Over 19 consecutive 20 s windows of one server this cut the IQR / median of
the median ``join-heavy`` latency from 0.40 to 0.06 (the same kernel on the
other core: 0.20); over ten-seed sweeps of whole runs it roughly halves every
time metric's spread (0.06-0.41 raw, 0.04-0.19 corrected) and keeps latency
medians taken an hour apart within 23 % where the raw ones differ by 2x.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

import numpy as np

#: The kernel's time on the reference box in its fast state.  Only ratios
#: between commits matter; this constant makes the corrected figures read
#: as seconds on that box.
REFERENCE_S = 0.100

_ROWS = [(f"R{i}", i % 97, float(i % 13), float(i % 7)) for i in range(6000)]
_POINTS = np.random.default_rng(0).random((2, 300, 4))
#: One sample is this many passes: the core's share of its physical CPU
#: moves by a factor of three from one 10 ms stretch to the next, and a
#: sample has to average over that as a query does.
_PASSES = 4


def kernel() -> float:
    """Run the fixed calibration kernel once; returns its wall seconds.

    Half interpreter work (a dict-of-lists hash join over tuples, JSON
    encoding), half numpy (pairwise dominance compares, a lexsort), in the
    proportions the engine mixes them.  The collector is off meanwhile: a
    full collection walks the load generator's heap, which is not the
    machine's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(_PASSES):
            index: dict[int, list[tuple]] = {}
            for row in _ROWS:
                index.setdefault(row[1], []).append(row)
            total = 0.0
            for row in _ROWS:
                for other in index[row[1]][:8]:
                    total += row[2] + other[3]
            for seq, row in enumerate(_ROWS[:1500]):
                json.dumps({"seq": seq, "event": "result", "values": {"rid": row[0], "x0": row[2]}})
            a, b = _POINTS
            for _ in range(2):
                le = (a[:, None, :] <= b[None, :, :]).all(axis=2)
                lt = (a[:, None, :] < b[None, :, :]).any(axis=2)
                (le & lt).any(axis=0)
                np.lexsort((a[:, 0], a[:, 1]))
        return time.perf_counter() - began
    finally:
        if collecting:
            gc.enable()


def split_cpus() -> tuple[int | None, set[int] | None]:
    """``(core of the process under test, cores of the load generator)``,
    or ``(None, None)`` where the platform cannot pin."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    allowed = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, allowed)
    except OSError:  # a sandbox that forbids the call
        return None, None
    return allowed[-1], set(allowed[:-1]) or {allowed[-1]}


def pin(cpus: set[int] | None, pid: int = 0) -> None:
    if cpus is not None:
        os.sched_setaffinity(pid, cpus)


class SpeedMeter:
    """Kernel timings taken on ``cpu`` (the core of the process under test).

    ``home`` is where the calling process goes back to after each sample;
    with ``cpu`` None the kernel runs wherever the caller is.
    """

    def __init__(self, cpu: int | None = None, home: set[int] | None = None) -> None:
        self.cpu = cpu
        self.home = home
        self.samples: list[float] = []
        #: Wall and CPU seconds spent sampling, for the caller to take out
        #: of its window.
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def sample(self) -> None:
        began, cpu_began = time.perf_counter(), time.process_time()
        if self.cpu is not None:
            pin({self.cpu})
        try:
            self.samples.append(kernel())
        finally:
            if self.cpu is not None:
                pin(self.home)
        self.spent_s += time.perf_counter() - began
        self.spent_cpu_s += time.process_time() - cpu_began

    def factor(self) -> float:
        """How many times slower than the reference the core ran (> 1: slower)."""
        return statistics.median(self.samples) / REFERENCE_S
