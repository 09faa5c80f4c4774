"""The paper's eight algorithms (§VI) and the one table that names them.

The four ProgXe variants of the experimental study (§VI-B):

* **ProgXe** — the core framework: look-ahead + ProgOrder + ProgDetermine.
* **ProgXe+** — core framework plus skyline partial push-through.
* **ProgXe (No-Order)** — ordering disabled (random region sequence),
  progressive result determination still on.
* **ProgXe+ (No-Order)** — push-through with random ordering.

and the four baselines they are compared with: JF-SL, JF-SL+, SSMJ and SAJ.

:data:`ALGORITHM_TABLE` holds them in display order.  Every surface that
takes an algorithm name — :class:`~repro.session.service.Session`, the CLI,
``repro serve`` and :func:`~repro.runtime.compare.compare_algorithms` —
resolves it through :func:`lookup_algorithm`.  ``ALGORITHMS`` is the
table's read-only name → factory view.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from repro.baselines.jfsl import JoinFirstSkylineLater
from repro.baselines.jfsl_plus import JoinFirstSkylineLaterPlus
from repro.baselines.saj import SortedAccessJoin
from repro.baselines.ssmj import SkylineSortMergeJoin
from repro.core.engine import ProgXeEngine
from repro.errors import RegistryError
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.runtime.runner import AlgorithmFactory


def progxe(bound: BoundQuery, clock: VirtualClock, **kwargs) -> ProgXeEngine:
    """The core ProgXe engine."""
    return ProgXeEngine(bound, clock, ordering=True, pushthrough=False, **kwargs)


def progxe_plus(bound: BoundQuery, clock: VirtualClock, **kwargs) -> ProgXeEngine:
    """ProgXe with skyline partial push-through."""
    return ProgXeEngine(bound, clock, ordering=True, pushthrough=True, **kwargs)


def progxe_no_order(bound: BoundQuery, clock: VirtualClock, **kwargs) -> ProgXeEngine:
    """ProgXe with random region ordering (ordering ablation)."""
    return ProgXeEngine(bound, clock, ordering=False, pushthrough=False, **kwargs)


def progxe_plus_no_order(
    bound: BoundQuery, clock: VirtualClock, **kwargs
) -> ProgXeEngine:
    """ProgXe+ with random region ordering."""
    return ProgXeEngine(bound, clock, ordering=False, pushthrough=True, **kwargs)


@dataclass(frozen=True)
class AlgorithmEntry:
    """One algorithm: its display name, factory and the names it answers to.

    A ``configurable`` entry is a ProgXe variant: its factory takes the
    :class:`~repro.session.config.EngineConfig` keywords (plus ``cache``
    and ``planner``) as ``**kwargs``.  The baselines take
    ``(bound, clock)`` only.
    """

    name: str
    factory: AlgorithmFactory
    aliases: tuple[str, ...] = ()
    configurable: bool = False
    description: str = ""


#: The eight algorithms of the paper's study, in display order.
ALGORITHM_TABLE: dict[str, AlgorithmEntry] = {
    entry.name: entry
    for entry in (
        AlgorithmEntry(
            "ProgXe", progxe, ("progxe",), True,
            "look-ahead + ProgOrder + ProgDetermine (the paper)",
        ),
        AlgorithmEntry(
            "ProgXe+", progxe_plus, ("progxe+", "progxe_plus"), True,
            "ProgXe with skyline partial push-through",
        ),
        AlgorithmEntry(
            "ProgXe (No-Order)", progxe_no_order, ("progxe-no-order",), True,
            "ProgXe with random region ordering (ablation)",
        ),
        AlgorithmEntry(
            "ProgXe+ (No-Order)", progxe_plus_no_order, ("progxe+-no-order",),
            True, "ProgXe+ with random region ordering (ablation)",
        ),
        AlgorithmEntry(
            "JF-SL", JoinFirstSkylineLater, ("jfsl",), False,
            "blocking baseline: full join, then skyline",
        ),
        AlgorithmEntry(
            "JF-SL+", JoinFirstSkylineLaterPlus, ("jfsl+", "jfsl_plus"), False,
            "JF-SL with push-through pre-pruning",
        ),
        AlgorithmEntry(
            "SSMJ", SkylineSortMergeJoin, ("ssmj",), False,
            "skyline sort-merge join (state of the art, §VI-C)",
        ),
        AlgorithmEntry(
            "SAJ", SortedAccessJoin, ("saj",), False,
            "sorted-access join baseline",
        ),
    )
}


def lookup_algorithm(name: str) -> AlgorithmEntry:
    """The table entry ``name`` selects.

    Tries the exact display name, then an exact alias, then a case-folded
    match against both; raises :class:`~repro.errors.RegistryError`
    listing the display names when nothing matches.
    """
    entry = ALGORITHM_TABLE.get(name)
    if entry is not None:
        return entry
    for entry in ALGORITHM_TABLE.values():
        if name in entry.aliases:
            return entry
    folded = name.casefold()
    for entry in ALGORITHM_TABLE.values():
        if any(label.casefold() == folded for label in (entry.name, *entry.aliases)):
            return entry
    raise RegistryError(
        f"unknown algorithm {name!r}; registered: {', '.join(ALGORITHM_TABLE)}"
    )


#: Every algorithm, by display name (read-only).
ALGORITHMS = MappingProxyType(
    {name: entry.factory for name, entry in ALGORITHM_TABLE.items()}
)

#: The variants compared in Figures 10a–f.
PROGXE_VARIANTS = {
    name: entry.factory
    for name, entry in ALGORITHM_TABLE.items()
    if entry.configurable
}
