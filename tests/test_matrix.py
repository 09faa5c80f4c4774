"""Integration matrix: every workload family × every evaluation strategy.

One test per (workload, algorithm-configuration) cell, each asserting
exact agreement with the independent verifier.  This is the suite that
catches cross-cutting regressions no focused unit test sees.
"""

import pytest

from repro.core.engine import ProgXeEngine
from repro.core.verify import verify_results
from repro.core.variants import ALGORITHMS
from repro.data.workloads import (
    RefinementWorkload,
    SupplyChainWorkload,
    SyntheticWorkload,
    TravelWorkload,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.runner import run_algorithm

from tests.conftest import set_flush_pairs

WORKLOADS = {
    "synthetic-indep": SyntheticWorkload(
        distribution="independent", n=90, d=2, sigma=0.1, seed=1
    ),
    "synthetic-anti-3d": SyntheticWorkload(
        distribution="anticorrelated", n=70, d=3, sigma=0.1, seed=2
    ),
    "supply-chain": SupplyChainWorkload(
        n_suppliers=90, n_transporters=90, seed=3
    ),
    "travel": TravelWorkload(n_rome=80, n_paris=80, seed=4),
    "refinement": RefinementWorkload(n_products=80, n_offers=80, seed=5),
}

ENGINE_CONFIGS = {
    "grid": {},
    "quadtree": {"partitioning": "quadtree", "leaf_capacity": 16},
    "pushthrough": {"pushthrough": True},
    "no-order": {"ordering": False, "seed": 3},
    # One pair per flush (``flush_pairs`` patches ``FLUSH_PAIRS``; it is not
    # an engine keyword): phase 2 at its finest granularity, many one-row
    # ``insert_batch`` calls instead of a few large ones.
    "batch-1": {"flush_pairs": 1},
    "batch-1-pushthrough": {"flush_pairs": 1, "pushthrough": True},
}


@pytest.fixture(scope="module")
def bound_workloads():
    return {name: wl.bound() for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("workload", list(WORKLOADS), ids=str)
@pytest.mark.parametrize("config", list(ENGINE_CONFIGS), ids=str)
def test_engine_config_matrix(bound_workloads, workload, config, monkeypatch):
    bound = bound_workloads[workload]
    kwargs = dict(ENGINE_CONFIGS[config])
    set_flush_pairs(monkeypatch, kwargs.pop("flush_pairs", None))
    engine = ProgXeEngine(bound, VirtualClock(), **kwargs)
    results = list(engine.run())
    report = verify_results(bound, results)
    assert report.ok, f"{workload}/{config}: {report.render()}"


@pytest.mark.parametrize("workload", list(WORKLOADS), ids=str)
@pytest.mark.parametrize("algorithm", list(ALGORITHMS), ids=str)
def test_algorithm_matrix(bound_workloads, workload, algorithm):
    bound = bound_workloads[workload]
    run = run_algorithm(ALGORITHMS[algorithm], bound)
    report = verify_results(bound, run.results)
    assert report.ok, f"{workload}/{algorithm}: {report.render()}"
