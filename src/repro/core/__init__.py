"""The paper's contribution: the ProgXe progressive execution framework."""

from repro.core.benefit import progressive_count, region_benefit, region_cardinality
from repro.core.cost import kung_alpha, region_cost
from repro.core.elimination_graph import EliminationGraph
from repro.core.engine import ProgXeEngine
from repro.core.explain import ExplainReport, explain
from repro.core.kernel import ExecutionKernel, KernelSnapshot, StepReport
from repro.core.plan import QueryPlan, default_input_cells, default_output_cells
from repro.core.verify import (
    VerificationReport,
    true_skyline_keys,
    verify_results,
)
from repro.core.lookahead import (
    build_output_grid,
    build_regions,
    eliminate_dominated_regions,
    premark_dominated_cells,
    run_lookahead,
)
from repro.core.output_grid import OutputCell, OutputGrid
from repro.core.progdetermine import ExecutionState
from repro.core.progorder import ProgOrder, RandomOrder
from repro.core.regions import OutputRegion
from repro.core.streaming import StreamingKernel
from repro.core.tuple_level import process_region
from repro.core.variants import (
    ALGORITHMS,
    PROGXE_VARIANTS,
    progxe,
    progxe_no_order,
    progxe_plus,
    progxe_plus_no_order,
)

__all__ = [
    "ALGORITHMS",
    "EliminationGraph",
    "ExecutionKernel",
    "ExecutionState",
    "ExplainReport",
    "KernelSnapshot",
    "QueryPlan",
    "StepReport",
    "StreamingKernel",
    "default_input_cells",
    "default_output_cells",
    "VerificationReport",
    "explain",
    "true_skyline_keys",
    "verify_results",
    "OutputCell",
    "OutputGrid",
    "OutputRegion",
    "PROGXE_VARIANTS",
    "ProgOrder",
    "ProgXeEngine",
    "RandomOrder",
    "build_output_grid",
    "build_regions",
    "eliminate_dominated_regions",
    "kung_alpha",
    "premark_dominated_cells",
    "process_region",
    "progressive_count",
    "progxe",
    "progxe_no_order",
    "progxe_plus",
    "progxe_plus_no_order",
    "region_benefit",
    "region_cardinality",
    "region_cost",
    "run_lookahead",
]
