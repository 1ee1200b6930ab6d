"""Experiment harness: FCT metrics, runners, and per-figure entry points."""

from .executor import (
    Executor,
    ResultCache,
    get_default_executor,
    run_grid,
    set_default_executor,
)
from .faults import (
    FailedCell,
    InjectedFault,
    RunFailure,
    gather_failures,
    is_failure,
)
from .fct import (
    LARGE_FLOW_MIN,
    SHORT_FLOW_MAX,
    FctCollector,
    FctSummary,
    FlowRecord,
    NormalizedFct,
)
from .report import format_failure_table, format_table
from .runner import (
    ExperimentResult,
    estimate_star_network_rtt,
    pool_results,
    run_leafspine_fct,
    run_star_fct,
)
from .schemes import (
    SCHEME_ORDER,
    bytes_to_sojourn,
    simulation_scheme_specs,
    simulation_schemes,
    testbed_scheme_specs,
    testbed_schemes,
)
from .specs import AqmSpec, Cell, RunSpec, seed_specs

__all__ = [
    "LARGE_FLOW_MIN",
    "SHORT_FLOW_MAX",
    "FctCollector",
    "FctSummary",
    "FlowRecord",
    "NormalizedFct",
    "format_failure_table",
    "format_table",
    "ExperimentResult",
    "FailedCell",
    "InjectedFault",
    "RunFailure",
    "estimate_star_network_rtt",
    "gather_failures",
    "is_failure",
    "pool_results",
    "run_leafspine_fct",
    "run_star_fct",
    "SCHEME_ORDER",
    "bytes_to_sojourn",
    "simulation_schemes",
    "simulation_scheme_specs",
    "testbed_schemes",
    "testbed_scheme_specs",
    "AqmSpec",
    "Cell",
    "RunSpec",
    "Executor",
    "ResultCache",
    "get_default_executor",
    "set_default_executor",
    "run_grid",
    "seed_specs",
]
