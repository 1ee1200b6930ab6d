"""Declarative scenarios: describe an experiment as data, run it as a
campaign.

* :mod:`~repro.scenarios.schema` -- versioned, validated TOML/JSON scenario
  descriptions (topology, RTT profile, workload mix, AQM scheme set,
  transport, seeds).
* :mod:`~repro.scenarios.compile` -- pure scenario -> RunSpec-grid compiler;
  compiled grids run through the existing executor/cache/fault layers
  unchanged.
* :mod:`~repro.scenarios.campaign` -- resumable campaign orchestration over
  a directory of scenario files with a crash-safe JSONL result store.

* :mod:`~repro.scenarios.coordination` -- multi-writer resilience: store
  lock, lease-based cell claiming with stale-lease reclamation, graceful
  shutdown, idempotent store merge and canonical store fingerprints.

CLI: ``repro scenario list|check|run|report|merge``.  The checked-in
``scenarios/`` directory holds faithful re-expressions of the paper's
fig6/fig10/fig11 setups plus beyond-paper scenarios (oversubscribed
fabrics, mixed traffic, extreme RTT spread).
"""

from .campaign import (
    CampaignResult,
    CampaignStore,
    CellRecord,
    StoreLoadStats,
    run_campaign,
    render_store_report,
)
from .coordination import (
    GracefulShutdown,
    LeaseBoard,
    LockTimeout,
    MergeConflictError,
    MergeResult,
    StoreLock,
    default_worker_id,
    merge_stores,
    store_fingerprint,
)
from .compile import (
    CompiledScenario,
    check_scenario,
    compile_scenario,
    summarize_cell,
)
from .schema import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioError,
    load_scenario,
    load_scenario_dir,
)

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "load_scenario_dir",
    "CompiledScenario",
    "compile_scenario",
    "check_scenario",
    "summarize_cell",
    "CampaignStore",
    "CampaignResult",
    "CellRecord",
    "StoreLoadStats",
    "run_campaign",
    "render_store_report",
    "GracefulShutdown",
    "LeaseBoard",
    "LockTimeout",
    "MergeConflictError",
    "MergeResult",
    "StoreLock",
    "default_worker_id",
    "merge_stores",
    "store_fingerprint",
]
