"""Fidelity validation subsystem: golden baselines, tolerance-band gates,
and paper-trend invariants.

Layers (dependency order):

* :mod:`.stats` -- tolerance bands and the :func:`~.stats.compare_samples`
  verdict ladder (bands plus disjoint seed ranges), and bootstrap CIs;
* :mod:`.baselines` -- schema-versioned golden-result JSON with git/spec
  provenance and staleness detection;
* :mod:`.invariants` -- declarative registry of the paper's directional
  claims (Figures 6-12), evaluated against assembled figure results;
* :mod:`.grids` -- named scales over the figure table's own grids
  (``experiments.figures.FIGURES``), shared by capture, gate and crossfid
  runs so warm gates replay from cache;
* :mod:`.gates` -- ``repro validate capture`` / ``repro validate run``;
* :mod:`.crossfid` -- ``repro validate crossfid``, the fluid-vs-packet
  agreement gate over the hybrid-fidelity sampled cells.
"""

from .baselines import (
    BASELINE_SCHEMA_VERSION,
    Baseline,
    BaselineManifest,
    DirtyTreeError,
    StaleBaselineError,
    ensure_clean_tree,
    git_dirty,
)
from .crossfid import (
    CROSSFID_FIGURES,
    CrossfidReport,
    crossfid_band_for,
    run_crossfid,
)
from .gates import (
    ValidationReport,
    band_for,
    capture_baselines,
    default_baseline_path,
    run_gate,
)
from .grids import (
    SCALES,
    GridOutcome,
    ValidationScale,
    build_cells,
    resolve_scale,
    run_validation_grid,
)
from .invariants import (
    REGISTRY,
    Invariant,
    InvariantVerdict,
    evaluate_figure,
    render_verdicts,
)
from .stats import (
    COUNT_BAND,
    DEFAULT_BAND,
    FAIL,
    PASS,
    QUEUE_BAND,
    SKIP,
    WARN,
    BootstrapCi,
    CellComparison,
    ToleranceBand,
    bootstrap_ci,
    compare_samples,
)

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "Baseline",
    "BaselineManifest",
    "DirtyTreeError",
    "StaleBaselineError",
    "ensure_clean_tree",
    "git_dirty",
    "CROSSFID_FIGURES",
    "CrossfidReport",
    "crossfid_band_for",
    "run_crossfid",
    "ValidationReport",
    "band_for",
    "capture_baselines",
    "default_baseline_path",
    "run_gate",
    "SCALES",
    "GridOutcome",
    "ValidationScale",
    "build_cells",
    "resolve_scale",
    "run_validation_grid",
    "REGISTRY",
    "Invariant",
    "InvariantVerdict",
    "evaluate_figure",
    "render_verdicts",
    "COUNT_BAND",
    "DEFAULT_BAND",
    "FAIL",
    "PASS",
    "QUEUE_BAND",
    "SKIP",
    "WARN",
    "BootstrapCi",
    "CellComparison",
    "ToleranceBand",
    "bootstrap_ci",
    "compare_samples",
]
