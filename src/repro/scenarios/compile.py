"""Scenario compilation: scenario description -> deterministic RunSpec grid.

:func:`compile_scenario` is a pure function from a validated
:class:`~repro.scenarios.schema.Scenario` to an ordered list of
:class:`~repro.experiments.specs.Cell` (the figure grids' cell type) -- each
carrying a stable cell key and the seed-expanded
:class:`~repro.experiments.specs.RunSpec` list the existing
:class:`~repro.experiments.executor.Executor` knows how to run.  Compilation
touches no executor/cache/fault code: compiled scenarios flow through those
layers exactly as the figure modules' grids do.

Faithfulness rule: a spec field is set only when the figure modules would
set it.  ``run_star_fct`` defaults ``rtt_shape="testbed"`` and
``run_leafspine_fct`` defaults ``"fabric"``, so the compiler elides the
shape when it matches the rig default; the incast rig's ``rtt_min``/
``variation`` defaults (80 us, 3x) are likewise elided, and a non-blocking
(1.0) oversubscription adds no extra.  Because a spec's hash *is* the cache
key and the store identity, this elision makes a scenario that re-expresses
fig6/fig10/fig11 compile to byte-identical specs -- same cache entries,
bit-identical summaries (asserted cell-for-cell in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import settings
from ..experiments.executor import cell_metrics
from ..experiments.faults import is_failure
from ..experiments.specs import AqmSpec, Cell, RunSpec
from ..sim.units import us
from .schema import Scenario, ScenarioError, WorkloadSpec

__all__ = ["CompiledScenario", "compile_scenario", "summarize_cell",
           "check_scenario", "scheme_of"]

# The rig defaults the compiler elides against (run_star_fct /
# run_leafspine_fct / run_microscopic keyword defaults).
_RIG_SHAPE = {"star": "testbed", "leafspine": "fabric"}
_MICRO_RTT_MIN_US = 80.0
_MICRO_VARIATION = 3.0
_MICRO_SHAPE = "fabric"
_DEFAULT_N_SENDERS = 7


@lru_cache(maxsize=1 << 14)
def scheme_of(cell_key: str) -> str:
    """The ``scheme=`` segment of a cell key, or ``""``: the one parser of
    the ``<component>|load=0.6|scheme=<name>`` and
    ``<component>|fanout=100|scheme=<name>`` keys this module writes.  A
    grid has few distinct keys, so each is split once."""
    for segment in cell_key.split("|"):
        if segment.startswith("scheme="):
            return segment[len("scheme="):]
    return ""


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario's full deterministic grid, in presentation order."""

    scenario: Scenario
    cells: Tuple[Cell, ...]

    def specs(self) -> List[RunSpec]:
        return [spec for cell in self.cells for spec in cell.specs]

    @property
    def n_specs(self) -> int:
        return sum(len(cell.specs) for cell in self.cells)


def compile_scenario(
    scenario: Scenario, fidelity: Optional[str] = None
) -> CompiledScenario:
    """Compile every workload component into its cell list.

    ``fidelity`` (the CLI's ``--fidelity``) beats the scenario's
    ``[run] fidelity``, which beats ``REPRO_FIDELITY``, which defaults to
    packet.  Resolution happens here -- at spec-build time -- so the
    fidelity is baked into each spec's token/cache key and the executor
    never consults the environment.  Packet-fidelity specs are
    byte-identical to pre-fidelity compilations (the extras key is elided).

    Raises :class:`ScenarioError` (with the offending component's path) for
    combinations the rigs cannot express -- incast on a leaf-spine topology,
    an incast RTT shape other than the rig's fixed "fabric" mixture, or
    transport overrides alongside an incast component (the incast rig pins
    its own transport).
    """
    resolved = settings.resolve("fidelity", fidelity or scenario.fidelity)
    cells: List[Cell] = []
    for index, component in enumerate(scenario.workloads):
        path = f"{scenario.name}.workloads[{index}]"
        if component.kind == "fct":
            component_cells = _fct_cells(scenario, component)
        else:
            _check_incast(scenario, component, path)
            component_cells = _incast_cells(scenario, component)
        if resolved != "packet":
            component_cells = [
                cell.with_fidelity(resolved) for cell in component_cells
            ]
        cells.extend(component_cells)
    return CompiledScenario(scenario=scenario, cells=tuple(cells))


# ------------------------------------------------------------ fct components


def _fct_cells(scenario: Scenario, component: WorkloadSpec) -> List[Cell]:
    topology = scenario.topology
    rtt = scenario.rtt_for(component)
    n_seeds = scenario.seeds_for(component)
    transport = scenario.transport.overrides()
    builder = RunSpec.star if topology.kind == "star" else RunSpec.leafspine

    extras: Dict[str, Any] = {}
    if topology.kind == "star":
        if topology.n_senders != _DEFAULT_N_SENDERS:
            extras["n_senders"] = topology.n_senders
    else:
        # run_leafspine_fct always receives explicit dims (matching fig9's
        # grids, which pin the scale's dims on every spec).
        extras["dims"] = topology.dims
        if topology.oversubscription != 1.0:
            extras["oversubscription"] = topology.oversubscription
    if rtt.shape != _RIG_SHAPE[topology.kind]:
        extras["rtt_shape"] = rtt.shape

    cells = []
    for load in component.loads:
        for name, aqm in scenario.schemes.resolve().items():
            spec = builder(
                aqm,
                workload=component.workload,
                load=load,
                n_flows=component.n_flows,
                seed=scenario.seed,
                label=name,
                variation=rtt.variation,
                rtt_min=rtt.rtt_min_seconds,
                transport=transport or None,
                **extras,
            )
            cells.append(
                Cell.pooled(
                    component.name,
                    f"{component.name}|load={load:g}|scheme={name}",
                    spec,
                    n_seeds,
                )
            )
    return cells


# --------------------------------------------------------- incast components


def _check_incast(
    scenario: Scenario, component: WorkloadSpec, path: str
) -> None:
    if scenario.topology.kind != "star":
        raise ScenarioError(
            path,
            "incast components require the star topology (the query-burst "
            "rig builds its own 16-to-1 incast star); got "
            f"{scenario.topology.kind!r}",
        )
    rtt = scenario.rtt_for(component)
    if rtt.shape != _MICRO_SHAPE:
        raise ScenarioError(
            f"{path}.rtt.shape",
            f"the incast rig's RTT mixture is fixed to {_MICRO_SHAPE!r}; "
            f"got {rtt.shape!r} (give this component its own [rtt] table)",
        )
    if scenario.transport.to_dict():
        raise ScenarioError(
            f"{path}",
            "[transport] overrides do not reach incast components (the "
            "incast rig pins its own transport); remove the [transport] "
            "table or the incast component",
        )


def _incast_cells(scenario: Scenario, component: WorkloadSpec) -> List[Cell]:
    rtt = scenario.rtt_for(component)
    cells = []
    for fanout in component.fanouts:
        for name, aqm in scenario.schemes.resolve().items():
            extras: Dict[str, Any] = {"fanout": fanout}
            if rtt.min_us != _MICRO_RTT_MIN_US:
                extras["rtt_min"] = rtt.rtt_min_seconds
            if rtt.variation != _MICRO_VARIATION:
                extras["variation"] = rtt.variation
            spec = RunSpec.microscopic(
                aqm, seed=scenario.seed, label=name, **extras
            )
            cells.append(
                Cell.single(
                    component.name,
                    f"{component.name}|fanout={fanout}|scheme={name}",
                    spec,
                )
            )
    return cells


# ------------------------------------------------------------- summarising


def summarize_cell(cell: Cell, runs: Sequence[Any]) -> Dict[str, Any]:
    """One cell's deterministic summary from its raw executor results.

    ``{"status": "ok"|"failed", "metrics": {...}, "failures": [...]}`` --
    no timestamps or wall-clock fields, so identical specs produce
    byte-identical summaries (the campaign store's resume guarantee).  A
    cell with *any* failed seed run reports ``"failed"`` so a campaign
    rerun re-executes it.
    """
    failures = [
        {"spec": run.spec_key, "kind": run.kind, "exc": run.exc_type}
        for run in runs
        if is_failure(run)
    ]
    if failures:
        return {"status": "failed", "metrics": {}, "failures": failures}
    return {"status": "ok", "metrics": cell_metrics(cell, cell.pool(runs)),
            "failures": []}


# ---------------------------------------------------------------- checking


def check_scenario(scenario: Scenario) -> CompiledScenario:
    """Deep-check one scenario: compile it and construct every distinct AQM
    once, so parameter-level mistakes (wrong keyword for the AQM kind)
    surface here with the scheme's name -- not mid-campaign in a worker."""
    compiled = compile_scenario(scenario)
    seen: set = set()
    for name, aqm in scenario.schemes.resolve().items():
        if aqm in seen:
            continue
        seen.add(aqm)
        try:
            aqm.build()
        except TypeError as exc:
            raise ScenarioError(
                f"{scenario.name}.schemes[{name}]",
                f"AQM kind {aqm.kind!r} rejected params "
                f"{dict(aqm.params)}: {exc}",
            ) from None
    return compiled
