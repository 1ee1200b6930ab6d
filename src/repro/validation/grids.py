"""Validation grids: which figure grids a validation pass runs, and at what size.

The figure table owns the grids
(:data:`repro.experiments.figures.FIGURES`): how a figure's cells are built
and how its result object is assembled is defined in its row, once.  This
module is a view over the simulated rows.  A :class:`ValidationScale` names the figures to run
and the keyword arguments each figure's ``cells`` is called with;
:func:`build_cells` concatenates those grids, and
:func:`run_validation_grid` executes them in one executor pass, extracts
*per-seed* metric samples for the statistical gates and assembles the
ordinary figure result objects (``FctVsLoadResult``, ``Fig10Result``, ...)
for the paper-trend invariants.

``repro validate capture``, ``run`` and ``crossfid`` all build their cells
from the same scale, producing byte-identical
:class:`~repro.experiments.specs.RunSpec` lists -- which is what makes a
warm ``validate run`` immediately after ``capture`` replay entirely from the
executor's result cache (``executed=0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..experiments.executor import Executor, cell_metrics, run_grid
from ..experiments.faults import RunFailure, is_failure
from ..experiments.figures import FIGURES
from ..experiments.specs import Cell

__all__ = [
    "ValidationScale",
    "SCALES",
    "resolve_scale",
    "GridOutcome",
    "build_cells",
    "cell_samples",
    "assemble_figures",
    "run_validation_grid",
]


@dataclass(frozen=True)
class ValidationScale:
    """A named validation grid: the figures to run, in order, each with
    the keyword arguments its ``cells`` function is called with (``{}``
    runs the figure at its own defaults)."""

    name: str
    figures: Dict[str, Dict[str, Any]]


SCALES: Dict[str, ValidationScale] = {
    "tiny": ValidationScale(
        name="tiny",
        figures={
            "fig6": {"loads": (0.5, 0.8), "n_flows": 80},
            "fig8": {"variations": (3.0, 5.0), "loads": (0.8,), "n_flows": 80},
            "fig10": {},
            "fig11": {"fanouts": (150, 175)},
            "fig12": {
                "intervals_us": (100.0, 250.0),
                "targets_us": (6.0, 18.0),
                "n_flows_web": 60,
                "n_flows_mining": 30,
            },
        },
    ),
    "reduced": ValidationScale(
        name="reduced",
        figures={
            "fig6": {},
            "fig7": {"loads": (0.5, 0.8)},
            "fig8": {},
            "fig10": {},
            "fig11": {},
            "fig12": {},
        },
    ),
}
"""Named grids: ``tiny`` is the CI smoke gate (~1 minute serial), and
``reduced`` is the default figure-run parameters."""


def resolve_scale(scale: Union[str, ValidationScale]) -> ValidationScale:
    if isinstance(scale, ValidationScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown validation scale {scale!r} (available: {sorted(SCALES)})"
        ) from None


def _figure_grids(scale: ValidationScale) -> Dict[str, Dict[Any, Cell]]:
    """Each figure's coordinate -> cell map, in the scale's figure order."""
    grids = {}
    for figure, params in scale.figures.items():
        row = FIGURES.get(figure)
        if row is None or row.cells is None:
            raise ValueError(f"unknown validation figure {figure!r}")
        grids[figure] = row.cells(**params)
    return grids


def build_cells(scale: Union[str, ValidationScale]) -> List[Cell]:
    """Every cell of the scale's grid, in deterministic order."""
    grids = _figure_grids(resolve_scale(scale))
    return [cell for grid in grids.values() for cell in grid.values()]


def cell_samples(
    cell: Cell,
    runs: Sequence[Any],
    extract: Callable[[Cell, Any], Optional[Dict[str, float]]] = cell_metrics,
) -> Dict[str, List[float]]:
    """Per-seed sample list of every metric ``extract`` reads off the
    cell's surviving runs."""
    samples: Dict[str, List[float]] = {}
    for run in runs:
        for name, value in (extract(cell, run) or {}).items():
            samples.setdefault(name, []).append(value)
    return samples


def assemble_figures(
    scale: ValidationScale, per_cell: Sequence[Sequence[Any]]
) -> Dict[str, Optional[object]]:
    """The scale's figure result objects from raw per-cell runs (aligned
    with :func:`build_cells`); ``None`` for a figure in which some cell has
    no surviving run."""
    remaining = iter(per_cell)
    results: Dict[str, Optional[object]] = {}
    for figure, grid in _figure_grids(scale).items():
        runs = list(islice(remaining, len(grid)))
        dead = any(
            all(run is None or is_failure(run) for run in cell_runs)
            for cell_runs in runs
        )
        results[figure] = (
            None if dead else FIGURES[figure].assemble(grid, runs)
        )
    return results


@dataclass
class GridOutcome:
    """Everything one validation grid pass produced."""

    scale: ValidationScale
    cells: List[Cell]
    # figure -> cell key -> metric -> per-seed sample list
    samples: Dict[str, Dict[str, Dict[str, List[float]]]]
    # figure -> cell key -> RunSpec tokens (baseline staleness detection)
    tokens: Dict[str, Dict[str, List[str]]]
    # figure -> assembled figure result object (None if cells failed)
    figure_results: Dict[str, Optional[object]]
    failures: List[RunFailure] = field(default_factory=list)


def run_validation_grid(
    scale: Union[str, ValidationScale],
    executor: Optional[Executor] = None,
) -> GridOutcome:
    """Execute the grid in one executor pass and organise the outputs."""
    scale = resolve_scale(scale)
    cells = build_cells(scale)
    per_cell = run_grid(cells, executor, pool=list)
    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    tokens: Dict[str, Dict[str, List[str]]] = {}
    for cell, runs in zip(cells, per_cell):
        samples.setdefault(cell.group, {})[cell.key] = cell_samples(cell, runs)
        tokens.setdefault(cell.group, {})[cell.key] = cell.tokens()
    return GridOutcome(
        scale=scale,
        cells=cells,
        samples=samples,
        tokens=tokens,
        figure_results=assemble_figures(scale, per_cell),
        failures=[
            run
            for runs in per_cell
            for run in runs
            if isinstance(run, RunFailure)
        ],
    )
