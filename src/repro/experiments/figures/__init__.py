"""The figure table: every reproducible table/figure is one row of
:data:`FIGURES`.

A simulated figure (fig2, fig3, fig6-fig13) is a grid of seeded runs, and
its row says how that grid is built and read:

* ``cells(**params) -> {coordinate: Cell}`` -- the sweep, one
  :class:`~repro.experiments.specs.Cell` per coordinate.  Its signature
  defaults are the figure's reduced scale and its default seed;
  :data:`PAPER_SCALE` holds the keyword arguments ``--full`` adds.
* ``assemble(cells, runs) -> result`` -- the figure's result object from the
  cells' raw runs (one list per cell, same order); every ``assemble`` pools
  a cell through :meth:`Cell.pool <repro.experiments.specs.Cell.pool>`.
* ``derived(result) -> {name: float}`` -- the headline numbers the figure
  claims (gains, gaps, ratios), each computed here and nowhere else.  A
  number the result cannot give is left out, or mapped to the reason as a
  string; :mod:`repro.validation.invariants` holds the paper's bound on each.
* ``render(result) -> str`` -- the table the paper prints.

:func:`run_experiment` is the one run (``cells`` -> one executor pass ->
``assemble``) and :meth:`FigureRun.summary` the one summary (each cell's
:func:`~repro.experiments.executor.cell_metrics` under its ``Cell.key``, plus
``derived``); validation, cross-fidelity and the CLI read the same rows.
Table 1 and Figure 5 are analytic, and the Section 3.3 ablation and the
Section 3.5 DCQCN extension build their rigs by hand -- none of them builds a
:class:`~repro.experiments.specs.RunSpec` -- so their rows are a plain
``run``/``summarize`` pair (``summarize(result)`` is the ``cells`` map).

See DESIGN.md section 3 for what each one shows.
"""

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from ..executor import Executor, cell_metrics, run_grid
from ..specs import Cell
from . import (
    ablation,
    dcqcn,
    fig2,
    fig3,
    fig5,
    fig6_fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
)


class Figure(NamedTuple):
    """One row of :data:`FIGURES`: ``cells``/``assemble`` for a grid of
    seeded runs, ``run``/``summarize`` for a row that builds no spec."""

    title: str
    render: Callable[[Any], str]
    derived: Callable[[Any], Dict[str, Any]]
    cells: Optional[Callable[..., Dict[Any, Cell]]] = None
    assemble: Optional[Callable[[Dict[Any, Cell], Sequence[Sequence[Any]]], Any]] = None
    run: Optional[Callable[..., Any]] = None
    summarize: Optional[Callable[[Any], Dict[str, Dict[str, float]]]] = None

    @property
    def seed(self) -> int:
        """The default seed, written once: on ``cells`` (or ``run``)."""
        declares_seed = self.cells or self.run
        return inspect.signature(declares_seed).parameters["seed"].default


def _simulated(title: str, module, cells=None) -> Figure:
    return Figure(
        title,
        module.render,
        module.derived,
        cells=cells or module.cells,
        assemble=module.assemble,
    )


def _by_hand(title: str, module, run) -> Figure:
    return Figure(
        title, module.render, module.derived, run=run, summarize=module.summarize
    )


FIGURES: Dict[str, Figure] = {
    "table1": _by_hand(
        "Table 1 / Fig 1: RTT variations from processing components",
        table1,
        table1.run_table1,
    ),
    "fig2": _simulated("Fig 2: instantaneous-threshold sweep dilemma", fig2),
    "fig3": _simulated("Fig 3: degradation vs RTT-variation magnitude", fig3),
    "fig5": _by_hand("Fig 5: workload flow-size CDFs", fig5, fig5.run_fig5),
    "fig6": _simulated(
        "Fig 6: testbed FCT vs load (web search)", fig6_fig7, fig6_fig7.fig6_cells
    ),
    "fig7": _simulated(
        "Fig 7: testbed FCT vs load (data mining)", fig6_fig7, fig6_fig7.fig7_cells
    ),
    "fig8": _simulated("Fig 8: FCT under 3x-5x RTT variations", fig8),
    "fig9": _simulated("Fig 9: leaf-spine large-scale FCT vs load", fig9),
    "fig10": _simulated("Fig 10: microscopic queue occupancy", fig10),
    "fig11": _simulated("Fig 11: query FCT vs incast fanout", fig11),
    "fig12": _simulated("Fig 12: ECN# parameter sensitivity", fig12),
    "fig13": _simulated("Fig 13: ECN# under DWRR scheduling vs TCN", fig13),
    "ablation": _by_hand(
        "Section 3.3 ablation: ECN# with one component removed",
        ablation,
        ablation.run_ablation,
    ),
    "dcqcn": _by_hand(
        "Section 3.5 extension: DCQCN under cut-off vs probabilistic ECN#",
        dcqcn,
        dcqcn.run_dcqcn,
    ),
}
"""Every reproducible table/figure, in ``repro list`` order."""


@dataclass
class FigureRun:
    """One figure, run: what was asked for, what ran, and the result."""

    name: str
    params: Dict[str, Any]
    cells: Dict[Any, Cell]  # empty for an analytic figure
    runs: List[Sequence[Any]]  # raw runs per cell, aligned with ``cells``
    result: Any

    def render(self) -> str:
        return FIGURES[self.name].render(self.result)

    def summary(self) -> dict:
        """Machine-readable grid summary (``--results-out``): ``params`` are
        the resolved ``cells`` arguments and ``cells`` maps each surviving
        cell's key to the metrics of its pooled result -- the map validation
        baselines and campaign-store records hold."""
        figure = FIGURES[self.name]
        if figure.cells is None:
            params, cells = {}, figure.summarize(self.result)
        else:
            resolved = inspect.signature(figure.cells).bind(**self.params)
            resolved.apply_defaults()
            params, cells = dict(resolved.arguments), {}
            for cell, cell_runs in zip(self.cells.values(), self.runs):
                metrics = cell_metrics(cell, cell.pool(cell_runs))
                if metrics is not None:  # a failed cell is absent, not null
                    cells[cell.key] = metrics
        return {
            "figure": self.name,
            "params": params,
            "cells": cells,
            "derived": {  # numbers only: no skip reason, no "never" (inf)
                name: value
                for name, value in figure.derived(self.result).items()
                if isinstance(value, float) and math.isfinite(value)
            },
        }


def run_experiment(
    name: str, executor: Optional[Executor] = None, **params: Any
) -> FigureRun:
    """Run one figure at its defaults plus ``params``: build its cells, run
    the whole grid in one executor pass, assemble the result."""
    figure = FIGURES[name]
    if figure.cells is None:
        return FigureRun(name, params, {}, [], figure.run(**params))
    grid = figure.cells(**params)
    runs = run_grid(grid.values(), executor, pool=list)
    return FigureRun(name, params, grid, runs, figure.assemble(grid, runs))


_PAPER_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

PAPER_SCALE: Dict[str, Dict[str, Any]] = {
    "fig2": {"n_flows": 2000, "n_seeds": 3},
    "fig3": {"n_flows": 2000, "n_seeds": 3},
    "fig6": {"loads": _PAPER_LOADS, "n_flows": 2000, "n_seeds": 3},
    "fig7": {"loads": _PAPER_LOADS, "n_flows": 500, "n_seeds": 3},
    "fig8": {"n_flows": 2000, "n_seeds": 3},
    "fig9": {
        "loads": (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        "n_flows": 2000,
        "dims": (8, 8, 16),  # spines, leaves, hosts/leaf
        "n_seeds": 3,
    },
    "fig11": {"fanouts": (25, 50, 75, 100, 125, 150, 175, 200)},
    "fig12": {"n_flows_web": 1000, "n_flows_mining": 250},
}
"""``{figure: cells kwargs}`` approaching the paper's flow counts and load
grids (hours of wall clock in pure Python): what ``--full``/``REPRO_FULL=1``
passes on top of the figure's own defaults.  A figure without an entry has
one size only.  Same shape as ``ValidationScale.figures``."""

__all__ = [
    "FIGURES",
    "Figure",
    "FigureRun",
    "run_experiment",
    "PAPER_SCALE",
    "table1",
    "fig2",
    "fig3",
    "fig5",
    "fig6_fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablation",
    "dcqcn",
]
