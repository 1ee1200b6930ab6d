"""One module per paper table/figure; each exposes ``run_*``, ``render`` and
``summarize_for_validation``, indexed by :data:`FIGURES`.  A module's
signature defaults are its reduced scale and its default seed;
:data:`PAPER_SCALE` holds the keyword arguments ``--full`` adds.

See DESIGN.md section 3 for what each one shows.
"""

import inspect
from typing import Any, Callable, Dict, NamedTuple

from . import (
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

GRIDS = {
    "fig6": (fig6_fig7.fig6_cells, fig6_fig7.assemble),
    "fig7": (fig6_fig7.fig7_cells, fig6_fig7.assemble),
    "fig8": (fig8.cells, fig8.assemble),
    "fig10": (fig10.cells, fig10.assemble),
    "fig11": (fig11.cells, fig11.assemble),
    "fig12": (fig12.cells, fig12.assemble),
}
"""Figure name -> ``(cells, assemble)`` for the figures whose grid is data:
``cells(**params)`` maps each sweep coordinate to its
:class:`~repro.experiments.specs.Cell`, and ``assemble(cells, runs)`` turns
the cells' raw runs (one list per cell, same order) into the figure's result
object.  ``run_figN`` and the validation gates both go through this pair."""


class Figure(NamedTuple):
    title: str
    run: Callable[..., Any]  # run(seed=..., **PAPER_SCALE[name]) -> result
    render: Callable[[Any], str]
    summarize: Callable[[Any], dict]
    seed: int


def _figure(name: str, title: str, module) -> Figure:
    run = getattr(module, f"run_{name}")
    # The default seed is written once, on the signature that declares it:
    # ``run`` itself, or ``cells`` where ``run_figN(**params)`` forwards there.
    declares_seed = GRIDS[name][0] if name in GRIDS else run
    seed = inspect.signature(declares_seed).parameters["seed"].default
    return Figure(title, run, module.render, module.summarize_for_validation, seed)


FIGURES: Dict[str, Figure] = {
    name: _figure(name, title, module)
    for name, (title, module) in {
        "table1": (
            "Table 1 / Fig 1: RTT variations from processing components",
            table1,
        ),
        "fig2": ("Fig 2: instantaneous-threshold sweep dilemma", fig2),
        "fig3": ("Fig 3: degradation vs RTT-variation magnitude", fig3),
        "fig5": ("Fig 5: workload flow-size CDFs", fig5),
        "fig6": ("Fig 6: testbed FCT vs load (web search)", fig6_fig7),
        "fig7": ("Fig 7: testbed FCT vs load (data mining)", fig6_fig7),
        "fig8": ("Fig 8: FCT under 3x-5x RTT variations", fig8),
        "fig9": ("Fig 9: leaf-spine large-scale FCT vs load", fig9),
        "fig10": ("Fig 10: microscopic queue occupancy", fig10),
        "fig11": ("Fig 11: query FCT vs incast fanout", fig11),
        "fig12": ("Fig 12: ECN# parameter sensitivity", fig12),
        "fig13": ("Fig 13: ECN# under DWRR scheduling vs TCN", fig13),
    }.items()
}
"""Every reproducible table/figure, in ``repro list`` order."""

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
"""``{figure: run kwargs}`` approaching the paper's flow counts and load
grids (hours of wall clock in pure Python): what ``--full``/``REPRO_FULL=1``
passes on top of the figure's own defaults.  A figure without an entry has
one size only.  Same shape as ``ValidationScale.figures``."""

__all__ = [
    "FIGURES",
    "Figure",
    "GRIDS",
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
]
