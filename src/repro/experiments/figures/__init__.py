"""One module per paper table/figure; each exposes ``run_*`` and ``render``.

Index (see DESIGN.md section 3 for the full mapping):

* :mod:`table1`  -- Table 1 / Figure 1: RTT variation from processing components
* :mod:`fig2`    -- Figure 2: instantaneous-threshold sweep dilemma
* :mod:`fig3`    -- Figure 3: performance loss vs RTT-variation magnitude
* :mod:`fig5`    -- Figure 5: workload flow-size CDFs
* :mod:`fig6_fig7` -- Figures 6-7: testbed FCT vs load, both workloads
* :mod:`fig8`    -- Figure 8: testbed FCT under 3x-5x variations
* :mod:`fig9`    -- Figure 9: leaf-spine large-scale FCT vs load
* :mod:`fig10`   -- Figure 10: microscopic queue occupancy
* :mod:`fig11`   -- Figure 11: query FCT vs incast fanout
* :mod:`fig12`   -- Figure 12: ECN# parameter sensitivity
* :mod:`fig13`   -- Figure 13: ECN# under DWRR packet scheduling vs TCN
"""

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

__all__ = [
    "GRIDS",
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
