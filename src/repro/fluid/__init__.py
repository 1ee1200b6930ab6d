"""Flow-level fluid fast model (the ``fidelity=fluid`` engine).

A discrete-time, vectorized approximation of DCTCP over the paper's AQMs:
per-RTT congestion-window updates, fluid queue occupancy per port, and
analytic marking fractions for RED/CoDel/ECN#/TCN.  Consumes the same
:class:`~repro.experiments.specs.RunSpec` grids and emits the same
result shapes as the packet engine, at a per-step cost set by the flows
active and the ports busy in that step rather than by the fabric's size
-- the path to 1000+ host fabrics.

Select it per spec (``extras['fidelity'] = 'fluid'``), per invocation
(``--fidelity fluid``) or per environment (``REPRO_FIDELITY=fluid``);
``repro validate crossfid`` certifies fluid/packet agreement.
"""

from .engine import FluidEngine, FluidFabric, FluidRunResult, choose_dt
from .marking import MarkerBank, StepMarks, build_marker_bank
from .population import FlowPopulation, leafspine_population, star_population
from .runner import (
    run_fluid_leafspine_fct,
    run_fluid_microscopic,
    run_fluid_star_fct,
)

__all__ = [
    "FluidEngine",
    "FluidFabric",
    "FluidRunResult",
    "choose_dt",
    "MarkerBank",
    "StepMarks",
    "build_marker_bank",
    "FlowPopulation",
    "star_population",
    "leafspine_population",
    "run_fluid_star_fct",
    "run_fluid_leafspine_fct",
    "run_fluid_microscopic",
]
