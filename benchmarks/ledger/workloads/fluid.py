"""``fluid_sweep``: the numpy fluid engine at three population sizes.

The packet path is bypassed entirely, so a packet-path change must not move
this workload; the three sizes show whether microseconds per step stay flat
as the population grows (they do not: see README).  The cells are pinned for
the reason given in :mod:`.packet`; ``--seed`` drives the seeded check's populations.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Dict, Sequence

from repro.experiments import runner
from repro.experiments.schemes import (
    simulation_scheme_specs,
    testbed_scheme_specs,
)
from repro.fluid import runner as fluid_runner
from repro.workloads import WEB_SEARCH

from .. import trace
from ..harness import Checks, Rep, Workload
from .packet import fct_signature

FABRIC = (16, 32, 32)  # 1024 hosts
FABRIC_QUICK = (4, 8, 8)


class FluidSweep(Workload):
    name = "fluid_sweep"
    follows_host_clock = True
    rig_seed = 7
    star_load = 0.7
    fabric_load = 0.5
    # (star flows: the star_websearch cell; small and large fabric population)
    sizes = ((250, 400, 2000), (20, 100, 200))

    def cells(self, seed: int, sizes: Sequence[int]) -> Dict[str, Any]:
        """The three fluid runs of one repetition, keyed by size label,
        each as ``(result, wall seconds)``."""
        star, small, large = sizes
        fabric = FABRIC_QUICK if self.quick else FABRIC
        fabric_aqm = simulation_scheme_specs()["ECN#"]
        calls = {
            "star": lambda: fluid_runner.run_fluid_star_fct(
                testbed_scheme_specs()["ECN#"], WEB_SEARCH, self.star_load,
                star, seed),
            "ls_small": lambda: fluid_runner.run_fluid_leafspine_fct(
                fabric_aqm, WEB_SEARCH, self.fabric_load, small, seed,
                dims=fabric),
            "ls_large": lambda: fluid_runner.run_fluid_leafspine_fct(
                fabric_aqm, WEB_SEARCH, self.fabric_load, large, seed,
                dims=fabric),
        }
        done = {}
        for label, call in calls.items():
            start = perf_counter()
            result = call()
            done[label] = (result, perf_counter() - start)
        return done

    def setup(self) -> None:
        # The accuracy reference: the packet engine on the shared star cell.
        packet = runner.run_star_fct(
            testbed_scheme_specs()["ECN#"].build, WEB_SEARCH, self.star_load,
            self.sizes[self.quick][0], self.rig_seed)
        self.packet_avg_fct = packet.summary.overall_avg

    def seeded_check(self, checks: Checks) -> None:
        sizes = [max(10, n // 4) for n in self.sizes[self.quick]]
        for label, (result, _) in self.cells(
                self.rig_seed + 1 + self.seed, sizes).items():
            checks.expect(result.n_flows > 0,
                          f"seeded check: fluid {label} finished no flow")

    def body(self, checks: Checks) -> Rep:
        sizes = self.sizes[self.quick]
        done = self.cells(self.rig_seed, sizes)
        fluid_avg = done["star"][0].summary.overall_avg
        error = abs(fluid_avg - self.packet_avg_fct) / self.packet_avg_fct
        return Rep(
            signature=tuple(fct_signature(result)
                            for result, _ in done.values()),
            attempted=sum(sizes),
            failed=sum(sizes) - sum(r.n_flows for r, _ in done.values()),
            timings={label: wall for label, (_, wall) in done.items()},
            counts={"fct_err_pct": error * 100.0,
                    **{label: result.events
                       for label, (result, _) in done.items()}},
        )

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, Any]:
        return {"fluid_fct_err_pct":
                [rep.counts["fct_err_pct"] for rep in reps]}

    def per_layer(self, reps: Sequence[Rep], traced: Sequence[Rep],
                  recorder: trace.Recorder, checks: Checks) -> Dict[str, float]:
        values: Dict[str, float] = {}
        steps = wall = 0.0
        for label in ("star", "ls_small", "ls_large"):
            label_wall = statistics.median(r.timings[label] for r in reps)
            label_steps = reps[0].counts[label]
            values[f"fluid.engine.steps.{label}"] = label_steps
            values[f"fluid.engine.us_per_step.{label}"] = (
                label_wall / label_steps * 1e6)
            steps += label_steps
            wall += label_wall
        values["fluid.engine.steps_per_s"] = steps / wall
        values["fluid.population.build_ms"] = (
            recorder.layer_total("fluid.population")[1] / len(traced) / 1e6)
        return values
