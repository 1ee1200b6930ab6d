"""The comparison schemes of Section 5, with the paper's parameter choices.

Testbed configuration (Section 5.2, 3x RTT variation 70-210 us, 10 Gbps):

* DCTCP-RED-Tail: threshold 250 KB (90th-percentile RTT) -> 204.8 us sojourn
* DCTCP-RED-AVG: threshold 80 KB (average RTT) -> 65.5 us sojourn
* CoDel: interval 200 us, target 85 us
* ECN#: ins_target 200 us, pst_interval 200 us, pst_target 85 us

Microscopic / large-scale simulation configuration (Sections 5.3-5.4, 3x
variation 80-240 us): CoDel interval 240 us / target 10 us; ECN# ins_target
~220 us (the 90th-percentile RTT), pst_interval 240 us, pst_target 10 us;
TCN 150 us (Figure 13).

All schemes are expressed on the sojourn-time signal (the paper's
implementation choice); byte thresholds convert through Equation 2 at the
10 Gbps link rate.
"""

from __future__ import annotations

import inspect
import os
from typing import Any, Callable, Dict, List

from .. import settings
from ..core import Codel, EcnSharp, EcnSharpConfig, SojournRed, Tcn
from ..core.base import Aqm
from ..sim.units import gbps, kb, us
from .specs import AqmSpec

__all__ = [
    "AqmFactory",
    "AQM_BUILDERS",
    "build_aqm",
    "check_fault_directives",
    "perturbed_params",
    "bytes_to_sojourn",
    "testbed_schemes",
    "testbed_scheme_specs",
    "simulation_schemes",
    "simulation_scheme_specs",
    "SCHEME_ORDER",
]

AqmFactory = Callable[[], Aqm]

SCHEME_ORDER: List[str] = ["DCTCP-RED-Tail", "DCTCP-RED-AVG", "CoDel", "ECN#"]
"""Presentation order used by the figures."""

AQM_BUILDERS: Dict[str, Callable[..., Aqm]] = {
    "sojourn-red": lambda sojourn: SojournRed(sojourn),
    "codel": lambda target, interval: Codel(
        target_seconds=target, interval_seconds=interval
    ),
    "ecn-sharp": lambda ins_target, pst_target, pst_interval: EcnSharp(
        EcnSharpConfig(
            ins_target=ins_target,
            pst_target=pst_target,
            pst_interval=pst_interval,
        )
    ),
    "tcn": lambda threshold: Tcn(threshold),
}
"""AQM registry: name -> keyword constructor.

This is what lets a :class:`~repro.experiments.specs.AqmSpec` cross a
process boundary -- the worker rebuilds the AQM from (name, params) instead
of unpicklable closure factories.
"""


def check_fault_directives() -> None:
    """Parse ``REPRO_FAULT_INJECT`` and check each ``perturb`` directive
    against :data:`AQM_BUILDERS`: a kind that is not registered, or a
    parameter its builder does not take, raises
    :class:`~repro.settings.SettingError` naming the variable, because such
    a canary would perturb nothing.  ``cli.main`` and ``Executor.run`` call
    this before anything is simulated."""
    for fault in settings.fault_directives():
        if fault.mode != "perturb":
            continue
        builder = AQM_BUILDERS.get(fault.match)
        if builder is None:
            problem = (f"unknown AQM kind {fault.match!r} "
                       f"(available: {sorted(AQM_BUILDERS)})")
        else:
            params = list(inspect.signature(builder).parameters)
            if fault.param in params:
                continue
            problem = (f"AQM {fault.match!r} has no parameter "
                       f"{fault.param!r} (it takes {params})")
        raw = os.environ.get(settings.FAULT_INJECT, "")
        raise settings.SettingError(f"{settings.FAULT_INJECT}={raw!r}: {problem}")


def perturbed_params(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """``params`` with each ``REPRO_FAULT_INJECT`` ``perturb:<kind>:<param>:
    <factor>`` directive for ``kind`` applied: a deliberate-regression canary.

    Shared by the packet AQM constructors and the fluid marker banks so a
    canary shifts behaviour identically at both fidelities.  Spawn workers
    inherit the environment, so it reaches every cell; the spec hash (and
    thus the result cache key) is *unchanged*, which is exactly the point --
    the validation gate, not the cache, must catch the shift.  Run with
    ``--no-cache`` so perturbed results are actually simulated.
    """
    for fault in settings.fault_directives():
        if fault.mode == "perturb" and fault.match == kind and fault.param in params:
            params = {**params, fault.param: params[fault.param] * fault.factor}
    return params


def build_aqm(kind: str, params: Dict[str, Any]) -> Aqm:
    """Construct a registered AQM from its registry name and parameters."""
    try:
        builder = AQM_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown AQM kind {kind!r} (available: {sorted(AQM_BUILDERS)})"
        ) from None
    return builder(**perturbed_params(kind, params))


def bytes_to_sojourn(threshold_bytes: int, rate_bps: float = gbps(10)) -> float:
    """Equation 2: convert a queue-length threshold to sojourn time."""
    if threshold_bytes <= 0 or rate_bps <= 0:
        raise ValueError("threshold and rate must be positive")
    return threshold_bytes * 8.0 / rate_bps


def testbed_scheme_specs(rate_bps: float = gbps(10)) -> Dict[str, AqmSpec]:
    """The four Section 5.2 schemes as registry specs (testbed parameters)."""
    tail_sojourn = bytes_to_sojourn(kb(250), rate_bps)  # ~204.8 us at 10G
    avg_sojourn = bytes_to_sojourn(kb(80), rate_bps)  # ~65.5 us at 10G
    return {
        "DCTCP-RED-Tail": AqmSpec.make("sojourn-red", sojourn=tail_sojourn),
        "DCTCP-RED-AVG": AqmSpec.make("sojourn-red", sojourn=avg_sojourn),
        "CoDel": AqmSpec.make("codel", target=us(85), interval=us(200)),
        "ECN#": AqmSpec.make(
            "ecn-sharp", ins_target=us(200), pst_target=us(85), pst_interval=us(200)
        ),
    }


def simulation_scheme_specs() -> Dict[str, AqmSpec]:
    """The Section 5.3/5.4 schemes as registry specs (80-240 us band)."""
    return {
        "DCTCP-RED-Tail": AqmSpec.make("sojourn-red", sojourn=us(220)),  # p90 RTT
        "DCTCP-RED-AVG": AqmSpec.make("sojourn-red", sojourn=us(137)),  # avg RTT
        "CoDel": AqmSpec.make("codel", target=us(10), interval=us(240)),
        "ECN#": AqmSpec.make(
            "ecn-sharp", ins_target=us(220), pst_target=us(10), pst_interval=us(240)
        ),
        "TCN": AqmSpec.make("tcn", threshold=us(150)),  # Figure 13's threshold
    }


def testbed_schemes(rate_bps: float = gbps(10)) -> Dict[str, AqmFactory]:
    """The four Section 5.2 schemes with the paper's testbed parameters."""
    return {
        name: spec.build for name, spec in testbed_scheme_specs(rate_bps).items()
    }


def simulation_schemes() -> Dict[str, AqmFactory]:
    """The Section 5.3/5.4 schemes (80-240 us RTT band, 10 Gbps)."""
    return {
        name: spec.build for name, spec in simulation_scheme_specs().items()
    }
