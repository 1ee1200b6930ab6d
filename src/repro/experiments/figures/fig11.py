"""Figure 11: query FCT vs incast fanout (25-200 concurrent senders).

Reuses the Figure 10 rig across a fanout sweep and reports average / 99th
percentile query completion time per scheme.  The paper's shape: CoDel
degrades sharply once ~100 concurrent senders overflow the buffer (packet
loss -> min-RTO timeouts), while ECN# tracks DCTCP-RED-Tail and only starts
suffering at ~175 senders -- a 1.75x burst-tolerance advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import is_failure
from ..report import fmt_opt, format_table
from ..schemes import simulation_scheme_specs
from ..specs import Cell, RunSpec
from .fig10 import MicroscopicRun

__all__ = [
    "Fig11Result",
    "cells",
    "assemble",
    "derived",
    "render",
    "DEFAULT_FANOUTS",
]

DEFAULT_FANOUTS: Tuple[int, ...] = (25, 50, 100, 150, 175, 200)
DEFAULT_SCHEMES: Tuple[str, ...] = ("DCTCP-RED-Tail", "CoDel", "ECN#")


@dataclass
class Fig11Result:
    fanouts: Tuple[int, ...]
    schemes: Tuple[str, ...]
    runs: Dict[int, Dict[str, MicroscopicRun]]

    def avg_query_fct(self, fanout: int, scheme: str) -> Optional[float]:
        run = self.runs[fanout][scheme]
        if is_failure(run):
            return None
        fcts = run.query_fcts
        return float(np.mean(fcts)) if fcts else None

    def p99_query_fct(self, fanout: int, scheme: str) -> Optional[float]:
        run = self.runs[fanout][scheme]
        if is_failure(run):
            return None
        fcts = run.query_fcts
        return float(np.percentile(fcts, 99)) if fcts else None

    def first_loss_fanout(self, scheme: str) -> Optional[int]:
        """Smallest fanout at which the scheme drops packets or a query
        times out (failed cells cannot attest either way, so they are
        skipped)."""
        for fanout in self.fanouts:
            run = self.runs[fanout][scheme]
            if not is_failure(run) and (run.drops > 0 or run.query_timeouts > 0):
                return fanout
        return None


def cells(
    fanouts: Tuple[int, ...] = DEFAULT_FANOUTS,
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES,
    seed: int = 61,
) -> Dict[Tuple[int, str], Cell]:
    """One single-run cell per ``(fanout, scheme)`` coordinate."""
    scheme_specs = simulation_scheme_specs()
    return {
        (fanout, name): Cell.single(
            "fig11",
            f"fanout={fanout}|scheme={name}",
            RunSpec.microscopic(
                scheme_specs[name], seed=seed, label=name, fanout=fanout
            ),
        )
        for fanout in fanouts
        for name in schemes
    }


def assemble(
    cells: Dict[Tuple[int, str], Cell], runs: Sequence[Sequence[Any]]
) -> Fig11Result:
    by_fanout: Dict[int, Dict[str, MicroscopicRun]] = {}
    for ((fanout, name), cell), cell_runs in zip(cells.items(), runs):
        by_fanout.setdefault(fanout, {})[name] = cell.pool(cell_runs)
    return Fig11Result(
        fanouts=tuple(by_fanout),
        schemes=tuple(dict.fromkeys(name for _, name in cells)),
        runs=by_fanout,
    )


def derived(result: Fig11Result) -> Dict[str, float]:
    """Each scheme's loss onset (``inf``: clean through the sweep), ECN#'s
    drops and its query FCT over RED-Tail's at the fanout where CoDel first
    loses, and the smallest last-over-first-fanout FCT ratio of any scheme."""
    numbers = {}
    for scheme in result.schemes:
        onset = result.first_loss_fanout(scheme)
        numbers[f"first_loss_fanout|scheme={scheme}"] = (
            math.inf if onset is None else float(onset)
        )
    at = result.first_loss_fanout("CoDel") if "CoDel" in result.schemes else None
    if at is not None and {"ECN#", "DCTCP-RED-Tail"} <= set(result.schemes):
        sharp = result.runs[at]["ECN#"]
        if not is_failure(sharp):
            numbers["ecn_sharp_drops_at_codel_onset"] = float(sharp.drops)
        mine = result.avg_query_fct(at, "ECN#")
        theirs = result.avg_query_fct(at, "DCTCP-RED-Tail")
        if mine is not None and theirs:
            numbers["ecn_sharp_fct_vs_red_tail_at_codel_onset"] = mine / theirs
    growth = []
    for scheme in result.schemes:
        first = result.avg_query_fct(min(result.fanouts), scheme)
        last = result.avg_query_fct(max(result.fanouts), scheme)
        if first and last is not None:
            growth.append(last / first)
    if len(growth) == len(result.schemes) and len(result.fanouts) > 1:
        numbers["min_fct_growth"] = min(growth)
    return numbers


def render(result: Fig11Result) -> str:
    """Render the query-FCT-vs-fanout table plus loss onsets."""
    rows: List[List[str]] = []
    for fanout in result.fanouts:
        for scheme in result.schemes:
            run = result.runs[fanout][scheme]
            if is_failure(run):
                kind = getattr(run, "kind", "failed")
                rows.append([str(fanout), scheme, "-", "-", "-", f"({kind})"])
                continue
            avg = result.avg_query_fct(fanout, scheme)
            p99 = result.p99_query_fct(fanout, scheme)
            rows.append(
                [
                    str(fanout),
                    scheme,
                    fmt_opt(avg * 1e3 if avg is not None else None, ".2f"),
                    fmt_opt(p99 * 1e3 if p99 is not None else None, ".2f"),
                    str(run.query_timeouts),
                    str(run.drops),
                ]
            )
    table = format_table(
        ["fanout", "scheme", "avg FCT (ms)", "p99 FCT (ms)", "timeouts", "drops"],
        rows,
        title="Figure 11: query completion time vs fanout",
    )
    onset = {
        scheme: result.first_loss_fanout(scheme) for scheme in result.schemes
    }
    onset_line = ", ".join(
        f"{scheme}: first loss at fanout {fanout if fanout is not None else '>max'}"
        for scheme, fanout in onset.items()
    )
    return f"{table}\n{onset_line}"
