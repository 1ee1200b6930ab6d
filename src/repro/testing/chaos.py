"""Convergence harness for campaigns under injected crashes.

:func:`run_chaos_campaign` runs ``repro scenario run`` as a subprocess in
rounds against one store -- ``REPRO_FAULT_INJECT`` directives (usually the
counted ``kill_after`` / ``kill_before`` / ``torn_write`` / ``corrupt_cache``
modes, see :class:`repro.settings.Fault`) on the first ``chaos_rounds``
rounds, clean resumes after that -- until the campaign converges (a clean
pass that executes nothing, fails nothing, and skips every cell).  Tests
then assert the surviving store is equivalent to an uninterrupted run via
:func:`repro.scenarios.coordination.store_fingerprint`.  The directives act
at their points (``CampaignStore.append``, ``ResultCache.store``); nothing
here is imported at run time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..experiments.faults import FAULT_EXIT_CODE
from ..settings import FAULT_INJECT

__all__ = ["ChaosReport", "ChaosRound", "run_chaos_campaign"]

_SUMMARY_RE = re.compile(
    r"# campaign: cells=(\d+) executed=(\d+) skipped=(\d+) failed=(\d+)"
)


@dataclass
class ChaosRound:
    """One harness round: the writer's exit code and parsed summary."""

    chaos: str
    exit_code: int
    summary: Optional[dict]


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos_campaign` drive."""

    store: Path
    rounds: List[ChaosRound] = field(default_factory=list)
    converged: bool = False

    @property
    def kill_count(self) -> int:
        return sum(1 for r in self.rounds if r.exit_code == FAULT_EXIT_CODE)


def _parse_summary(stdout: str) -> Optional[dict]:
    match = None
    for match in _SUMMARY_RE.finditer(stdout):
        pass  # keep the last summary line
    if match is None:
        return None
    return dict(zip(("cells", "executed", "skipped", "failed"),
                    map(int, match.groups())))


def run_chaos_campaign(
    scenario_path: "Path | str",
    store: "Path | str",
    chaos: str = "kill_after:1",
    chaos_rounds: int = 1,
    max_rounds: int = 12,
    timeout: float = 180.0,
) -> ChaosReport:
    """Kill and resume one campaign until it converges.

    Each round runs ``repro scenario run`` on ``store``; rounds numbered
    below ``chaos_rounds`` carry ``REPRO_FAULT_INJECT=chaos``, later rounds
    run clean and resume what the killed ones left.  Convergence is a
    clean round that reports ``executed=0 failed=0`` with every cell
    skipped.  Returns a :class:`ChaosReport`; asserting store equivalence
    against a clean run is the caller's job (see ``store_fingerprint``).
    """
    store = Path(store)
    report = ChaosReport(store=store)
    base_env = dict(os.environ)
    base_env.pop(FAULT_INJECT, None)
    cmd = [sys.executable, "-m", "repro", "scenario", "run",
           str(scenario_path), "--store", str(store)]
    for round_index in range(max_rounds):
        inject = round_index < chaos_rounds
        env = dict(base_env)
        if inject:
            env[FAULT_INJECT] = chaos
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
        summary = _parse_summary(proc.stdout)
        report.rounds.append(
            ChaosRound(chaos if inject else "", proc.returncode, summary))
        if not inject and summary is not None and (
                summary["executed"] == summary["failed"] == 0
                and summary["skipped"] == summary["cells"]):
            report.converged = True
            break
    return report
