"""Convergence harness for shared campaigns under injected crashes.

:func:`run_chaos_campaign` spawns ``repro scenario run --shared`` worker
subprocesses in rounds -- ``REPRO_FAULT_INJECT`` directives (usually the
counted ``kill_after`` / ``kill_before`` / ``torn_write`` / ``corrupt_cache``
modes, see :class:`repro.settings.Fault`) applied to the first
``chaos_rounds`` rounds, clean reruns after that -- until the campaign
converges (a clean pass that executes nothing, fails nothing, and skips
every cell).  Tests then assert the surviving store is equivalent to an
uninterrupted single-writer run via
:func:`repro.scenarios.coordination.store_fingerprint`.  The directives act
at their points (``CampaignStore.append``, ``ResultCache.store``); nothing
here is imported at run time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from ..experiments.faults import FAULT_EXIT_CODE
from ..settings import FAULT_INJECT

__all__ = ["ChaosReport", "ChaosRound", "run_chaos_campaign"]

_SUMMARY_RE = re.compile(
    r"# campaign: cells=(\d+) executed=(\d+) skipped=(\d+) failed=(\d+)"
)


@dataclass
class ChaosRound:
    """One harness round: the exit code and parsed summary per writer."""

    chaos: str
    exit_codes: List[int] = field(default_factory=list)
    summaries: List[Optional[dict]] = field(default_factory=list)


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos_campaign` drive."""

    store: Path
    rounds: List[ChaosRound] = field(default_factory=list)
    converged: bool = False

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def kill_count(self) -> int:
        return sum(
            1
            for r in self.rounds
            for code in r.exit_codes
            if code == FAULT_EXIT_CODE
        )


def _parse_summary(stdout: str) -> Optional[dict]:
    match = None
    for match in _SUMMARY_RE.finditer(stdout):
        pass  # keep the last summary line
    if match is None:
        return None
    cells, executed, skipped, failed = (int(g) for g in match.groups())
    return {
        "cells": cells,
        "executed": executed,
        "skipped": skipped,
        "failed": failed,
        "reclaimed": sum(
            int(m) for m in re.findall(r"reclaimed=(\d+)", stdout)
        ),
    }


def _wait_for_claim(
    proc: "subprocess.Popen",
    leases_path: Path,
    size_before: int,
    deadline: float = 10.0,
) -> None:
    """Block until a chaos-armed writer has claimed its first shard (the
    lease ledger grew) or exited.  Without this, a fast clean peer can
    finish the whole campaign before the armed writer reaches its
    injection point, making the round vacuously chaos-free."""
    until = time.monotonic() + deadline
    while time.monotonic() < until:
        if proc.poll() is not None:
            return
        try:
            if leases_path.stat().st_size > size_before:
                return
        except OSError:
            pass
        time.sleep(0.02)


def run_chaos_campaign(
    scenario_path: "Path | str",
    store: "Path | str",
    chaos: str = "kill_after:1",
    writers: int = 1,
    chaos_rounds: int = 1,
    max_rounds: int = 12,
    lease_ttl: float = 0.5,
    lock_timeout: float = 20.0,
    cache_dir: "Path | str | None" = None,
    extra_args: Sequence[str] = (),
    timeout: float = 180.0,
) -> ChaosReport:
    """Drive a shared campaign under chaos until it converges.

    Each round launches ``writers`` concurrent ``repro scenario run
    --shared`` subprocesses against the same ``store``; rounds numbered
    below ``chaos_rounds`` carry ``REPRO_FAULT_INJECT=chaos`` (per-writer: only
    the *first* writer of a round gets the chaos environment, so at least
    one writer per round can make untainted progress; peers are held back
    until the armed writer has claimed its first shard, so the injection
    point is guaranteed to be reached), later rounds run clean.  Convergence is a clean round in which some writer reports
    ``executed=0 failed=0`` with every cell skipped.  Returns a
    :class:`ChaosReport`; asserting store equivalence against a clean run
    is the caller's job (see ``store_fingerprint``).
    """
    store = Path(store)
    report = ChaosReport(store=store)
    base_env = dict(os.environ)
    base_env.pop(FAULT_INJECT, None)
    if cache_dir is not None:
        base_env["REPRO_CACHE_DIR"] = str(cache_dir)
    leases_path = store.with_name(store.stem + ".leases.jsonl")
    for round_index in range(max_rounds):
        inject = round_index < chaos_rounds
        round_report = ChaosRound(chaos=chaos if inject else "")
        try:
            leases_size = leases_path.stat().st_size
        except OSError:
            leases_size = 0
        procs = []
        for writer_index in range(writers):
            env = dict(base_env)
            if inject and writer_index == 0:
                env[FAULT_INJECT] = chaos
            cmd = [
                sys.executable,
                "-m",
                "repro",
                "scenario",
                "run",
                str(scenario_path),
                "--store",
                str(store),
                "--shared",
                "--worker-id",
                f"chaos-r{round_index}-w{writer_index}",
                "--lease-ttl",
                str(lease_ttl),
                "--lock-timeout",
                str(lock_timeout),
                *extra_args,
            ]
            procs.append(
                subprocess.Popen(
                    cmd,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
            )
            if inject and writer_index == 0 and writers > 1:
                _wait_for_claim(procs[0], leases_path, leases_size)
        outputs = []
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                proc.kill()
                out, _ = proc.communicate()
            outputs.append(out or "")
            round_report.exit_codes.append(proc.returncode)
        round_report.summaries = [_parse_summary(out) for out in outputs]
        report.rounds.append(round_report)
        if not inject:
            for summary in round_report.summaries:
                if (
                    summary is not None
                    and summary["executed"] == 0
                    and summary["failed"] == 0
                    and summary["skipped"] == summary["cells"]
                ):
                    report.converged = True
                    return report
        # Give dangling leases from a killed writer time to expire before
        # the next round tries to reclaim them.
        time.sleep(lease_ttl)
    return report
