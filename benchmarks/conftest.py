"""Shared fixtures for the paper-claims benchmark (and the ledger's tests).

``test_paper_claims.py`` regenerates every row of the figure table at the
figure's own (reduced) defaults -- ``REPRO_FULL=1`` adds its ``PAPER_SCALE``
keywords, as ``repro run X --full`` does -- and judges it against the claims
table.  The ``report`` fixture bypasses pytest's output capture so the
tables appear on the console, and archives them under ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import settings
from repro.experiments.executor import Executor, set_default_executor
from repro.experiments.figures import PAPER_SCALE

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> dict:
    """``{figure: run kwargs}``: empty (every figure runs its defaults)
    unless ``REPRO_FULL=1`` selects ``PAPER_SCALE``."""
    return PAPER_SCALE if settings.resolve("full") else {}


@pytest.fixture(scope="session", autouse=True)
def executor():
    """Experiment executor for the whole bench session.

    ``REPRO_JOBS=N`` parallelizes every figure's run grid; setting
    ``REPRO_CACHE_DIR`` additionally memoizes completed cells on disk so a
    re-run only re-simulates what changed (a malformed value is an error).
    Installed as the process default, so the figure modules pick it up
    without plumbing.
    """
    executor = Executor.from_env()
    previous = set_default_executor(executor)
    yield executor
    set_default_executor(previous)


@pytest.fixture
def report(capsys):
    """Print a figure's tables to the live console and archive them as
    ``results/<figure>.txt``."""

    def _report(figure: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{figure}.txt").write_text(text + "\n")

    return _report
