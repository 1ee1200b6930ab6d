"""Every table, figure and extension of the paper, regenerated and judged.

One test per row of ``experiments.figures.FIGURES``: run it at its defaults,
judge it against its rows of the claims table
(``repro.validation.invariants``), print and archive the figure's table with
the verdicts under it (``benchmarks/results/<figure>.txt`` -- the measured
side of EXPERIMENTS.md), and fail on any FAIL.  A SKIP carries its reason in
the archived table.  What each figure shows, and what the reproduction
substitutes, is EXPERIMENTS.md's subject; every bound is in the claims table.
"""

import pytest

from repro.experiments.figures import FIGURES, run_experiment
from repro.validation.invariants import evaluate_figure, render_verdicts
from repro.validation.stats import FAIL


@pytest.mark.parametrize("name", FIGURES)
def test_paper_claims(name, report, scale):
    outcome = run_experiment(name, **scale.get(name, {}))
    verdicts = evaluate_figure(name, outcome.result)
    report(name, outcome.render() + "\n\n" + render_verdicts(verdicts, "Paper claims"))
    assert not [v.detail for v in verdicts if v.status == FAIL]
