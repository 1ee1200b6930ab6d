"""Offline checks that the validation grid is the figure modules' own grid
and still matches the checked-in baseline -- no simulation."""

from pathlib import Path

import pytest

from repro.experiments.executor import DryRunComplete, DryRunExecutor
from repro.experiments.figures import GRIDS, fig6_fig7, fig8, fig10, fig11, fig12
from repro.validation import SCALES, Baseline, build_cells

RUN = {
    "fig6": fig6_fig7.run_fig6,
    "fig7": fig6_fig7.run_fig7,
    "fig8": fig8.run_fig8,
    "fig10": fig10.run_fig10,
    "fig11": fig11.run_fig11,
    "fig12": fig12.run_fig12,
}

PAIRS = [
    (scale.name, figure)
    for scale in SCALES.values()
    for figure in scale.figures
]


def test_every_grid_figure_has_a_run_function():
    assert set(RUN) == set(GRIDS)


@pytest.mark.parametrize("scale_name,figure", PAIRS)
def test_figure_run_submits_the_validation_cells(scale_name, figure):
    scale = SCALES[scale_name]
    executor = DryRunExecutor()
    with pytest.raises(DryRunComplete):
        RUN[figure](**scale.figures[figure], executor=executor)
    expected = [
        spec
        for cell in build_cells(scale)
        if cell.group == figure
        for spec in cell.specs
    ]
    assert expected and executor.captured == expected


def test_checked_in_tiny_baseline_tokens_match_the_grid():
    path = Path(__file__).resolve().parent.parent / "baselines" / "tiny.json"
    baseline = Baseline.load(path)
    baseline.check_compatible()
    current = {
        (cell.group, cell.key): cell.tokens() for cell in build_cells("tiny")
    }
    recorded = {
        (figure, key): cell["tokens"]
        for figure, entry in baseline.figures.items()
        for key, cell in entry["cells"].items()
    }
    assert recorded == current
