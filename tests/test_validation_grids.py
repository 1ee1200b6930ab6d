"""Offline checks on the figure table and the validation view over it: every
simulated row is well-formed, a figure run submits exactly the validation
grid's specs, one definition of a cell's metrics, and the checked-in
baseline still matches the grid -- no simulation beyond two tiny rows."""

import inspect
from pathlib import Path

import pytest

from repro.experiments.executor import Executor
from repro.experiments.figures import FIGURES, PAPER_SCALE, run_experiment
from repro.scenarios import summarize_cell
from repro.validation import SCALES, Baseline, build_cells
from repro.validation.grids import cell_samples

SIMULATED = [name for name, figure in FIGURES.items() if figure.cells is not None]

PAIRS = [
    (scale.name, figure)
    for scale in SCALES.values()
    for figure in scale.figures
]


class _Submitted(Exception):
    pass


class _RecordingExecutor(Executor):
    """Records what a figure submits, then stops the run before it simulates."""

    def run(self, specs):
        self.submitted = list(specs)
        raise _Submitted


def test_rows_without_a_spec_grid_are_run_summarize_pairs():
    by_hand = {name for name in FIGURES if name not in SIMULATED}
    assert by_hand == {"table1", "fig5", "ablation", "dcqcn"}
    for name in by_hand:
        assert FIGURES[name].run is not None and FIGURES[name].summarize is not None


@pytest.mark.parametrize("name", SIMULATED)
def test_simulated_row_is_well_formed(name):
    figure = FIGURES[name]
    grid = figure.cells()
    assert grid
    keys = [cell.key for cell in grid.values()]
    assert len(set(keys)) == len(keys) == len(grid)  # coordinates unique too
    assert {cell.group for cell in grid.values()} == {name}
    parameters = inspect.signature(figure.cells).parameters
    assert figure.seed == parameters["seed"].default
    assert {spec.seed for spec in next(iter(grid.values()))} >= {figure.seed}
    assert set(PAPER_SCALE.get(name, {})) <= set(parameters)
    assert figure.assemble is not None and figure.run is None


@pytest.mark.parametrize("scale_name,figure", PAIRS)
def test_figure_run_submits_the_validation_cells(scale_name, figure):
    """One executor pass, the validation grid's specs in its order -- which
    is why ``repro run X`` and ``repro validate run`` share cache entries."""
    scale = SCALES[scale_name]
    executor = _RecordingExecutor()
    with pytest.raises(_Submitted):
        run_experiment(figure, executor=executor, **scale.figures[figure])
    expected = [
        spec
        for cell in build_cells(scale)
        if cell.group == figure
        for spec in cell.specs
    ]
    assert expected and executor.submitted == expected


@pytest.mark.parametrize(
    "name, params",
    [
        ("fig2", {"n_flows": 8, "thresholds_kb": (50, 250)}),  # FCT: pooled seeds
        ("fig10", {"fanout": 20, "schemes": ("DCTCP-RED-Tail",)}),  # microscopic
    ],
)
def test_one_definition_of_a_cells_metrics(name, params):
    """The ``--results-out`` summariser, the campaign store's
    ``summarize_cell`` and validation's per-seed samples read one cell's
    metrics through the same extractor."""
    outcome = run_experiment(name, executor=Executor(jobs=1), **params)
    summary = outcome.summary()["cells"]
    assert list(summary) == [cell.key for cell in outcome.cells.values()]
    for cell, runs in zip(outcome.cells.values(), outcome.runs):
        pooled = summary[cell.key]
        assert pooled == summarize_cell(cell, runs)["metrics"]
        samples = cell_samples(cell, runs)
        assert set(samples) == set(pooled)
        assert all(1 <= len(values) <= len(cell) for values in samples.values())
        if len(cell) == 1:
            assert {k: v[0] for k, v in samples.items()} == pooled


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
