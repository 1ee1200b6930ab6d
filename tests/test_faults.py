"""Fault-tolerance tests: injection grammar, the executor recovery matrix
(raise / hang / worker-exit across jobs=1 and jobs=N), failure pooling,
figure gap rendering, telemetry failure records, and the CLI exit-code
contract.

All fault scenarios are driven by the deterministic ``REPRO_FAULT_INJECT``
hook, so nothing here depends on flaky timing except the hang tests, which
use a generous per-spec timeout to absorb worker spawn cost.
"""

import pytest

from repro.experiments.executor import Executor, run_grid
from repro.experiments.faults import (
    FailedCell,
    InjectedFault,
    RunFailure,
    gather_failures,
    is_failure,
    maybe_inject_fault,
)
from repro.experiments.fct import FctCollector, FlowRecord
from repro.experiments.report import format_failure_table
from repro.experiments.runner import ExperimentResult, pool_results
from repro.experiments.specs import AqmSpec, RunSpec, seed_specs
from repro.settings import Fault, SettingError, fault_directives
from repro.sim.units import us
from repro.workloads import WEB_SEARCH

from test_executor import result_fingerprint, tiny_spec

# Must absorb worker spawn + numpy import before the spec starts; the
# innocent specs still finish inside it (test_no_worker_outlives_run[hang]
# has used the same budget all along).
HANG_TIMEOUT = 3.0


def grid_specs(n=4, label="RED-Tail"):
    """A small grid of independent star cells, seeds 3..3+n-1."""
    return [tiny_spec(seed=3 + offset, label=label) for offset in range(n)]


def inject(monkeypatch, directive):
    monkeypatch.setenv("REPRO_FAULT_INJECT", directive)


class TestDirectiveParsing:
    def test_empty_and_missing(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        assert fault_directives() == ()
        for text in ("", " ; ; "):
            inject(monkeypatch, text)
            assert fault_directives() == ()

    def test_grammar(self, monkeypatch):
        inject(monkeypatch, "raise:ECN#")
        assert fault_directives() == (Fault("raise", "ECN#", None),)
        inject(monkeypatch, "hang:seed=3|;exit:TCN:2")
        assert fault_directives() == (
            Fault("hang", "seed=3|", None),
            Fault("exit", "TCN", 2),
        )
        # Empty substring matches everything.
        inject(monkeypatch, "raise")
        assert fault_directives() == (Fault("raise", "", None),)

    def test_unknown_action_raises_naming_the_variable(self, monkeypatch):
        inject(monkeypatch, "explode:ECN#")
        with pytest.raises(SettingError,
                           match="REPRO_FAULT_INJECT=.*unknown mode 'explode'"):
            maybe_inject_fault(tiny_spec(), attempt=0)

    def test_bad_max_attempt_raises_naming_the_variable(self, monkeypatch):
        inject(monkeypatch, "raise:ECN#:soon")
        with pytest.raises(SettingError,
                           match="REPRO_FAULT_INJECT=.*not a valid int"):
            maybe_inject_fault(tiny_spec(), attempt=0)

    def test_malformed_directive_fails_the_grid_before_any_cell(self, monkeypatch):
        inject(monkeypatch, "raise:ECN#:soon")
        executor = Executor(jobs=1, retries=1)
        with pytest.raises(SettingError, match="REPRO_FAULT_INJECT="):
            executor.run([tiny_spec()])
        assert (executor.stats.executed, executor.failures) == (0, [])

    def test_other_modes_never_fire_at_execute_spec(self, monkeypatch):
        inject(monkeypatch, "kill_before:1;corrupt_cache;"
                            "perturb:ecn-sharp:pst_target:2")
        maybe_inject_fault(tiny_spec(), attempt=0)  # must not raise

    def test_injection_is_a_noop_without_directives(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        maybe_inject_fault(tiny_spec(), attempt=0)  # must not raise

    def test_substring_targets_one_spec(self, monkeypatch):
        inject(monkeypatch, "raise:seed=4|")
        maybe_inject_fault(tiny_spec(seed=3), attempt=0)
        with pytest.raises(InjectedFault):
            maybe_inject_fault(tiny_spec(seed=4), attempt=0)

    def test_max_attempt_bounds_firing(self, monkeypatch):
        inject(monkeypatch, "raise:seed=3|:2")
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                maybe_inject_fault(tiny_spec(seed=3), attempt=attempt)
        maybe_inject_fault(tiny_spec(seed=3), attempt=2)  # fault exhausted

    def test_exit_in_main_process_raises_instead(self, monkeypatch):
        # os._exit in the parent would kill the test run; the hook must
        # degrade to an exception outside worker processes.
        inject(monkeypatch, "exit:seed=3|")
        with pytest.raises(InjectedFault, match="worker-exit"):
            maybe_inject_fault(tiny_spec(seed=3), attempt=0)


class TestRunFailureRecord:
    def test_from_exception_is_picklable_and_typed(self):
        import pickle

        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = RunFailure.from_exception(tiny_spec(), exc, attempts=2)
        assert failure.kind == "exception"
        assert failure.exc_type == "ValueError"
        assert failure.message == "boom"
        assert "ValueError: boom" in failure.traceback
        assert failure.attempts == 2
        assert pickle.loads(pickle.dumps(failure)) == failure

    def test_stall_kind(self):
        from repro.sim.engine import SimulationStalled

        stall = SimulationStalled(clock=0.5, events=100, pending=3)
        failure = RunFailure.from_exception(tiny_spec(), stall, attempts=1)
        assert failure.kind == "stall"

    def test_to_dict_and_summary_line(self):
        failure = RunFailure.timeout(tiny_spec(seed=3), 5.0, attempts=1)
        data = failure.to_dict()
        assert data["kind"] == "timeout"
        assert data["seed"] == 3
        assert "traceback" not in data  # headline only; full text on record
        assert "timeout" in failure.summary_line()

    def test_format_failure_table(self):
        failure = RunFailure.timeout(tiny_spec(seed=3), 5.0, attempts=2)
        table = format_failure_table([failure])
        assert failure.spec_key in table
        assert "timeout" in table


class TestInProcessRecovery:
    def test_raise_isolates_one_cell(self, monkeypatch):
        inject(monkeypatch, "raise:seed=4|")
        executor = Executor(jobs=1, retries=1)
        results = executor.run(grid_specs(4))
        kinds = [type(r).__name__ for r in results]
        assert kinds == [
            "ExperimentResult", "RunFailure", "ExperimentResult",
            "ExperimentResult",
        ]
        assert results[1].kind == "exception"
        assert results[1].attempts == 2  # initial try + 1 retry
        assert executor.failures == [results[1]]
        assert executor.stats.failed == 1
        assert executor.stats.retried == 1

    def test_retry_then_succeed(self, monkeypatch):
        inject(monkeypatch, "raise:seed=3|:1")  # fails attempt 0 only
        executor = Executor(jobs=1, retries=1)
        results = executor.run([tiny_spec(seed=3)])
        assert not is_failure(results[0])
        assert executor.stats.failed == 0
        assert executor.stats.retried == 1

    def test_zero_retries_fails_after_one_attempt(self, monkeypatch):
        inject(monkeypatch, "raise:seed=3|")
        executor = Executor(jobs=1, retries=0)
        failure = executor.run([tiny_spec(seed=3)])[0]
        assert is_failure(failure)
        assert failure.attempts == 1
        assert executor.stats.retried == 0

    def test_survivors_bit_identical_to_clean_run(self, monkeypatch):
        specs = grid_specs(4)
        clean = [result_fingerprint(r) for r in Executor(jobs=1).run(specs)]

        inject(monkeypatch, "raise:seed=5|")
        damaged = Executor(jobs=1, retries=0).run(specs)
        for index, result in enumerate(damaged):
            if index == 2:  # seed 5
                assert is_failure(result)
            else:
                assert result_fingerprint(result) == clean[index]

    def test_failures_are_never_cached(self, monkeypatch, tmp_path):
        spec = tiny_spec(seed=3)
        inject(monkeypatch, "raise:seed=3|")
        executor = Executor(jobs=1, retries=0, cache=True, cache_dir=tmp_path)
        assert is_failure(executor.run([spec])[0])
        # Fault cleared: the spec must re-execute, not replay the failure.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        result = executor.run([spec])[0]
        assert not is_failure(result)
        assert executor.stats.cache_hits == 0


class TestPoolRecovery:
    def test_raise_in_worker_isolates_one_cell(self, monkeypatch):
        specs = grid_specs(4)
        clean = [result_fingerprint(r) for r in Executor(jobs=1).run(specs)]

        inject(monkeypatch, "raise:seed=4|")
        executor = Executor(jobs=4, retries=1)
        results = executor.run(specs)
        assert is_failure(results[1])
        assert results[1].kind == "exception"
        assert results[1].attempts == 2
        for index in (0, 2, 3):
            assert result_fingerprint(results[index]) == clean[index]
        assert executor.stats.failed == 1

    def test_worker_exit_rebuilds_pool_and_completes_grid(self, monkeypatch):
        specs = grid_specs(4)
        clean = [result_fingerprint(r) for r in Executor(jobs=1).run(specs)]

        inject(monkeypatch, "exit:seed=4|")
        executor = Executor(jobs=2, retries=1)
        results = executor.run(specs)
        # The dying worker breaks the pool; the executor must rebuild it,
        # requeue the innocent in-flight specs, and (after retries) give
        # the poisoned spec an in-process attempt -- where the directive
        # raises instead of exiting, producing a recorded failure.
        assert is_failure(results[1])
        assert executor.stats.pool_rebuilds >= 1
        for index in (0, 2, 3):
            assert result_fingerprint(results[index]) == clean[index]

    def test_worker_exit_fault_cleared_by_attempt_bound_recovers(
        self, monkeypatch
    ):
        # Worker dies on attempt 0 only: the BrokenProcessPool retry must
        # bring the cell back clean with no recorded failure.
        specs = grid_specs(4)
        inject(monkeypatch, "exit:seed=4|:1")
        executor = Executor(jobs=2, retries=1)
        results = executor.run(specs)
        assert not any(is_failure(r) for r in results)
        assert executor.stats.failed == 0
        assert executor.stats.pool_rebuilds >= 1

    def test_hang_with_timeout_marks_failure_and_grid_survives(
        self, monkeypatch
    ):
        specs = grid_specs(4)
        clean = [result_fingerprint(r) for r in Executor(jobs=1).run(specs)]

        inject(monkeypatch, "hang:seed=6|")
        executor = Executor(jobs=2, retries=1, spec_timeout=HANG_TIMEOUT)
        results = executor.run(specs)
        assert is_failure(results[3])
        assert results[3].kind == "timeout"
        assert executor.stats.timeouts == 1
        for index in (0, 1, 2):
            assert result_fingerprint(results[index]) == clean[index]

    def test_spec_timeout_forces_pool_even_at_jobs_1(self, monkeypatch):
        inject(monkeypatch, "hang:seed=3|")
        executor = Executor(jobs=1, retries=0, spec_timeout=HANG_TIMEOUT)
        results = executor.run([tiny_spec(seed=3), tiny_spec(seed=4)])
        assert is_failure(results[0])
        assert results[0].kind == "timeout"
        assert not is_failure(results[1])


    @pytest.mark.parametrize(
        "directive, settings",
        [
            (None, {}),
            ("raise:seed=4|", {"retries": 0}),
            ("exit:seed=4|", {"retries": 0}),
            ("hang:seed=4|", {"retries": 0, "spec_timeout": 3.0}),
        ],
        ids=["clean", "raise", "exit", "hang"],
    )
    def test_no_worker_outlives_run(self, monkeypatch, directive, settings):
        """``Executor.run`` returns with its pool's workers reaped on every
        path: settled futures (clean, raise), a broken pool (exit) and
        killed hung workers (hang).  Before this held, the clean path left
        both workers alive for a moment after ``run`` returned and the hang
        path one killed-but-unreaped child; neither lingered past half a
        second, so the executor is not the source of the long-lived orphan
        workers noted in benchmarks/ledger/README.md."""
        import multiprocessing

        if directive:
            inject(monkeypatch, directive)
        results = Executor(jobs=2, **settings).run(grid_specs(3))
        assert multiprocessing.active_children() == []
        assert is_failure(results[1]) == bool(directive)


class TestFailurePooling:
    def _mixed_results(self, monkeypatch):
        specs = seed_specs(tiny_spec(seed=3), 3)
        inject(monkeypatch, "raise:seed=4|")
        return Executor(jobs=1, retries=0).run(specs)

    def test_pool_results_pools_around_failures(self, monkeypatch):
        results = self._mixed_results(monkeypatch)
        survivors = [r for r in results if not is_failure(r)]
        pooled = pool_results(results)
        assert not is_failure(pooled)
        assert len(pooled.failures) == 1
        assert pooled.failures[0].seed == 4
        # Survivor-only pooling is exactly what a clean 2-seed pool gives.
        assert result_fingerprint(pooled) == result_fingerprint(
            pool_results(survivors)
        )

    def test_all_failed_cell_degrades_to_failed_cell(self, monkeypatch):
        inject(monkeypatch, "raise:star|")  # every star spec
        results = Executor(jobs=1, retries=0).run(seed_specs(tiny_spec(), 2))
        cell = pool_results(results)
        assert isinstance(cell, FailedCell)
        assert is_failure(cell)
        assert len(cell.failures) == 2
        # The duck-typed surface the figure modules consume.
        assert cell.n_flows == 0
        assert cell.summary.overall_avg is None
        assert cell.marks == 0 and cell.drops == 0

    def test_gather_failures_flattens_all_shapes(self, monkeypatch):
        results = self._mixed_results(monkeypatch)
        pooled = pool_results(results)
        failed_cell = FailedCell([RunFailure.timeout(tiny_spec(), 1.0, 1)])
        flat = gather_failures([pooled, failed_cell, *results])
        assert len(flat) == 3  # pooled's one + cell's one + raw one

    def test_run_grid_carries_failures_per_cell(self, monkeypatch):
        inject(monkeypatch, "raise:seed=4|")
        cells = [
            seed_specs(tiny_spec(seed=3), 2),   # loses seed 4
            seed_specs(tiny_spec(seed=9), 1),   # untouched
        ]
        pooled = run_grid(cells, Executor(jobs=1, retries=0))
        assert len(pooled[0].failures) == 1
        assert pooled[1].failures == []


class TestFigureGapRendering:
    def test_fig10_renders_gap_for_failed_scheme(self):
        from repro.experiments.figures import fig10

        failure = RunFailure.timeout(tiny_spec(label="CoDel"), 5.0, 1)
        good = fig10.MicroscopicRun(
            scheme="ECN#", samples=([], []), standing_queue_pkts=8.0,
            floor_queue_pkts=7.5, peak_queue_pkts=90, drops=0, marks=10,
        )
        result = fig10.Fig10Result(
            runs={"ECN#": good, "CoDel": failure}, fanout=100, burst_time=0.02
        )
        rendered = fig10.render(result)
        assert "(timeout)" in rendered
        assert "8.0" in rendered  # the surviving scheme still prints

    def test_fig11_accessors_treat_failures_as_gaps(self):
        from repro.experiments.figures import fig11

        failure = RunFailure.timeout(tiny_spec(label="CoDel"), 5.0, 1)
        good = __import__(
            "repro.experiments.figures.fig10", fromlist=["MicroscopicRun"]
        ).MicroscopicRun(
            scheme="ECN#", samples=([], []), standing_queue_pkts=8.0,
            floor_queue_pkts=7.5, peak_queue_pkts=90, drops=3, marks=10,
            query_fcts=[0.001, 0.002],
        )
        result = fig11.Fig11Result(
            fanouts=(100,),
            schemes=("ECN#", "CoDel"),
            runs={100: {"ECN#": good, "CoDel": failure}},
        )
        assert result.avg_query_fct(100, "CoDel") is None
        assert result.p99_query_fct(100, "CoDel") is None
        assert result.first_loss_fanout("CoDel") is None
        assert result.first_loss_fanout("ECN#") == 100
        rendered = fig11.render(result)
        assert "(timeout)" in rendered

    def test_fig13_ratio_none_when_either_side_failed(self):
        from repro.experiments.figures import fig13

        good = fig13.SchedulerRun(
            scheme="ECN#",
            goodputs=[
                [9.6e9, 0.0, 0.0],
                [6.4e9, 3.2e9, 0.0],
                [4.8e9, 2.4e9, 2.4e9],
            ],
            probe_fcts=[0.001],
        )
        failure = RunFailure.timeout(tiny_spec(label="TCN"), 5.0, 1)
        result = fig13.Fig13Result(runs={"ECN#": good, "TCN": failure})
        assert result.probe_fct_ratio() is None
        rendered = fig13.render(result)
        assert "(timeout)" in rendered
        assert "ratio: -" in rendered


    @pytest.mark.parametrize(
        "targets_us, dead_workload",
        [((6.0,), None), ((6.0, 18.0), "data-mining")],
        ids=["one-value-target-sweep", "every-cell-of-a-workload-failed"],
    )
    def test_fig12_renders_short_sweeps_and_dead_workloads(
        self, targets_us, dead_workload
    ):
        from repro.experiments.figures import fig12

        failure = RunFailure.timeout(tiny_spec(label="ECN#"), 5.0, 1)
        collector = FctCollector()
        collector.records.append(FlowRecord(1, 1000, 1e-3, 0.0, 0, 0))
        good = ExperimentResult(
            summary=collector.summary(), collector=collector, marks=0,
            instant_marks=0, persistent_marks=0, drops=0, timeouts=0,
            sim_duration=0.1, events=1,
        )
        grid = fig12.cells(
            n_flows_web=5, n_flows_mining=5, intervals_us=(100.0, 250.0),
            targets_us=targets_us, n_seeds=1,
        )
        runs = [
            [failure if workload == dead_workload else good]
            for workload, _panel, _value in grid
        ]
        result = fig12.assemble(grid, runs)
        rendered = fig12.render(result)
        assert "pst_target=6us" in rendered
        assert "web-search interval spread=0.0% target spread=0.0%" in rendered
        if dead_workload:
            assert f"{dead_workload} interval spread=- target spread=-" in rendered
            assert result.target_spread(dead_workload) is None


class TestTelemetryFailures:
    def test_failures_reach_counters_recorder_and_snapshot(self, monkeypatch):
        from repro.telemetry import Telemetry, activate

        inject(monkeypatch, "raise:seed=4|")
        telemetry = Telemetry(trace_categories=["failure"], metrics=True)
        with activate(telemetry):
            executor = Executor(jobs=1, retries=0)
            executor.run(grid_specs(3))
        assert len(telemetry.failures) == 1
        assert telemetry.failures[0].kind == "exception"

        snapshot = telemetry.snapshot()
        assert snapshot["failures"][0]["seed"] == 4
        counters = {
            name: value
            for name, value in snapshot["metrics"]["counters"].items()
            if "run_failures_total" in name
        }
        assert sum(counters.values()) == 1

        events = telemetry.recorder.events("failure")
        assert len(events) == 1
        assert events[0].kind == "exception"
        assert events[0].fields["spec"] == telemetry.failures[0].spec_key


class TestStalledRunBecomesFailure:
    def test_drain_stall_is_recorded_as_stall_failure(self, monkeypatch):
        # Starve the drain budget so the run cannot reach idle: the engine
        # raises SimulationStalled and the executor records kind="stall".
        from repro.experiments import runner

        monkeypatch.setattr(runner, "MAX_EVENTS_PER_RUN", 50)
        executor = Executor(jobs=1, retries=0)
        failure = executor.run([tiny_spec(seed=3)])[0]
        assert is_failure(failure)
        assert failure.kind == "stall"
        assert failure.exc_type == "SimulationStalled"
        assert "pending" in failure.message or "events" in failure.message


class TestCliFailureContract:
    @pytest.fixture
    def tiny_fig2(self, monkeypatch):
        """Shrink ``repro run fig2 --full`` to 5 thresholds x 2 seeds of 8
        flows through the figure's scale table."""
        from repro.experiments.figures import PAPER_SCALE

        monkeypatch.setitem(PAPER_SCALE, "fig2", {"n_flows": 8, "n_seeds": 2})

    def test_partial_failure_prints_table_and_exits_zero(
        self, monkeypatch, capsys, tiny_fig2
    ):
        from repro.cli import main

        inject(monkeypatch, "raise:seed=8|")
        argv = ["run", "fig2", "--full", "--no-cache", "--retries", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run(s) failed" in out
        assert "failed=5" in out  # one seed of each of 5 threshold cells
        assert "Figure 2" in out  # the figure still rendered

    def test_total_failure_exits_nonzero(self, monkeypatch, capsys, tiny_fig2):
        from repro.cli import main

        inject(monkeypatch, "raise:star|")
        argv = ["run", "fig2", "--full", "--no-cache", "--retries", "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "no usable results" in captured.err
        assert "run(s) failed" in captured.out

    def test_retry_and_timeout_flags_reach_executor(self, monkeypatch):
        import repro.cli as cli_module

        captured = {}

        class Spy(cli_module.Executor):
            def __init__(self, **kwargs):
                captured.update(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(cli_module, "Executor", Spy)
        cli_module.main(["run", "fig5", "--retries", "2", "--spec-timeout", "30"])
        assert captured["retries"] == 2
        assert captured["spec_timeout"] == 30.0
