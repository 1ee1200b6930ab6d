"""Tests of the perf ledger itself (not tier-1: run them with
``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q``, ~1 min).

They check the instrument, never a speed: the names the benchmark promises
are the names it prints, span arithmetic is right, tracing leaves no shim
behind, and the simulated counts of a ``--quick`` pass repeat exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER.parent))

from ledger import compare, metrics, trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_quick(workload: str, traced: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--seed", "3", "--quick", "--trace", str(traced)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_passes() -> dict:
    """Every workload once untraced and twice traced, at --quick size."""
    return {
        workload: (run_quick(workload, 0), run_quick(workload, 1),
                   run_quick(workload, 1))
        for workload in metrics.WORKLOADS
    }


# ----------------------------------------------------------- the contract


def test_benchmark_json_respects_the_driver_limits():
    spec = SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    # Beside the time box a run spends up to 11 s (fluid_sweep: set-up x3,
    # warm-up, the last repetition's overshoot, the seeded check).
    budget = (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 11)
    assert budget <= 3420, "all driver runs must fit the driver's time cap"


def test_every_promised_name_is_emitted_with_its_unit(quick_passes):
    spec = SPEC
    end_to_end = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    per_layer = {e["name"]: e["unit"] for e in spec["per_layer"]}
    for workload, (untraced, traced, _) in quick_passes.items():
        for line, promised in ((untraced, end_to_end), (traced, per_layer)):
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0, workload
            assert line["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in line["metrics"].items()}
            assert emitted == promised, workload
        assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_quick_passes_repeat_their_counts_exactly(quick_passes):
    counts = [name for name, unit in metrics.PER_LAYER.items()
              if unit == "count"]
    for workload, (_, first, second) in quick_passes.items():
        for name in counts:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), (workload, name)


def test_each_workload_enters_its_own_layers(quick_passes):
    def value(workload, name):
        return quick_passes[workload][1]["metrics"][name]["value"]

    for workload in ("star_websearch", "leafspine_datamining",
                     "incast_burst"):
        assert value(workload, "sim.eventq.events") > 0
        assert value(workload, "sim.port.sends") > 0
        assert value(workload, "fluid.engine.steps.star") == 0
        assert value(workload, "trace.overhead_ratio") > 1
    assert value("fluid_sweep", "fluid.engine.steps.ls_large") > 0
    assert value("fluid_sweep", "sim.port.sends") == 0
    assert value("campaign_replay", "experiments.executor.cache_hits") > 0
    assert value("campaign_replay", "experiments.executor.cache_misses") == 0
    assert value("campaign_replay", "sim.eventq.events") == 0
    assert value("service_query", "service.cache.hits") > 0
    assert value("service_query", "sim.eventq.events") == 0


def test_bare_directory_is_refused(tmp_path):
    """Without the simulator's sources there is nothing to measure."""
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for path in LEDGER.rglob("*.py"):
        if ".work" in path.parts:
            continue
        copy = target / path.relative_to(LEDGER)
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "star_websearch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# ------------------------------------------------------------ the tracer


def test_self_time_is_inclusive_minus_children(monkeypatch):
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(trace, "perf_counter_ns", lambda: next(ticks))
    recorder = trace.Recorder("hand-built")

    def leaf():
        return None

    leaf = recorder.wrap(leaf, "leaf", "layer.leaf")

    def middle():
        leaf()
        leaf()

    middle = recorder.wrap(middle, "middle", "layer.middle")

    def root():
        middle()
        leaf()

    recorder.wrap(root, "root", "layer.root")()

    # Clock reads, in order: root 0; middle 10; leaf 20-30, leaf 40-50;
    # middle closes 60; leaf 70-80; root closes 90.
    assert recorder.aggregates[("leaf", "middle")] == [2, 20, 20]
    assert recorder.aggregates[("leaf", "root")] == [1, 10, 10]
    assert recorder.aggregates[("middle", "root")] == [1, 50, 30]
    assert recorder.aggregates[("root", trace.ROOT)] == [1, 90, 30]
    assert recorder.total("leaf") == (3, 30, 30)
    assert recorder.layer_total("layer.middle") == (1, 50, 30)
    # Self times partition the root's inclusive time.
    assert sum(agg[2] for agg in recorder.aggregates.values()) == 90
    by_id = {span[0]: span for span in recorder.spans}
    assert [by_id[i][1] for i in range(5)] == [
        "root", "middle", "leaf", "leaf", "leaf"]
    assert [by_id[i][4] for i in range(5)] == [-1, 0, 1, 1, 0]


def test_raw_spans_are_capped_but_aggregates_are_not(monkeypatch):
    monkeypatch.setattr(trace, "RAW_SPAN_CAP", 5)
    recorder = trace.Recorder("capped")
    noop = recorder.wrap(lambda: None, "noop", "layer")
    for _ in range(12):
        noop()
    assert len(recorder.spans) == 5
    assert recorder.total("noop")[0] == 12
    assert recorder.to_dict()["spans_total"] == 12


def test_tracing_removes_every_shim_even_after_an_error():
    targets = trace.shim_targets()
    assert len(targets) > 40
    before = [vars(owner)[attribute] for _, _, owner, attribute, _ in targets]

    recorder = trace.Recorder("shims")
    with pytest.raises(RuntimeError):
        with trace.tracing(recorder):
            during = [vars(owner)[attribute]
                      for _, _, owner, attribute, _ in targets]
            assert all(hasattr(fn, "__wrapped__") for fn in during)
            raise RuntimeError("body failed")
    after = [vars(owner)[attribute] for _, _, owner, attribute, _ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


# --------------------------------------------------------------- compare


def stat(value, q1=None, q3=None):
    return {"value": value, "unit": "s",
            "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3, "n": 5}


def test_compare_verdicts():
    lower = metrics.EndToEnd("s", "lower", 0.10)
    higher = metrics.EndToEnd("1/s", "higher", 0.10)
    assert compare.verdict(stat(1.0), stat(1.05), lower)[0] == "within bound"
    assert compare.verdict(stat(1.0), stat(1.2), lower)[0] == "worse"
    assert compare.verdict(stat(1.0), stat(0.8), lower)[0] == "better"
    assert compare.verdict(stat(100.0), stat(80.0), higher)[0] == "worse"
    assert compare.verdict(stat(100.0), stat(125.0), higher)[0] == "better"
    # Overlapping quartiles wider than the bound cannot resolve the change.
    noisy = compare.verdict(stat(1.0, 0.8, 1.3), stat(1.2, 0.9, 1.4), lower)
    assert noisy[0] == "unresolved"
    # ... unless every quartile of B beats every quartile of A.
    clear = compare.verdict(stat(1.0, 0.9, 1.3), stat(0.5, 0.4, 0.6), lower)
    assert clear[0] == "better"
    exact = metrics.LEDGER_ONLY["fail_share"]
    assert compare.verdict(stat(0.0), stat(0.0), exact)[0] == "within bound"
    assert compare.verdict(stat(0.0), stat(0.01), exact)[0] == "worse"


def test_compare_flags_count_drift_separately(tmp_path, capsys):
    def ledger(events, wall):
        return {"quick": True, "run_seconds": 1.0, "workloads": {
            "star_websearch": {
                "end_to_end": {"run_s": stat(wall)},
                "per_layer": {
                    "sim.eventq.events": {"value": events, "unit": "count"},
                    "sim.port.self_ns_per_send": {"value": wall,
                                                  "unit": "ns"}}}}}

    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(ledger(1000, 1.0)))
    b.write_text(json.dumps(ledger(900, 1.01)))
    c.write_text(json.dumps(ledger(1000, 2.0)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 2
    assert "simulated behaviour changed" in capsys.readouterr().out
    assert compare.main([str(a), str(c)]) == 1
