"""DES hot-path microbenchmark: dispatch rate, packet rate, sweep speedup.

Measures the numbers the executor/engine optimization work is judged
against, and writes them to ``BENCH_engine.json``:

* ``engine.events_per_sec`` -- raw event-loop dispatch throughput of
  :class:`repro.sim.engine.Simulator` (no profiler, ``max_events`` budget,
  i.e. the exact loop experiment runs sit in);
* ``packet.events_per_sec`` -- end-to-end throughput of one star-topology
  DCTCP run (topology + transport + AQM on the hot path, not just the bare
  loop), which is what experiment wall-clock actually scales with;
* ``fluid.flows_per_sec`` / ``fluid.speedup_vs_packet`` -- throughput of
  the flow-level fluid engine on the same cell the packet benchmark runs,
  and its wall-clock speedup over the packet engine (the model-fidelity
  trade ``--fidelity fluid`` buys);
* ``sweep.speedup`` -- wall-clock ratio of a small star-FCT spec grid run
  serially (``jobs=1``) versus through the parallel executor.  Skipped
  (recorded as ``null`` with the reason) on single-CPU hosts, where the
  ratio would only measure process-pool overhead.

Usage::

    python benchmarks/perf_engine.py [--jobs N] [--events N] [--out PATH]
    python benchmarks/perf_engine.py --compare OLD_BENCH.json

``--compare`` gates the fresh ``packet.events_per_sec`` against a previous
payload's using the validation subsystem's perf verdict (throughput ratio
>= 0.8 passes, >= 0.5 warns, below fails; host mismatches cap at warn) and
exits non-zero on a confirmed regression.  The bare-dispatch figure is
recorded but not gated: no experiment runs on that path alone.

Not a pytest module on purpose: perf numbers belong in a JSON artifact,
not in an assertion.  Run it on a quiet machine; the sweep speedup is only
meaningful with >= 2 physical cores (the JSON records ``cpu_count`` so a
1-core CI result is not mistaken for a regression).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.executor import Executor  # noqa: E402
from repro.experiments.specs import AqmSpec, RunSpec  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.units import us  # noqa: E402
from repro.telemetry.provenance import git_sha  # noqa: E402

N_SOURCES = 64
"""Concurrent event sources; keeps the heap at a realistic depth."""


def bench_engine(n_events: int, repeats: int = 3) -> dict:
    """Best-of-N dispatch rate of the bare event loop (events/second)."""

    def one_round() -> float:
        sim = Simulator()

        def tick(delay: float) -> None:
            sim.schedule(delay, tick, delay)

        for index in range(N_SOURCES):
            sim.schedule(index * 1e-7 + 1e-6, tick, 1e-6 + index * 1e-9)
        start = time.perf_counter()
        sim.run(max_events=n_events)
        elapsed = time.perf_counter() - start
        assert sim.events_processed == n_events
        return elapsed

    best = min(one_round() for _ in range(repeats))
    return {
        "events": n_events,
        "repeats": repeats,
        "best_wall_seconds": best,
        "events_per_sec": n_events / best,
    }


def bench_packets(n_flows: int, repeats: int = 3) -> dict:
    """Best-of-N throughput of a full star-topology DCTCP run.

    Unlike :func:`bench_engine`, every event here carries the real
    experiment hot path: port serialization, AQM hooks, TCP window
    bookkeeping, packet-pool recycling.  The run is deterministic (fixed
    seed), so every repeat dispatches the identical event sequence.
    """
    from repro.core.red import SojournRed
    from repro.experiments.runner import run_star_fct
    from repro.workloads import WEB_SEARCH

    def one_round():
        start = time.perf_counter()
        result = run_star_fct(
            aqm_factory=lambda: SojournRed(us(204.8)),
            workload=WEB_SEARCH,
            load=0.7,
            n_flows=n_flows,
            seed=7,
        )
        elapsed = time.perf_counter() - start
        return elapsed, result.events

    rounds = [one_round() for _ in range(repeats)]
    events = rounds[0][1]
    assert all(r[1] == events for r in rounds), "runs were not deterministic"
    best = min(r[0] for r in rounds)
    return {
        "n_flows": n_flows,
        "repeats": repeats,
        "events": events,
        "best_wall_seconds": best,
        "events_per_sec": events / best,
    }


def bench_fluid(n_flows: int, packet_wall_seconds: float,
                repeats: int = 3) -> dict:
    """Best-of-N throughput of the flow-level fluid engine on the *same*
    cell :func:`bench_packets` measures (star, web-search, load 0.7,
    RED-Tail, seed 7), so ``speedup_vs_packet`` is a like-for-like
    model-fidelity trade: identical flow population, identical scheme,
    wall-clock ratio of the two engines.
    """
    from repro.fluid import run_fluid_star_fct
    from repro.workloads import WEB_SEARCH

    aqm = AqmSpec.make("sojourn-red", sojourn=us(204.8))

    def one_round():
        start = time.perf_counter()
        result = run_fluid_star_fct(
            aqm, workload=WEB_SEARCH, load=0.7, n_flows=n_flows, seed=7
        )
        elapsed = time.perf_counter() - start
        return elapsed, result.events

    rounds = [one_round() for _ in range(repeats)]
    steps = rounds[0][1]
    assert all(r[1] == steps for r in rounds), "fluid runs were not deterministic"
    best = min(r[0] for r in rounds)
    return {
        "n_flows": n_flows,
        "repeats": repeats,
        "steps": steps,
        "best_wall_seconds": best,
        "flows_per_sec": n_flows / best,
        "speedup_vs_packet": packet_wall_seconds / best,
    }


def sweep_specs(n_flows: int) -> list:
    """A small but representative grid: 2 schemes x 2 loads x 2 seeds."""
    schemes = {
        "DCTCP-RED-Tail": AqmSpec.make("sojourn-red", sojourn=us(204.8)),
        "ECN#": AqmSpec.make(
            "ecn-sharp", ins_target=us(200), pst_target=us(85), pst_interval=us(200)
        ),
    }
    return [
        RunSpec.star(
            aqm,
            workload="web-search",
            load=load,
            n_flows=n_flows,
            seed=seed,
            label=name,
            variation=3.0,
            rtt_min=us(70),
        )
        for name, aqm in schemes.items()
        for load in (0.4, 0.7)
        for seed in (3, 4)
    ]


def bench_sweep(jobs: int, n_flows: int) -> dict:
    """Serial vs parallel wall time over the same spec grid (no cache)."""
    specs = sweep_specs(n_flows)

    start = time.perf_counter()
    serial = Executor(jobs=1).run(specs)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = Executor(jobs=jobs).run(specs)
    parallel_seconds = time.perf_counter() - start

    for a, b in zip(serial, parallel):
        if a.summary != b.summary:
            raise AssertionError("parallel sweep diverged from serial run")
    return {
        "runs": len(specs),
        "n_flows": n_flows,
        "events": sum(r.events for r in serial),
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=2_000_000,
                        help="dispatches for the event-loop benchmark")
    parser.add_argument("--flows", type=int, default=60,
                        help="flows per sweep cell")
    parser.add_argument("--packet-flows", type=int, default=250,
                        help="flows for the packet-level star benchmark")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: min(4, cpus))")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output JSON path")
    parser.add_argument("--compare", metavar="BASELINE_JSON", default=None,
                        help="gate the fresh numbers against a previous "
                        "payload; exit 1 on a confirmed regression")
    parser.add_argument("--trend", metavar="TREND_JSONL",
                        default=str(Path(__file__).parent / "results"
                                    / "trend.jsonl"),
                        help="append a one-line summary of this run to a "
                        "JSONL trend file (consumed by `repro obs report`)")
    parser.add_argument("--no-trend", action="store_true",
                        help="skip the trend-file append")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    jobs = args.jobs if args.jobs is not None else min(4, cpus)

    print(f"# engine dispatch: {args.events:,} events x3 ...", flush=True)
    engine = bench_engine(args.events)
    print(f"#   {engine['events_per_sec']:,.0f} events/sec")

    print(f"# packet-level: star DCTCP run, {args.packet_flows} flows x3 ...",
          flush=True)
    packet = bench_packets(args.packet_flows)
    print(f"#   {packet['events_per_sec']:,.0f} events/sec "
          f"({packet['events']:,} events/run)")

    print(f"# fluid: same star cell, {args.packet_flows} flows x3 ...",
          flush=True)
    fluid = bench_fluid(args.packet_flows, packet["best_wall_seconds"])
    print(f"#   {fluid['flows_per_sec']:,.0f} flows/sec "
          f"({fluid['steps']:,} steps/run, "
          f"{fluid['speedup_vs_packet']:.1f}x vs packet)")

    sweep = None
    sweep_skip_reason = None
    if cpus < 2:
        # A 1-core host serializes the "parallel" executor anyway: the
        # ratio would measure process-pool overhead, not speedup.  Record
        # the skip explicitly so downstream consumers (obs report, perf
        # gate) see a deliberate null rather than a missing key.
        sweep_skip_reason = (
            f"sweep speedup needs >= 2 cpus, host has {cpus}"
        )
        print(f"# sweep: SKIP ({sweep_skip_reason})")
    else:
        print(f"# sweep: 8 star runs, jobs=1 vs jobs={jobs} ...", flush=True)
        sweep = bench_sweep(jobs, args.flows)
        print(
            f"#   serial {sweep['serial_seconds']:.2f}s, "
            f"parallel {sweep['parallel_seconds']:.2f}s, "
            f"speedup {sweep['speedup']:.2f}x on {cpus} cpu(s)"
        )

    payload = {
        "cpu_count": cpus,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "unix_time": time.time(),
        "engine": engine,
        "packet": packet,
        "fluid": fluid,
        "sweep": sweep,
    }
    if sweep_skip_reason is not None:
        payload["sweep_skip_reason"] = sweep_skip_reason
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"# written to {args.out}")

    if not args.no_trend:
        trend_path = Path(args.trend)
        trend_path.parent.mkdir(parents=True, exist_ok=True)
        trend_row = {
            "unix_time": round(payload["unix_time"], 3),
            "git_sha": payload["git_sha"],
            "python": payload["python"],
            "cpu_count": cpus,
            "events_per_sec": round(engine["events_per_sec"], 1),
            "packet_events_per_sec": round(packet["events_per_sec"], 1),
            "fluid_flows_per_sec": round(fluid["flows_per_sec"], 1),
            "fluid_speedup_vs_packet": round(fluid["speedup_vs_packet"], 4),
            "sweep_speedup": (
                round(sweep["speedup"], 4) if sweep is not None else None
            ),
            "events": args.events,
            "flows": args.flows,
            "jobs": jobs,
        }
        with open(trend_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(trend_row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        print(f"# trend appended to {trend_path}")

    if args.compare is not None:
        from repro.validation.gates import evaluate_perf
        from repro.validation.stats import FAIL

        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        verdict = evaluate_perf(payload, baseline)
        print(f"# perf gate vs {args.compare}: "
              f"{verdict.status.upper()} ({verdict.detail})")
        if verdict.status == FAIL:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
