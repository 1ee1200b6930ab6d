"""The repo's perf ledger: one command, six workloads, two passes.

One workload, one run, in this interpreter (what the benchmark driver calls)::

    python3 benchmarks/ledger/run.py --workload star_websearch --seed 0 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

The whole ledger (no ``--workload``)::

    python3 benchmarks/ledger/run.py [--seed S] [--trace 1] [--quick] [--out F]

runs the six workloads one after another, each pass in its own fresh
interpreter, never concurrently (two CPU-bound loops on this class of host
each run 2.4x slower, so a parallel number would measure the scheduler), and
writes ``results/BENCH_ledger.json`` plus one ``trend.jsonl`` row next to it.
``--trace 1`` adds the traced pass and writes ``trace.json`` there too.

See README.md for the metric glossary and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SCHEMA_VERSION = 1

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no simulator to measure: {ROOT / 'src' / 'repro'} "
             "is missing (run from a checkout of the repository)")
# Import the benchmark as the package ``ledger`` and drop the script's own
# directory from the path: its ``trace.py`` would shadow the stdlib module.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from ledger import metrics  # noqa: E402
from ledger.harness import run_workload  # noqa: E402


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS),
                        help="run this one workload in-process and print "
                        "its result line (default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every synthesised fixture and every "
                        "seeded check (see README, 'Seeds')")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box of the timed repetitions (default "
                        f"{metrics.RUN_SECONDS}, or 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = one workload: the traced pass, printing "
                        "the per-layer metrics; whole ledger: add the "
                        "traced pass after each untraced one")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload (whole pass < 30 s)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result JSON here (whole "
                        "ledger: default results/BENCH_ledger.json)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="one traced workload: write its spans here")
    return parser.parse_args(argv)


def print_metrics(result: Dict[str, Any]) -> None:
    print(f"# {result['workload']}: seed={result['seed']} "
          f"reps={result['reps']} traced={int(result['traced'])} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        print(f"#   FAILED: {failure}")
    for name, stat in result["end_to_end"].items():
        print(f"{name:<44} {stat['value']:>16.6g} {stat['unit']:<6} "
              f"[q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n={stat['n']}]")
    for name, stat in result.get("per_layer", {}).items():
        print(f"{name:<44} {stat['value']:>16.6g} {stat['unit']}")


def result_line(result: Dict[str, Any]) -> str:
    """The driver-facing last line of stdout."""
    if result["traced"]:
        chosen = result["per_layer"]
    else:
        chosen = {name: result["end_to_end"][name]
                  for name in metrics.END_TO_END}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": stat["value"], "unit": stat["unit"]}
                    for name, stat in chosen.items()},
    })


def time_box(args: argparse.Namespace) -> float:
    if args.seconds is not None:
        return args.seconds
    return 1.0 if args.quick else float(metrics.RUN_SECONDS)


def run_one(args: argparse.Namespace) -> int:
    from ledger.workloads import REGISTRY

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = REGISTRY[args.workload](args.seed, args.quick, workdir)
    result = run_workload(workload, time_box(args), bool(args.trace))
    try:
        workdir.parent.rmdir()  # unless another run is using it
    except OSError:
        pass
    # The aggregates stay in the result (budget.py reads them from the
    # ledger); the raw spans go to their own file.
    spans = result.pop("trace", None)
    if spans is not None:
        result["span_aggregates"] = spans["aggregates"]
    for path, payload in ((args.out, result), (args.trace_out, spans)):
        if path is not None and payload is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    print_metrics(result)
    print(result_line(result))
    return 0


# ----------------------------------------------------------- whole ledger


# The orchestrator stays small on purpose -- it imports nothing of ``repro``
# and never parses a span file: a child's ``ru_maxrss`` starts at the peak
# RSS of the process that spawned it, so a fat parent would put a floor
# under every workload's ``peak_rss_mb``.


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _run_pass(name: str, args: argparse.Namespace, traced: bool,
              scratch: Path) -> Dict[str, Any]:
    out = scratch / f"{name}-{int(traced)}.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(int(traced)), "--out", str(out),
               "--trace-out", str(scratch / f"{name}.spans.json")]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py: workload {name} exited "
                         f"{done.returncode}")
    # Everything but the machine-readable last line.
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    print(f"# {name}: pass took {wall:.1f} s", flush=True)
    return json.loads(out.read_text(encoding="utf-8"))


def run_ledger(args: argparse.Namespace) -> int:
    ledger: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "cpu_count": os.cpu_count()},
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "unix_time": round(time.time(), 3),
        "seed": args.seed,
        "quick": args.quick,
        "run_seconds": time_box(args),
        "workloads": {},
    }
    out = args.out if args.out is not None else RESULTS / "BENCH_ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as scratch:
        for name in metrics.WORKLOADS:
            entry = _run_pass(name, args, False, Path(scratch))
            if args.trace:
                traced = _run_pass(name, args, True, Path(scratch))
                entry["per_layer"] = traced["per_layer"]
                entry["span_aggregates"] = traced["span_aggregates"]
                entry["traced_reps"] = traced["reps"]
                # Checks only a traced pass can make count as well.
                for key in ("attempted", "failed"):
                    entry[key] += traced[key]
                entry["failures"] += traced["failures"]
                entry["correct"] = entry["failed"] == 0
            failed += entry["failed"]
            ledger["workloads"][name] = entry
        if args.trace:
            # {"<workload>": <its span file>, ...}, spliced as text.
            trace_out = out.with_name("trace.json")
            with open(trace_out, "w", encoding="utf-8") as handle:
                for index, name in enumerate(metrics.WORKLOADS):
                    spans = Path(scratch) / f"{name}.spans.json"
                    handle.write("{" if index == 0 else ",")
                    handle.write(json.dumps(name) + ":")
                    handle.write(spans.read_text(encoding="utf-8").strip())
                handle.write("}\n")
            print(f"# spans written to {trace_out}")

    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"# ledger written to {out}")
    row: Dict[str, Any] = {
        key: ledger[key] for key in
        ("unix_time", "git_sha", "python", "seed", "quick")}
    row["host"] = ledger["host"]["node"]
    for name, entry in ledger["workloads"].items():
        for metric, stat in entry["end_to_end"].items():
            row[f"{name}.{metric}"] = round(stat["value"], 6)
    with open(out.with_name("trend.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
