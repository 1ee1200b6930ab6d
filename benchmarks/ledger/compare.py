"""Compare two ledgers: ``python benchmarks/ledger/compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate.  One row per workload x
end-to-end metric, each workload on its own rows, never a combined score:

* ``better`` / ``worse``  -- ``B``'s median differs from ``A``'s by more than
  the metric's bound (``BENCHMARK.json``; ``metrics.LEDGER_ONLY`` for the
  metrics a single workload defines) in that direction;
* ``within bound``        -- it does not;
* ``unresolved``          -- the repetitions' quartile ranges overlap *and*
  one side's spread is wider than the bound, so this pair of ledgers cannot
  tell a bound-sized change from noise (rerun with more repetitions).

Per-layer metrics whose unit is ``count`` repeat exactly on a deterministic
simulator, so a difference there is not faster or slower: it is reported
separately as "simulated behaviour changed".

Exit status: 1 if any metric is ``worse``, else 2 if any count drifted,
else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path[:] = [p for p in sys.path
                   if Path(p or ".").resolve() != Path(__file__).resolve().parent]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from ledger.metrics import LEDGER_END_TO_END, EndToEnd  # noqa: E402

Stat = Dict[str, Any]


def verdict(a: Stat, b: Stat, spec: EndToEnd) -> Tuple[str, float]:
    """``(verdict, signed relative change)``; positive change = worse."""
    sign = 1.0 if spec.better == "lower" else -1.0
    delta = sign * (b["value"] - a["value"])
    if a["value"] == 0:
        # An exact metric resting at zero (fail_share): any rise is worse.
        return ("worse" if delta > 0 else "within bound"), delta
    change = delta / abs(a["value"])
    overlap = not (b["q1"] > a["q3"] or b["q3"] < a["q1"])
    spread = max((s["q3"] - s["q1"]) / abs(s["value"])
                 for s in (a, b) if s["value"])
    if spec.bound > 0 and overlap and spread > spec.bound:
        return "unresolved", change
    if change > spec.bound:
        return "worse", change
    if change < -spec.bound:
        return "better", change
    return "within bound", change


def end_to_end_rows(a: Dict[str, Any],
                    b: Dict[str, Any]) -> Iterator[Tuple[str, str, Stat, Stat,
                                                         str, float]]:
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, stat in entry["end_to_end"].items():
            if name in other["end_to_end"] and name in LEDGER_END_TO_END:
                result, change = verdict(
                    stat, other["end_to_end"][name], LEDGER_END_TO_END[name])
                yield (workload, name, stat, other["end_to_end"][name],
                       result, change)


def count_drift(a: Dict[str, Any],
                b: Dict[str, Any]) -> List[Tuple[str, str, float, float]]:
    drift = []
    for workload, entry in a["workloads"].items():
        theirs = b["workloads"].get(workload, {}).get("per_layer", {})
        for name, stat in entry.get("per_layer", {}).items():
            if (stat["unit"] == "count" and name in theirs
                    and theirs[name]["value"] != stat["value"]):
                drift.append((workload, name, stat["value"],
                              theirs[name]["value"]))
    return drift


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 64
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))
            for path in args)
    for key in ("quick", "run_seconds", "seed"):
        if a.get(key) != b.get(key):
            print(f"# warning: {key} differs ({a.get(key)} vs {b.get(key)}); "
                  "the ledgers did not run the same benchmark on the same "
                  "inputs")
    worse = 0
    last = None
    print(f"{'workload':<22}{'metric':<22}{'A':>12}{'B':>12}{'change':>9}"
          f"{'bound':>7}  verdict")
    for workload, name, sa, sb, result, change in end_to_end_rows(a, b):
        if last not in (None, workload):
            print()
        last = workload
        worse += result == "worse"
        print(f"{workload:<22}{name:<22}{sa['value']:>12.5g}"
              f"{sb['value']:>12.5g}{change * 100:>+8.1f}%"
              f"{LEDGER_END_TO_END[name].bound * 100:>6.0f}%  {result}")
    drift = count_drift(a, b)
    if drift:
        print("\nsimulated behaviour changed (exact counts differ; this is "
              "not a speed result):")
        for workload, name, va, vb in drift:
            print(f"  {workload:<22}{name:<36}{va:>12g} -> {vb:g}")
    print(f"\n# {worse} worse, {len(drift)} counts drifted")
    return 1 if worse else (2 if drift else 0)


if __name__ == "__main__":
    sys.exit(main())
