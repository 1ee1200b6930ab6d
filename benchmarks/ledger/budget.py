"""Per-packet time budget of the packet workloads, from one traced ledger.

    python benchmarks/ledger/budget.py [LEDGER.json]

For each packet workload of a ledger written with ``--trace 1``: the traced
self time of every layer (the ledger's ``span_aggregates``), less the
calibrated cost of the shims themselves (``trace.shim_self_ns_per_call`` per
span, the rest of ``trace.shim_ns_per_call`` per child span), as a share of
the repetition; and that share of the *untraced* repetition (``run_s``)
divided by the data segments delivered -- microseconds per packet, layer by
layer, next to the bare-dispatch and bare-port probes.  README.md's budget
table is this script's output on the committed ledger.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

RESULTS = Path(__file__).resolve().parent / "results"
PACKET_WORKLOADS = ("star_websearch", "leafspine_datamining", "incast_burst")
# Budget rows: the layers of trace.SHIMS, folded to the ISSUE's vocabulary.
ROWS = {
    "sim.eventq": "eventq (schedule)",
    "sim.port": "port (send)",
    "core.aqm": "AQM hooks",
    "sim.network": "network (+netem)",
    "netem.delay": "network (+netem)",
    "tcp.sender": "TCP sender (+timer)",
    "sim.engine": "TCP sender (+timer)",
    "tcp.sink": "TCP sink",
    "workloads": "flow set-up",
    "topology": "flow set-up",
    "experiments.runner": "unattributed (dispatch loop, private callbacks)",
    "bench": "unattributed (dispatch loop, private callbacks)",
}


def budget(entry: Dict[str, Any]) -> List[str]:
    per_layer = entry["per_layer"]
    inside = per_layer["trace.shim_self_ns_per_call"]["value"]
    outside = per_layer["trace.shim_ns_per_call"]["value"] - inside
    layer_self: Dict[str, float] = defaultdict(float)
    for aggregate in entry["span_aggregates"]:
        row = ROWS.get(aggregate["layer"], aggregate["layer"])
        layer_self[row] += aggregate["self_ns"] - aggregate["count"] * inside
        # ... and each span cost its parent the shim's outside share.
        parent_row = ROWS.get(aggregate["parent_layer"],
                              aggregate["parent_layer"])
        if aggregate["parent"]:
            layer_self[parent_row] -= aggregate["count"] * outside
    total = sum(layer_self.values())
    segments = per_layer["tcp.sink.segments"]["value"]
    wall = entry["end_to_end"]["run_s"]["value"]
    per_packet_us = wall / segments * 1e6
    lines = [
        f"{entry['workload']}: {wall:.3f} s/rep untraced, "
        f"{segments:.0f} segments, "
        f"{per_layer['sim.eventq.events']['value']:.0f} events "
        f"({per_layer['sim.eventq.events_per_pkt']['value']:.2f}/segment) "
        f"=> {per_packet_us:.2f} us per delivered segment",
        f"  {'layer':<48}{'share':>7}{'us/segment':>12}",
    ]
    for row, own in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        share = own / total
        lines.append(f"  {row:<48}{share * 100:>6.1f}%"
                     f"{share * per_packet_us:>12.2f}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    ledger_path = Path(args[0]) if args else RESULTS / "BENCH_ledger.json"
    ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    star = ledger["workloads"]["star_websearch"]["per_layer"]
    print("bare probes (star_websearch traced pass): "
          + ", ".join(
              f"{name.split('probe_ns_per_')[1]} "
              f"{star[name]['value'] / 1e3:.2f} us"
              for name in star if "probe_ns_per_" in name))
    for workload in PACKET_WORKLOADS:
        print()
        print("\n".join(budget(ledger["workloads"][workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
