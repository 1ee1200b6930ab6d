"""The per-hop packet path, pinned from two sides.

* ``FifoScheduler`` handles its one deque and counters inline; every other
  discipline goes through the generic ``queue_for`` / ``_pop`` path.  A
  one-queue ``StrictPriorityScheduler`` is the same discipline on the generic
  path, so putting it on every port must change nothing: that is the FIFO
  specialisation's oracle.
* The three packet rigs of the perf ledger, at its ``--quick`` sizes, must
  keep producing these exact event counts, marks, drops, timeouts and FCT
  sums.  A handler change that reorders same-timestamp events shows here
  first, not only in the ledger's signature check.
"""

import pytest

from repro.core.red import DctcpRed
from repro.experiments import runner
from repro.experiments.figures import fig10
from repro.experiments import schemes
from repro.sim import port as port_module
from repro.sim.network import Network
from repro.sim.packet import PacketFactory
from repro.sim.scheduler import StrictPriorityScheduler
from repro.sim.units import gbps, ms, us
from repro.tcp import open_flow
from repro.workloads import DATA_MINING, WEB_SEARCH


def on_both_paths(monkeypatch, run):
    """``run()`` once on the default FIFO and once with every port that
    takes the default on a one-queue strict-priority scheduler."""
    fifo = run()
    with monkeypatch.context() as patch:
        patch.setattr(
            port_module, "FifoScheduler", lambda: StrictPriorityScheduler(1))
        generic = run()
    return fifo, generic


def port_signature(ports):
    return [
        (port.name, type(port.scheduler).__name__,
         port.stats.enqueued_packets, port.stats.tx_packets,
         port.stats.tx_bytes, port.stats.dropped_overflow,
         port.stats.dropped_aqm, port.buffer_peak_bytes, port.queue_bytes,
         port.aqm.stats.marks, port.aqm.stats.aqm_drops,
         port.aqm.stats.packets_seen)
        for port in ports
    ]


def run_dumbbell():
    """Three senders -> sw0 == sw1 -> two receivers, plus one flow back the
    other way so ACKs share queues with data.  A 20 kB bottleneck buffer
    forces overflow, fast retransmits and RTOs; DctcpRed with a 6 kB
    threshold on every switch port marks data and vetoes not-ECT ACKs."""
    net = Network()
    senders = [net.add_host(f"s{i}") for i in range(3)]
    receivers = [net.add_host(f"r{i}") for i in range(2)]
    left, right = net.add_switch("sw0"), net.add_switch("sw1")

    def aqm():
        return DctcpRed(threshold_bytes=6_000)

    for host in senders:
        net.connect(host, left, gbps(10), us(2), 200_000, aqm_b_to_a=aqm())
    for host in receivers:
        net.connect(host, right, gbps(10), us(2), 200_000, aqm_b_to_a=aqm())
    net.connect(left, right, gbps(10), us(5), 20_000,
                aqm_a_to_b=aqm(), aqm_b_to_a=aqm())
    net.compute_routes()
    factory = PacketFactory()
    flows = [
        open_flow(net, factory, senders[i], receivers[i % 2],
                  400_000 + 90_000 * i, cc="dctcp" if i % 2 == 0 else "reno",
                  start_time=us(7) * i)
        for i in range(3)
    ]
    flows.append(open_flow(net, factory, receivers[0], senders[2], 250_000,
                           start_time=us(3)))
    net.sim.run_until_idle()
    ports = [port for node in net.nodes.values() for port in node.ports]
    return {
        "events": net.sim.events_processed,
        "ports": port_signature(ports),
        "flows": [(flow.fct, flow.timeouts, flow.sender.stats.retransmissions,
                   flow.sender.stats.fast_retransmits)
                  for flow in flows],
    }


def run_incast(scheme):
    topologies = []
    build = fig10.build_incast

    def capture(**kwargs):
        topologies.append(build(**kwargs))
        return topologies[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fig10, "build_incast", capture)
        run = fig10.run_microscopic(
            schemes.simulation_scheme_specs()[scheme].build, scheme,
            fanout=40, seed=61, warmup=ms(1), burst_time=ms(3),
            end_time=ms(10))
    ports = [port for node in topologies[0].network.nodes.values()
             for port in node.ports]
    return {
        "run": (run.events, run.marks, run.drops, run.query_timeouts,
                run.queries_completed, sum(run.query_fcts)),
        "ports": port_signature(ports),
    }


def without_scheduler_names(result):
    return {key: ([row[:1] + row[2:] for row in value]
                  if key == "ports" else value)
            for key, value in result.items()}


class TestFifoMatchesGenericPath:
    """Every count and every peak is the same on both scheduler paths."""

    def check(self, fifo, generic):
        assert {row[1] for row in fifo["ports"]} == {"FifoScheduler"}
        assert {row[1] for row in generic["ports"]} == {
            "StrictPriorityScheduler"}
        assert without_scheduler_names(fifo) == without_scheduler_names(generic)

    def test_dumbbell(self, monkeypatch):
        fifo, generic = on_both_paths(monkeypatch, run_dumbbell)
        self.check(fifo, generic)
        # The rig reaches every branch the specialisation touches.
        ports, flows = fifo["ports"], fifo["flows"]
        assert sum(row[5] for row in ports) > 0  # overflow drops
        assert sum(row[6] for row in ports) > 0  # AQM vetoes (not-ECT ACKs)
        assert sum(row[9] for row in ports) > 0  # marks
        assert sum(flow[1] for flow in flows) > 0  # RTOs
        assert sum(flow[3] for flow in flows) > 0  # fast retransmits

    @pytest.mark.parametrize("scheme", ["CoDel", "ECN#"])
    def test_incast(self, monkeypatch, scheme):
        self.check(*on_both_paths(monkeypatch, lambda: run_incast(scheme)))


def fct_signature(result):
    return (result.events, result.marks, result.instant_marks,
            result.persistent_marks, result.drops, result.timeouts,
            repr(sum(record.fct for record in result.collector.records)))


class TestLedgerRigsDidNotMove:
    """The ledger's packet rigs at ``--quick`` sizes; values captured before
    the per-hop and per-ACK paths were flattened."""

    def test_star_websearch(self):
        result = runner.run_star_fct(
            schemes.testbed_scheme_specs()["ECN#"].build, WEB_SEARCH, 0.7,
            30, 7)
        assert fct_signature(result) == (
            16957, 1, 0, 1, 0, 0, "0.008006185321030736")

    def test_leafspine_datamining(self):
        result = runner.run_leafspine_fct(
            schemes.simulation_scheme_specs()["ECN#"].build, DATA_MINING,
            0.5, 5, 7, dims=(4, 4, 4))
        assert fct_signature(result) == (
            21091, 0, 0, 0, 0, 0, "0.003424323489909155")

    @pytest.mark.parametrize("scheme, expected", [
        ("CoDel", (73059, 270, 0, 0, 40, "0.09466841738385745")),
        ("ECN#", (70036, 1577, 0, 0, 40, "0.03611131258386667")),
    ])
    def test_incast_burst(self, scheme, expected):
        run = fig10.run_microscopic(
            schemes.simulation_scheme_specs()[scheme].build, scheme, fanout=40,
            seed=61, warmup=ms(1), burst_time=ms(3), end_time=ms(10))
        assert (run.events, run.marks, run.drops, run.query_timeouts,
                run.queries_completed, repr(sum(run.query_fcts))) == expected
