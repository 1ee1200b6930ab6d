"""Unit tests for the TCP sender state machine, driven by synthetic ACKs."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Ecn, Packet
from repro.sim.units import ACK_SIZE, MSS, ms, us
from repro.tcp.base import TcpSender
from repro.tcp.dctcp import DctcpSender
from repro.tcp.reno import RenoSender


class FakeHost:
    """Captures transmitted packets instead of sending them anywhere."""

    def __init__(self, sim, name="a"):
        self.sim = sim
        self.name = name
        self.sent = []
        self.unregistered = []

    def transmit(self, packet):
        self.sent.append(packet)

    def unregister_endpoint(self, flow_id):
        self.unregistered.append(flow_id)


def make_sender(sim, size_bytes=100 * MSS, cls=TcpSender, **kwargs):
    host = FakeHost(sim)
    kwargs.setdefault("init_cwnd", 10.0)
    kwargs.setdefault("min_rto", ms(2))
    sender = cls(sim, host, flow_id=1, dst="b", size_bytes=size_bytes, **kwargs)
    return sender, host


def ack(seq, ece=False):
    return Packet(
        flow_id=1, src="b", dst="a", seq=seq, size=ACK_SIZE, is_ack=True,
        ecn=Ecn.NOT_ECT, ece=ece,
    )


class TestSendWindow:
    def test_initial_window_burst(self, sim):
        sender, host = make_sender(sim)
        sender.start()
        assert len(host.sent) == 10
        assert [p.seq for p in host.sent] == list(range(10))

    def test_last_segment_partial_size(self, sim):
        sender, host = make_sender(sim, size_bytes=MSS + 100)
        sender.start()
        assert sender.total_segments == 2
        assert host.sent[0].size == MSS + 40
        assert host.sent[1].size == 100 + 40

    def test_tiny_flow_one_segment(self, sim):
        sender, host = make_sender(sim, size_bytes=1)
        sender.start()
        assert sender.total_segments == 1
        assert host.sent[0].size == 41

    def test_cannot_start_twice(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        with pytest.raises(RuntimeError):
            sender.start()

    def test_invalid_size_rejected(self, sim):
        with pytest.raises(ValueError):
            make_sender(sim, size_bytes=0)

    def test_outstanding_tracks_window(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        assert sender.outstanding == 10
        sender.receive(ack(4))
        assert sender.highest_acked == 4


class TestSlowStart:
    def test_window_doubles_per_rtt(self, sim):
        sender, host = make_sender(sim)
        sender.start()
        # ACK the whole initial window: slow start adds one segment per
        # newly acked segment -> cwnd 20.
        for seq in range(1, 11):
            sim.schedule(ms(0.1) * seq, sender.receive, ack(seq))
        sim.run(until=ms(1.5))  # bounded: an un-ACKed sender RTOs forever
        assert sender.cwnd == pytest.approx(20.0)
        assert len(host.sent) == 30  # 10 initial + 20 more

    def test_congestion_avoidance_linear(self, sim):
        sender, _ = make_sender(sim, size_bytes=2000 * MSS)
        sender.start()
        sender.ssthresh = 10.0  # already at threshold -> CA from the start
        for seq in range(1, 11):
            sender.receive(ack(seq))
        # CA: cwnd += 1/cwnd per acked segment => ~+1 over a full window.
        assert sender.cwnd == pytest.approx(11.0, abs=0.2)


class TestFastRetransmit:
    def test_three_dupacks_trigger(self, sim):
        sender, host = make_sender(sim)
        sender.start()
        sender.receive(ack(3))  # progress to 3
        sent_before = len(host.sent)
        for _ in range(3):
            sender.receive(ack(3))
        retx = [p for p in host.sent[sent_before:] if p.retransmission]
        assert len(retx) == 1 and retx[0].seq == 3
        assert sender.stats.fast_retransmits == 1

    def test_two_dupacks_do_not_trigger(self, sim):
        sender, host = make_sender(sim)
        sender.start()
        sender.receive(ack(3))
        for _ in range(2):
            sender.receive(ack(3))
        assert sender.stats.fast_retransmits == 0

    def test_window_halved_on_entry(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        for seq in range(1, 11):
            sender.receive(ack(seq))  # cwnd 20
        cwnd_before = sender.cwnd
        for _ in range(4):
            sender.receive(ack(10))
        assert sender.cwnd == pytest.approx(cwnd_before / 2)

    def test_newreno_partial_ack_retransmits_next_hole(self, sim):
        sender, host = make_sender(sim)
        sender.start()
        sender.receive(ack(2))
        for _ in range(3):
            sender.receive(ack(2))  # enter recovery, retransmit 2
        sent_before = len(host.sent)
        sender.receive(ack(5))  # partial: hole at 5
        retx = [p for p in host.sent[sent_before:] if p.retransmission]
        assert retx and retx[0].seq == 5

    def test_full_ack_exits_recovery(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sender.receive(ack(2))
        for _ in range(3):
            sender.receive(ack(2))
        recovery_point = sender._recovery_point
        sender.receive(ack(recovery_point))
        assert not sender._in_recovery
        assert sender.cwnd == pytest.approx(sender.ssthresh)


class TestRto:
    def test_timeout_fires_and_goes_back_n(self, sim):
        sender, host = make_sender(sim)
        sender.start()
        sent_before = len(host.sent)
        sim.run(until=ms(50))
        assert sender.stats.timeouts >= 1
        # After RTO, segment 0 was retransmitted.
        retx = [p for p in host.sent[sent_before:] if p.seq == 0]
        assert retx and retx[0].retransmission

    def test_exponential_backoff(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        rto_initial = sender.rto
        sim.run(until=ms(100))
        assert sender.stats.timeouts >= 2
        assert sender.rto > rto_initial

    def test_cwnd_collapses_to_one(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sim.run(until=ms(15))
        assert sender.stats.timeouts >= 1
        assert sender.cwnd <= 2.0  # 1 + possibly one ss increment

    def test_ack_cancels_pending_rto(self, sim):
        sender, _ = make_sender(sim, size_bytes=10 * MSS)
        sender.start()
        for seq in range(1, 11):
            sender.receive(ack(seq))
        assert sender.completed
        sim.run(until=ms(100))
        assert sender.stats.timeouts == 0


class TestRttEstimation:
    def test_srtt_tracks_sample(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sim.schedule(ms(1), sender.receive, ack(1))
        sim.run(until=ms(1))
        assert sender.smoothed_rtt == pytest.approx(ms(1), rel=0.01)

    def test_rto_respects_minimum(self, sim):
        sender, _ = make_sender(sim, min_rto=ms(5))
        sender.start()
        sim.schedule(ms(0.1), sender.receive, ack(1))
        sim.run(until=ms(0.2))
        assert sender.rto >= ms(5)

    def test_no_sample_from_retransmission(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sim.run(until=ms(10))  # force a timeout -> everything retransmitted
        timeouts = sender.stats.timeouts
        assert timeouts >= 1
        srtt_before = sender.smoothed_rtt
        sender.receive(ack(1))  # acks a retransmitted segment
        assert sender.smoothed_rtt == srtt_before  # Karn: no sample


class TestCompletion:
    def test_complete_on_full_ack(self, sim):
        fired = []
        host_sender, host = None, None
        sender, host = make_sender(sim, size_bytes=5 * MSS)
        sender.on_complete = lambda s: fired.append(s.flow_id)
        sender.start()
        sender.receive(ack(5))
        assert sender.completed
        assert fired == [1]
        assert host.unregistered == [1]
        assert sender.flow_completion_time >= 0

    def test_fct_before_completion_raises(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        with pytest.raises(RuntimeError):
            _ = sender.flow_completion_time

    def test_acks_after_completion_ignored(self, sim):
        sender, _ = make_sender(sim, size_bytes=2 * MSS)
        sender.start()
        sender.receive(ack(2))
        sender.receive(ack(2))  # no crash, no state change
        assert sender.completed


# --------------------------------------------------------- pinned ACK trace
#
# One scripted trace per congestion control: slow start, ECE-marked ACKs,
# three duplicate ACKs and a fast retransmit, NewReno partial ACKs, a full
# ACK leaving recovery, an RTO with go-back-N, stale ACKs, an ACK beyond
# ``send_next``, the partial last segment and completion.  After every step
# the state tuple (cwnd, ssthresh, alpha, rto, _srtt, send_next,
# highest_acked, segments_sent, retransmissions) must equal the literal
# captured when the ACK path was still ten small methods; a telemetry spy
# pins the same tuple at every hook call.

# (time in us, cumulative ACK or None to let timers run, ECN-Echo)
TRACE_STEPS = [
    (100, 1, False), (110, 2, False), (120, 3, False), (130, 4, False),
    (140, 6, True), (150, 7, True), (160, 8, False),
    (170, 8, False), (180, 8, False), (190, 8, False),  # 3 dup: fast rtx
    (200, 8, True), (260, 12, False),  # NewReno partial ACK
    (300, 18, False), (320, 19, True),  # full ACK leaves recovery
    (400, None, False), (5000, None, False),  # RTO, go-back-N
    (5100, 21, False), (5200, 17, True), (5300, 23, True),
    (5400, 26, False), (5500, 33, False), (5600, 39, False),
    (5650, 40, False), (5700, 40, False),  # completion, then a stale ACK
]
TRACE_SENT = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 8, 12,
    18, 19, 20, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
    34, 35, 36, 37, 38, 39,
]


def sender_state(sender):
    return (sender.cwnd, sender.ssthresh, getattr(sender, "alpha", None),
            sender.rto, sender._srtt, sender.send_next, sender.highest_acked,
            sender.stats.segments_sent, sender.stats.retransmissions)


class HookSpy:
    """Telemetry stand-in recording the sender's state at each hook."""

    def __init__(self):
        self.calls = []

    def on_cwnd(self, sender, old, new, reason):
        self.calls.append(("cwnd", (old, new, reason), sender_state(sender)))

    def on_retransmit(self, sender, seq, kind):
        self.calls.append(("retx", (seq, kind), sender_state(sender)))

    def on_timer(self, sender, rto):
        self.calls.append(("timer", (rto,), sender_state(sender)))

    def on_flow_complete(self, sender, fct):
        self.calls.append(("flow", (fct,), sender_state(sender)))


def drive_trace(cls):
    sim = Simulator()
    sender, host = make_sender(sim, size_bytes=40 * MSS - 700, cls=cls)
    spy = HookSpy()
    sender.telemetry = spy
    sender.start()
    states = [sender_state(sender)]
    for when, seq, ece in TRACE_STEPS:
        if seq is not None:
            sim.schedule_at(us(when), sender.receive, ack(seq, ece))
        sim.run(until=us(when))
        states.append(sender_state(sender))
    return sender, host, states, spy.calls


DCTCP_STATES = [
    (10.0, 4096.0, 1.0, 0.01, None, 10, 0, 10, 0),
    (11.0, 4096.0, 0.9375, 0.002, 9.999999999999999e-05, 12, 1, 12, 0),
    (12.0, 4096.0, 0.9375, 0.002, 0.00010124999999999998, 14, 2, 14, 0),
    (13.0, 4096.0, 0.9375, 0.002, 0.00010359374999999998, 16, 3, 16, 0),
    (14.0, 4096.0, 0.9375, 0.002, 0.00010689453124999999, 18, 4, 18, 0),
    (7.70640756302521, 7.4375, 0.9375, 0.002, 0.00011103271484374998,
     18, 6, 18, 0),
    (7.836169711188504, 7.4375, 0.9375, 0.002, 0.00011590362548828122,
     18, 7, 18, 0),
    (7.963783078031771, 7.4375, 0.9375, 0.002, 0.00012141567230224606,
     18, 8, 18, 0),
    (7.963783078031771, 7.4375, 0.9375, 0.002, 0.00012141567230224606,
     18, 8, 18, 0),
    (7.963783078031771, 7.4375, 0.9375, 0.002, 0.00012141567230224606,
     18, 8, 18, 0),
    (3.9818915390158853, 3.9818915390158853, 0.9375, 0.002, 0.00012141567230224606,
     18, 8, 19, 1),
    (3.9818915390158853, 3.9818915390158853, 0.9375, 0.002, 0.00012141567230224606,
     18, 8, 19, 1),
    (3.9818915390158853, 3.9818915390158853, 0.8959517045454546, 0.002, 0.00012623871326446532,
     18, 12, 20, 2),
    (3.9818915390158853, 3.9818915390158853, 0.8399547230113636, 0.002, 0.00013170887410640715,
     21, 18, 23, 2),
    (2.742565036382672, 2.309587236658195, 0.8499575528231534, 0.002, 0.00011774526484310626,
     21, 19, 23, 2),
    (2.742565036382672, 2.309587236658195, 0.8499575528231534, 0.002, 0.00011774526484310626,
     21, 19, 23, 2),
    (1.0, 2.0, 0.8499575528231534, 0.004, 0.00011774526484310626,
     20, 19, 24, 3),
    (3.0, 2.0, 0.7968352057717063, 0.004, 0.00011774526484310626,
     24, 21, 28, 4),
    (3.0, 2.0, 0.7968352057717063, 0.004, 0.00011774526484310626,
     24, 21, 28, 4),
    (3.8047471913424404, 2.0, 0.8095330054109746, 0.002, 0.00012802710673771804,
     26, 23, 30, 4),
    (4.593235847520803, 2.0, 0.7589371925727887, 0.002, 0.00012452371839550321,
     30, 26, 34, 4),
    (6.117215941810594, 2.0, 0.7115036180369894, 0.002, 0.00012145825359606535,
     39, 33, 43, 4),
    (7.098054293288521, 2.0, 0.6670346419096775, 0.002, 0.00011877597189655721,
     40, 39, 44, 4),
    (7.238937971925008, 2.0, 0.6253449767903227, 0.002, 0.00011017897540948753,
     40, 40, 44, 4),
    (7.238937971925008, 2.0, 0.6253449767903227, 0.002, 0.00011017897540948753,
     40, 40, 44, 4),
]
DCTCP_HOOKS = [
    ("cwnd", (14.0, 7.4375, "dctcp-cwr"),
     (14.0, 4096.0, 0.9375, 0.002, 0.00010689453124999999, 18, 4, 18, 0)),
    ("cwnd", (7.963783078031771, 3.9818915390158853, "fast-recovery"),
     (3.9818915390158853, 3.9818915390158853, 0.9375, 0.002, 0.00012141567230224606,
      18, 8, 18, 0)),
    ("retx", (8, "fast"),
     (3.9818915390158853, 3.9818915390158853, 0.9375, 0.002, 0.00012141567230224606,
      18, 8, 19, 1)),
    ("retx", (12, "partial-ack"),
     (3.9818915390158853, 3.9818915390158853, 0.9375, 0.002, 0.00012623871326446532,
      18, 12, 20, 2)),
    ("cwnd", (3.9818915390158853, 2.309587236658195, "dctcp-cwr"),
     (3.9818915390158853, 3.9818915390158853, 0.8399547230113636, 0.002, 0.00013170887410640715,
      21, 18, 23, 2)),
    ("timer", (0.002,),
     (2.742565036382672, 2.309587236658195, 0.8499575528231534, 0.002, 0.00011774526484310626,
      21, 19, 23, 2)),
    ("cwnd", (2.742565036382672, 1.0, "rto"),
     (2.742565036382672, 2.309587236658195, 0.8499575528231534, 0.002, 0.00011774526484310626,
      21, 19, 23, 2)),
    ("retx", (19, "go-back-n"),
     (1.0, 2.0, 0.8499575528231534, 0.004, 0.00011774526484310626,
      19, 19, 24, 3)),
    ("retx", (20, "go-back-n"),
     (3.0, 2.0, 0.7968352057717063, 0.004, 0.00011774526484310626,
      20, 21, 25, 4)),
    ("cwnd", (3.0, 1.8047471913424404, "dctcp-cwr"),
     (3.0, 2.0, 0.7968352057717063, 0.004, 0.00011774526484310626,
      24, 21, 28, 4)),
    ("flow", (0.00565,),
     (7.238937971925008, 2.0, 0.6253449767903227, 0.002, 0.00011017897540948753,
      40, 40, 44, 4)),
]
RENO_STATES = [
    (10.0, 4096.0, None, 0.01, None, 10, 0, 10, 0),
    (11.0, 4096.0, None, 0.002, 9.999999999999999e-05, 12, 1, 12, 0),
    (12.0, 4096.0, None, 0.002, 0.00010124999999999998, 14, 2, 14, 0),
    (13.0, 4096.0, None, 0.002, 0.00010359374999999998, 16, 3, 16, 0),
    (14.0, 4096.0, None, 0.002, 0.00010689453124999999, 18, 4, 18, 0),
    (7.285714285714286, 7.0, None, 0.002, 0.00011103271484374998,
     18, 6, 18, 0),
    (7.42296918767507, 7.0, None, 0.002, 0.00011590362548828122, 18, 7, 18, 0),
    (7.5576861688071455, 7.0, None, 0.002, 0.00012141567230224606,
     18, 8, 18, 0),
    (7.5576861688071455, 7.0, None, 0.002, 0.00012141567230224606,
     18, 8, 18, 0),
    (7.5576861688071455, 7.0, None, 0.002, 0.00012141567230224606,
     18, 8, 18, 0),
    (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00012141567230224606,
     18, 8, 19, 1),
    (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00012141567230224606,
     18, 8, 19, 1),
    (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00012623871326446532,
     18, 12, 20, 2),
    (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00013170887410640715,
     21, 18, 23, 2),
    (2.5, 2.0, None, 0.002, 0.00011774526484310626, 21, 19, 23, 2),
    (2.5, 2.0, None, 0.002, 0.00011774526484310626, 21, 19, 23, 2),
    (1.0, 2.0, None, 0.004, 0.00011774526484310626, 20, 19, 24, 3),
    (3.0, 2.0, None, 0.004, 0.00011774526484310626, 24, 21, 28, 4),
    (3.0, 2.0, None, 0.004, 0.00011774526484310626, 24, 21, 28, 4),
    (3.0, 2.0, None, 0.002, 0.00012802710673771804, 26, 23, 30, 4),
    (4.0, 2.0, None, 0.002, 0.00012452371839550321, 30, 26, 34, 4),
    (5.75, 2.0, None, 0.002, 0.00012145825359606535, 38, 33, 42, 4),
    (6.793478260869565, 2.0, None, 0.002, 0.00011877597189655721,
     40, 39, 44, 4),
    (6.940678260869565, 2.0, None, 0.002, 0.00011017897540948753,
     40, 40, 44, 4),
    (6.940678260869565, 2.0, None, 0.002, 0.00011017897540948753,
     40, 40, 44, 4),
]
RENO_HOOKS = [
    ("cwnd", (14.0, 7.0, "ecn-halve"),
     (7.0, 7.0, None, 0.002, 0.00010689453124999999, 18, 4, 18, 0)),
    ("cwnd", (7.5576861688071455, 3.7788430844035727, "fast-recovery"),
     (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00012141567230224606,
      18, 8, 18, 0)),
    ("retx", (8, "fast"),
     (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00012141567230224606,
      18, 8, 19, 1)),
    ("retx", (12, "partial-ack"),
     (3.7788430844035727, 3.7788430844035727, None, 0.002, 0.00012623871326446532,
      18, 12, 20, 2)),
    ("cwnd", (3.7788430844035727, 2.0, "ecn-halve"),
     (2.0, 2.0, None, 0.002, 0.00013170887410640715, 21, 18, 23, 2)),
    ("timer", (0.002,),
     (2.5, 2.0, None, 0.002, 0.00011774526484310626, 21, 19, 23, 2)),
    ("cwnd", (2.5, 1.0, "rto"),
     (2.5, 2.0, None, 0.002, 0.00011774526484310626, 21, 19, 23, 2)),
    ("retx", (19, "go-back-n"),
     (1.0, 2.0, None, 0.004, 0.00011774526484310626, 19, 19, 24, 3)),
    ("retx", (20, "go-back-n"),
     (3.0, 2.0, None, 0.004, 0.00011774526484310626, 20, 21, 25, 4)),
    ("cwnd", (3.0, 2.0, "ecn-halve"),
     (2.0, 2.0, None, 0.004, 0.00011774526484310626, 24, 21, 28, 4)),
    ("flow", (0.00565,),
     (6.940678260869565, 2.0, None, 0.002, 0.00011017897540948753,
      40, 40, 44, 4)),
]


class TestAckTracePinned:
    @pytest.mark.parametrize("cls, states, hooks", [
        (DctcpSender, DCTCP_STATES, DCTCP_HOOKS),
        (RenoSender, RENO_STATES, RENO_HOOKS),
    ])
    def test_state_after_every_ack(self, cls, states, hooks):
        sender, host, seen_states, seen_hooks = drive_trace(cls)
        assert seen_states == states
        assert seen_hooks == hooks
        assert [p.seq for p in host.sent] == TRACE_SENT
        assert [p.seq for p in host.sent if p.retransmission] == [8, 12, 19, 20]
        assert {(p.seq, p.size) for p in host.sent if p.size != MSS + 40} == {
            (39, MSS - 700 + 40)}
        assert sender.completed and host.unregistered == [1]
        assert (sender.stats.timeouts, sender.stats.fast_retransmits) == (1, 1)
