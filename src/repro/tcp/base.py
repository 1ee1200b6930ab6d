"""TCP sender base: reliability, loss recovery, RTO, and window bookkeeping.

:class:`TcpSender` implements the transport mechanics shared by the two
congestion-control variants (DCTCP in :mod:`repro.tcp.dctcp`, ECN-enabled
NewReno in :mod:`repro.tcp.reno`):

* segment-granularity sliding window (cwnd counted in segments),
* slow start / congestion avoidance growth,
* fast retransmit on three duplicate ACKs with NewReno-style recovery,
* retransmission timeout with exponential backoff and go-back-N,
* RFC 6298 RTT estimation (Karn's rule: no samples from retransmits).

Subclasses customise ECN reaction through :meth:`_on_ecn_signal` (called once
per ACK carrying state) and :meth:`_on_window_boundary`.

The datacenter-specific defaults follow the paper's environment: initial
window 10 segments, min RTO 2 ms (so that, as in Section 5.2, a single
timeout visibly adds > 1 ms to a short flow's FCT).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from ..sim.engine import Simulator, Timer
from ..sim.network import Host
from ..sim.packet import Ecn, Packet, acquire_packet, release_packet
from ..sim.units import HEADER_SIZE, MSS, ms
from ..telemetry.runtime import dataplane_telemetry

__all__ = ["TcpSender", "SenderStats"]


class SenderStats:
    """Counters a sender accumulates over its lifetime."""

    __slots__ = (
        "segments_sent",
        "retransmissions",
        "timeouts",
        "fast_retransmits",
        "ecn_signals",
        "acks_received",
        "ece_acks",
    )

    def __init__(self) -> None:
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.ecn_signals = 0
        self.acks_received = 0
        self.ece_acks = 0


class TcpSender:
    """Reliable sender for one finite-size flow.

    Args:
        sim: simulator.
        host: the host this sender runs on (registered by flow id).
        flow_id: unique flow identifier.
        dst: destination host name.
        size_bytes: application bytes to deliver.
        mss: maximum segment payload.
        init_cwnd: initial congestion window in segments.
        min_rto: lower bound on the retransmission timeout.
        service: traffic class carried by every packet of the flow.
        on_complete: callback fired once when all data has been
            cumulatively acknowledged.
    """

    # Congestion-avoidance bound; effectively unlimited for datacenter flows.
    MAX_CWND_SEGMENTS = 4096.0

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        dst: str,
        size_bytes: int,
        mss: int = MSS,
        init_cwnd: float = 10.0,
        min_rto: float = ms(2),
        max_rto: float = 1.0,
        service: int = 0,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("flow size must be positive")
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.sim = sim
        self._q = sim._q  # the clock, read per ACK without the property hop
        self.host = host
        self.flow_id = flow_id
        self.src = host.name
        self.dst = dst
        self.size_bytes = size_bytes
        self.mss = mss
        self.service = service
        self.on_complete = on_complete

        self.total_segments = max(1, math.ceil(size_bytes / mss))
        self._last_segment_payload = size_bytes - (self.total_segments - 1) * mss

        # Congestion state.
        self.cwnd: float = float(init_cwnd)
        self.ssthresh: float = self.MAX_CWND_SEGMENTS
        self.highest_acked = 0  # cumulative: segments fully acknowledged
        self.send_next = 0  # next new segment index to transmit
        self._dup_acks = 0
        self._in_recovery = False
        self._recovery_point = 0

        # RTO state (RFC 6298).
        self.min_rto = min_rto
        self.max_rto = max_rto
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self.rto = max(min_rto, ms(10))
        self._rto_timer = Timer(sim, self._on_rto)
        self._send_times: Dict[int, float] = {}
        self._retransmitted_segments: set = set()

        self.stats = SenderStats()
        self.telemetry = dataplane_telemetry()
        self.started = False
        self.completed = False
        self.start_time: float = -1.0
        self.completion_time: float = -1.0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin transmitting (registers nothing; host wiring is external)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        self.start_time = self.sim.now
        self._try_send()

    @property
    def outstanding(self) -> int:
        """Segments in flight (sent but not cumulatively acknowledged)."""
        return self.send_next - self.highest_acked

    @property
    def flow_completion_time(self) -> float:
        """Sender-side FCT (start to full acknowledgement)."""
        if not self.completed:
            raise RuntimeError("flow not complete")
        return self.completion_time - self.start_time

    # ------------------------------------------------------------- sending

    def _try_send(self) -> None:
        if self.completed:
            return
        seq = self.send_next
        # Send while in flight (send_next - highest_acked) < window; nothing
        # below moves highest_acked or cwnd, so the bound is fixed.
        limit = min(
            self.total_segments, self.highest_acked + max(1, int(self.cwnd))
        )
        if seq >= limit:
            return
        now = self._q.now  # nothing below advances the clock
        send_times = self._send_times
        retransmitted = self._retransmitted_segments
        stats = self.stats
        last = self.total_segments - 1
        while seq < limit:
            retransmission = seq in retransmitted
            packet = acquire_packet(
                self.flow_id, self.src, self.dst, seq,
                (self._last_segment_payload if seq == last else self.mss)
                + HEADER_SIZE,
                False, Ecn.ECT0, False, self.service,
            )
            packet.sent_time = now
            packet.retransmission = retransmission
            if seq not in send_times:
                send_times[seq] = now
            self.host.transmit(packet)
            stats.segments_sent += 1
            if retransmission:
                stats.retransmissions += 1
                if self.telemetry is not None:
                    self.telemetry.on_retransmit(self, seq, "go-back-n")
            seq += 1
            self.send_next = seq
        # Something was sent, so segments are in flight.
        if not self._rto_timer.armed:
            self._rto_timer.restart(self.rto)

    def _retransmit(self, seq: int, kind: str = "fast") -> None:
        self._retransmitted_segments.add(seq)
        self._send_times.pop(seq, None)  # Karn: never RTT-sample a retransmit
        last = seq == self.total_segments - 1
        packet = acquire_packet(
            self.flow_id, self.src, self.dst, seq,
            (self._last_segment_payload if last else self.mss) + HEADER_SIZE,
            False, Ecn.ECT0, False, self.service,
        )
        packet.sent_time = self._q.now
        packet.retransmission = True
        self.host.transmit(packet)
        self.stats.segments_sent += 1
        self.stats.retransmissions += 1
        if self.telemetry is not None:
            self.telemetry.on_retransmit(self, seq, kind)

    # ----------------------------------------------------------- receiving

    def receive(self, packet: Packet) -> None:
        if not packet.is_ack:
            return
        if self.completed:
            release_packet(packet)  # ACK for an already-finished flow
            return
        stats = self.stats
        stats.acks_received += 1
        if packet.ece:
            stats.ece_acks += 1
        ack = packet.seq

        # ECN reaction runs on every ACK so subclasses see all echo state,
        # including on duplicates (DCTCP counts marked bytes per window).
        newly_acked = ack - self.highest_acked if ack > self.highest_acked else 0
        self._on_ecn_signal(packet, newly_acked)

        if ack > self.highest_acked:
            self._handle_new_ack(ack, newly_acked)
        elif ack == self.highest_acked and self.send_next > ack:
            self._handle_dup_ack()
        self._try_send()
        # The sender is the ACK's terminal consumer: recycle it.
        release_packet(packet)

    def _handle_new_ack(self, ack: int, newly_acked: int) -> None:
        # RTT sample (RFC 6298, Karn's rule) from the highest segment this
        # ACK newly covers that has a recorded, never-retransmitted send time.
        sample: Optional[float] = None
        now = self._q.now
        send_times = self._send_times
        retransmitted = self._retransmitted_segments
        for seq in range(self.highest_acked, ack):
            sent = send_times.pop(seq, None)
            if sent is not None and seq not in retransmitted:
                sample = now - sent
        if sample is not None:
            if self._srtt is None:
                self._srtt = sample
                self._rttvar = sample / 2.0
            else:
                self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
                self._srtt = 0.875 * self._srtt + 0.125 * sample
            self.rto = min(
                self.max_rto, max(self.min_rto, self._srtt + 4.0 * self._rttvar)
            )
        self.highest_acked = ack
        self._dup_acks = 0

        if self._in_recovery:
            if ack >= self._recovery_point:
                self._in_recovery = False
                self.cwnd = self.ssthresh
            else:
                # NewReno partial ACK: the next hole was lost too.
                self._retransmit(ack, kind="partial-ack")
        elif self.cwnd < self.ssthresh:  # slow start
            self.cwnd = min(self.cwnd + newly_acked, self.MAX_CWND_SEGMENTS)
        else:  # congestion avoidance
            self.cwnd = min(
                self.cwnd + newly_acked / max(self.cwnd, 1.0),
                self.MAX_CWND_SEGMENTS,
            )

        self._on_window_boundary()

        if ack >= self.total_segments:
            self._complete()
            return
        if self.send_next > ack:
            self._rto_timer.restart(self.rto)
        else:
            self._rto_timer.cancel()

    def _handle_dup_ack(self) -> None:
        self._dup_acks += 1
        if self._dup_acks == 3 and not self._in_recovery:
            self.stats.fast_retransmits += 1
            self._enter_recovery()
            self._retransmit(self.highest_acked)

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recovery_point = self.send_next
        old_cwnd = self.cwnd
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        if self.telemetry is not None:
            self.telemetry.on_cwnd(self, old_cwnd, self.cwnd, "fast-recovery")

    # ------------------------------------------------------------ ECN hooks

    def _on_ecn_signal(self, ack: Packet, newly_acked: int) -> None:
        """Subclass hook: react to the ACK's ECN-Echo state."""

    def _on_window_boundary(self) -> None:
        """Subclass hook: called after cumulative progress (DCTCP's
        once-per-window alpha update lives here)."""

    def _halve_window(self) -> None:
        """Classic multiplicative decrease used by the Reno variant."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh

    # ------------------------------------------------------------- RTO path

    @property
    def smoothed_rtt(self) -> Optional[float]:
        """Most recent smoothed RTT estimate, if any ACK sampled one."""
        return self._srtt

    def _on_rto(self) -> None:
        if self.completed:
            return
        self.stats.timeouts += 1
        if self.telemetry is not None:
            self.telemetry.on_timer(self, self.rto)
            self.telemetry.on_cwnd(self, self.cwnd, 1.0, "rto")
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self._dup_acks = 0
        self._in_recovery = False
        # Go-back-N: rewind and mark the head segment for retransmission.
        for seq in range(self.highest_acked, self.send_next):
            self._retransmitted_segments.add(seq)
            self._send_times.pop(seq, None)
        self.send_next = self.highest_acked
        self.rto = min(self.rto * 2.0, self.max_rto)
        self._rto_timer.restart(self.rto)
        self._try_send()

    # ------------------------------------------------------------ completion

    def _complete(self) -> None:
        self.completed = True
        self.completion_time = self.sim.now
        self._rto_timer.cancel()
        self.host.unregister_endpoint(self.flow_id)
        if self.telemetry is not None:
            self.telemetry.on_flow_complete(
                self, self.completion_time - self.start_time
            )
        if self.on_complete is not None:
            self.on_complete(self)
