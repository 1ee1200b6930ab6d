"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.base import Aqm
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import Ecn, Packet
from repro.sim.units import gbps, mb, us


@pytest.fixture(autouse=True)
def _hermetic_executor(tmp_path, monkeypatch):
    """Isolate every test from ambient state: no inherited ``REPRO_*``
    setting or hook (the list is the settings table's, so a new knob cannot
    be forgotten), no store or cache call counted by an earlier test's
    ``REPRO_FAULT_INJECT``, and any cache use (e.g. CLI invocations, which
    cache by default) lands in a per-test temp dir instead of
    ``~/.cache/repro``."""
    from repro import settings
    from repro.experiments import faults
    from repro.experiments.executor import set_default_executor

    for variable in settings.VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    faults._COUNTS.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    previous = set_default_executor(None)
    yield
    set_default_executor(previous)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def make_packet(
    flow_id: int = 0,
    seq: int = 0,
    size: int = 1500,
    is_ack: bool = False,
    ecn: int = Ecn.ECT0,
    src: str = "a",
    dst: str = "b",
    service: int = 0,
) -> Packet:
    """A packet with sensible defaults for unit tests."""
    return Packet(
        flow_id=flow_id,
        src=src,
        dst=dst,
        seq=seq,
        size=size,
        is_ack=is_ack,
        ecn=ecn,
        service=service,
    )


def make_two_host_network(
    rate_bps: float = gbps(10),
    link_delay: float = us(2),
    buffer_bytes: int = mb(1),
    aqm_to_b: Aqm = None,
):
    """host a -- switch -- host b, returning (network, a, b, switch_to_b_port)."""
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    sw = net.add_switch("sw")
    net.connect(a, sw, rate_bps, link_delay, buffer_bytes)
    _, sw_to_b = net.connect(
        b, sw, rate_bps, link_delay, buffer_bytes, aqm_b_to_a=aqm_to_b
    )
    net.compute_routes()
    return net, a, b, sw_to_b


class StampedPacket:
    """Duck-typed packet with a controllable sojourn time, for AQM units."""

    def __init__(self, sojourn: float, ecn: int = Ecn.ECT0, size: int = 1500) -> None:
        self._sojourn = sojourn
        self.ecn = ecn
        self.size = size

    def sojourn_time(self, now: float) -> float:
        return self._sojourn

    def mark_ce(self) -> None:
        if self.ecn == Ecn.NOT_ECT:
            raise ValueError("cannot CE-mark a not-ECT packet")
        self.ecn = Ecn.CE

    @property
    def ce_marked(self) -> bool:
        return self.ecn == Ecn.CE
