"""Packet-level discrete-event network simulator (the ns-3/testbed substitute)."""

from . import units
from .engine import SimulationError, SimulationStalled, Simulator, Timer
from .monitor import QueueMonitor, QueueSample
from .network import Host, Network, Node, Switch
from .packet import Ecn, Packet, PacketFactory
from .port import Port, PortStats
from .queues import PacketQueue
from .scheduler import DwrrScheduler, FifoScheduler, Scheduler, StrictPriorityScheduler

__all__ = [
    "units",
    "SimulationError",
    "SimulationStalled",
    "Simulator",
    "Timer",
    "QueueMonitor",
    "QueueSample",
    "Host",
    "Network",
    "Node",
    "Switch",
    "Ecn",
    "Packet",
    "PacketFactory",
    "Port",
    "PortStats",
    "PacketQueue",
    "DwrrScheduler",
    "FifoScheduler",
    "Scheduler",
    "StrictPriorityScheduler",
]
