"""The six ledger workloads, by the names later issues refer to."""

from typing import Dict, Type

from ..harness import Workload
from .campaign import CampaignReplay
from .fluid import FluidSweep
from .packet import IncastBurst, LeafspineDatamining, StarWebsearch
from .service import ServiceQuery

REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (StarWebsearch, LeafspineDatamining, IncastBurst, FluidSweep,
                CampaignReplay, ServiceQuery)
}
