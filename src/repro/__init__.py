"""Gryphon guaranteed delivery — exactly-once content-based publish-subscribe.

A from-scratch reproduction of *"Exactly-once Delivery in a Content-based
Publish-Subscribe System"* (Bhola, Strom, Bagchi, Zhao, Auerbach — DSN
2002): the knowledge/curiosity model, the guaranteed-delivery broker
protocol with soft state and stable storage only at the publishing
broker, cells and link bundles with sideways routing, content-based
matching, a deterministic discrete-event simulator used as the evaluation
substrate, fault injection, and best-effort / store-and-forward baselines.

Quickstart::

    from repro import figure3_topology, LivenessParams

    system = figure3_topology(n_pubends=1).build(seed=7)
    alice = system.subscribe("alice", "s1", ("P0",), "price > 10")
    pub = system.publisher("P0", rate=25.0,
                           make_attributes=lambda i: {"price": i})
    pub.start(at=0.5)
    system.run_until(5.0)
    print(alice.count(), "messages delivered exactly once, in order")
"""

from .check import (
    ORACLES,
    CampaignReport,
    OracleFailure,
    OracleSuite,
    RunResult,
    Scenario,
    fuzz,
    run_scenario,
    run_seed,
    scenario_seed,
    shrink,
)
from .client import DeliveryChecker, PublisherClient, SubscriberClient
from .core.config import INFINITY, PAPER_FAULT_PARAMS, LivenessParams
from .facade import SystemFacade
from .core.edges import FilterEdge, MergeView, MATCH_ALL
from .core.lattice import C, K
from .core.messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
)
from .core.pubend import Pubend
from .core.streams import CuriosityStream, KnowledgeStream, Stream
from .core.subend import SubendManager, Subscription
from .core.ticks import Tick, TickRange
from .matching.ast import Predicate
from .matching.engine import BruteForceMatcher, IndexedMatcher
from .matching.tree import MatchingTree
from .matching.events import Event
from .matching.parser import parse as parse_subscription
from .metrics.cpu import CostModel, CpuAccountant
from .obs.exporters import json_lines, parse_prometheus, prometheus_text
from .obs.hub import MetricsHub
from .obs.instruments import Instruments
from .obs.observability import Observability
from .storage.log import FileLog, MemoryLog
from .topology import System, Topology, figure3_topology, two_broker_topology

__version__ = "1.0.0"

__all__ = [
    "AckExpectedMessage",
    "AckMessage",
    "BruteForceMatcher",
    "C",
    "CampaignReport",
    "CostModel",
    "CpuAccountant",
    "CuriosityStream",
    "DataTick",
    "DeliveryChecker",
    "Event",
    "FileLog",
    "FilterEdge",
    "INFINITY",
    "IndexedMatcher",
    "Instruments",
    "K",
    "KnowledgeMessage",
    "KnowledgeStream",
    "LivenessParams",
    "MATCH_ALL",
    "MatchingTree",
    "MemoryLog",
    "MergeView",
    "MetricsHub",
    "NackMessage",
    "ORACLES",
    "Observability",
    "OracleFailure",
    "OracleSuite",
    "PAPER_FAULT_PARAMS",
    "Predicate",
    "Pubend",
    "PublisherClient",
    "RunResult",
    "Scenario",
    "Stream",
    "SubendManager",
    "SubscriberClient",
    "Subscription",
    "System",
    "SystemFacade",
    "Tick",
    "TickRange",
    "Topology",
    "figure3_topology",
    "fuzz",
    "json_lines",
    "parse_prometheus",
    "parse_subscription",
    "prometheus_text",
    "run_scenario",
    "run_seed",
    "scenario_seed",
    "shrink",
    "two_broker_topology",
    "__version__",
]
