"""Virtual/physical topology builder and complete simulated systems.

The paper maps *virtual brokers* onto *cells* of physical broker machines
connected by *link bundles* (section 3, Figure 3).  :class:`Topology`
declares cells, physical links, pubend placements and per-pubend spanning
trees over cells; :meth:`Topology.build` realizes the declaration as a
:class:`System`: a deterministic simulator populated with
:class:`~repro.broker.simbroker.SimBroker` processes, clients and fault
injection.

Two canned topologies reproduce the paper's setups:

* :func:`two_broker_topology` — the asymmetric PHB→SHB pair of the
  overhead experiments (section 4.1, Figures 4-5);
* :func:`figure3_topology` — the 10-broker / 8-cell network of the
  failure-injection experiments (section 4.2, Figures 6-8): PHB ``p1``,
  intermediate cells ``IB1`` = {b1, b2} and ``IB2`` = {b3, b4}, SHBs
  ``s1``/``s2`` under IB1 and ``s3``/``s4``/``s5`` under IB2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .broker.simbroker import SimBroker
from .broker.state import BrokerTopologyInfo, PubendRoute
from .core.config import LivenessParams
from .core.edges import FilterEdge, MATCH_ALL
from .client import SimPublisher
from .facade import SystemFacade
from .metrics.cpu import CostModel
from .obs.observability import Observability
from .sim.network import SimNetwork
from .sim.scheduler import Scheduler
from .storage.log import MessageLog

__all__ = [
    "Topology",
    "TopologyPlan",
    "System",
    "two_broker_topology",
    "figure3_topology",
    "balanced_pubend_names",
]


@dataclass
class _PubendDecl:
    pubend: str
    host_broker: str
    preassign_window: Optional[float] = None


@dataclass
class TopologyPlan:
    """A topology resolved into runtime-agnostic facts."""

    #: Per-broker routing/topology info.
    infos: Dict[str, "BrokerTopologyInfo"]
    #: Physical links as (a, b, link-params).
    links: List[Tuple[str, str, Dict[str, Any]]]
    #: Pubend placements as
    #: (pubend_id, host_broker, slot, n_slots, preassign_window).
    pubends: List[Tuple[str, str, int, int, Optional[float]]]


@dataclass
class _TreeEdge:
    parent_cell: str
    child_cell: str
    predicate: Callable[[Any], bool]


class Topology:
    """Declarative description of a Gryphon deployment."""

    def __init__(self) -> None:
        self._cells: Dict[str, List[str]] = {}
        self._cell_of: Dict[str, str] = {}
        self._links: List[Tuple[str, str, Dict[str, Any]]] = []
        self._pubends: Dict[str, _PubendDecl] = {}
        self._trees: Dict[str, List[_TreeEdge]] = {}

    # -- declaration -----------------------------------------------------

    def cell(self, cell_id: str, *brokers: str) -> "Topology":
        """Declare a cell and its physical brokers."""
        if cell_id in self._cells:
            raise ValueError(f"cell {cell_id!r} already declared")
        if not brokers:
            raise ValueError("a cell needs at least one broker")
        self._cells[cell_id] = list(brokers)
        for broker in brokers:
            if broker in self._cell_of:
                raise ValueError(f"broker {broker!r} already in a cell")
            self._cell_of[broker] = cell_id
        return self

    def link(self, a: str, b: str, **params: Any) -> "Topology":
        """Declare a physical link (latency/jitter/drop params pass
        through to :class:`~repro.sim.network.SimLink`)."""
        self._links.append((a, b, params))
        return self

    def physical_links(self) -> List[Tuple[str, str]]:
        """Every declared physical link as ``(a, b)`` endpoint pairs.

        Fault schedulers (e.g. the ``repro.check`` scenario generator)
        target links through this instead of re-deriving the canned
        topologies' wiring by hand, so the fault surface can never drift
        from the topology it is injected into."""
        return [(a, b) for a, b, __ in self._links]

    def pubend(
        self,
        pubend_id: str,
        host_broker: str,
        *,
        preassign_window: Optional[float] = None,
    ) -> "Topology":
        """Place a pubend on its hosting broker (the PHB).

        ``preassign_window`` opts this pubend into pre-assigned finality
        (section 2.2): set it to the pubend's expected publication period
        so downstream merges never wait on it.  ``None`` falls back to
        the system-wide :attr:`LivenessParams.preassign_window`.
        """
        if pubend_id in self._pubends:
            raise ValueError(f"pubend {pubend_id!r} already declared")
        self._pubends[pubend_id] = _PubendDecl(
            pubend_id, host_broker, preassign_window
        )
        self._trees.setdefault(pubend_id, [])
        return self

    def route(
        self,
        pubend_id: str,
        parent_cell: str,
        child_cell: str,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> "Topology":
        """Add an edge of the pubend's spanning tree over cells, with an
        optional filter predicate on the edge."""
        self._trees.setdefault(pubend_id, []).append(
            _TreeEdge(parent_cell, child_cell, predicate or MATCH_ALL)
        )
        return self

    def route_all(
        self, parent_cell: str, child_cell: str,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> "Topology":
        """Add the same tree edge to every declared pubend's tree."""
        for pubend_id in self._pubends:
            self.route(pubend_id, parent_cell, child_cell, predicate)
        return self

    # -- realization -------------------------------------------------------

    def plan(self) -> "TopologyPlan":
        """The topology resolved into per-broker routing facts.

        Shared by every runtime: the simulator's :meth:`build` and the
        asyncio runtime's builder both realize the same plan.
        """
        neighbors: Dict[str, set] = {b: set() for b in self._cell_of}
        for a, b, __ in self._links:
            neighbors[a].add(b)
            neighbors[b].add(a)
        brokers_of_cell = {c: tuple(bs) for c, bs in self._cells.items()}
        infos: Dict[str, BrokerTopologyInfo] = {}
        for cell_id, cell_brokers in self._cells.items():
            routes = self._routes_for_cell(cell_id)
            for broker_id in cell_brokers:
                infos[broker_id] = BrokerTopologyInfo(
                    broker_id=broker_id,
                    cell=cell_id,
                    neighbors=frozenset(neighbors[broker_id]),
                    cell_of=dict(self._cell_of),
                    brokers_of_cell=brokers_of_cell,
                    routes=routes,
                )
        n_slots = max(len(self._pubends), 1)
        pubends = [
            (pubend_id, decl.host_broker, slot, n_slots, decl.preassign_window)
            for slot, (pubend_id, decl) in enumerate(sorted(self._pubends.items()))
        ]
        return TopologyPlan(
            infos=infos,
            links=[(a, b, dict(params)) for a, b, params in self._links],
            pubends=pubends,
        )

    def _tree_children(self, pubend_id: str) -> Dict[str, List[_TreeEdge]]:
        children: Dict[str, List[_TreeEdge]] = {}
        for edge in self._trees.get(pubend_id, []):
            children.setdefault(edge.parent_cell, []).append(edge)
        return children

    def _routes_for_cell(self, cell_id: str) -> Dict[str, PubendRoute]:
        routes: Dict[str, PubendRoute] = {}
        for pubend_id, decl in self._pubends.items():
            root_cell = self._cell_of[decl.host_broker]
            children = self._tree_children(pubend_id)
            # Find this cell's parent in the tree (None at the root;
            # absent entirely if the cell is not in this pubend's tree).
            parent: Optional[str] = None
            in_tree = cell_id == root_cell
            for edge in self._trees.get(pubend_id, []):
                if edge.child_cell == cell_id:
                    parent = edge.parent_cell
                    in_tree = True
            if not in_tree:
                continue
            downstream = {
                edge.child_cell: FilterEdge(edge.predicate, name=f"{pubend_id}->{edge.child_cell}")
                for edge in children.get(cell_id, [])
            }
            subtree = {
                edge.child_cell: frozenset(
                    grandchild.child_cell
                    for grandchild in children.get(edge.child_cell, [])
                )
                for edge in children.get(cell_id, [])
            }
            routes[pubend_id] = PubendRoute(
                pubend=pubend_id,
                upstream_cell=parent,
                downstream=downstream,
                subtree=subtree,
            )
        return routes

    def build(
        self,
        seed: int = 0,
        params: Optional[LivenessParams] = None,
        cost_model: Optional[CostModel] = None,
        log_commit_latency: float = 0.1,
        log_factory: Optional[Callable[[str], MessageLog]] = None,
        client_latency: float = 0.0005,
        broker_factory: Optional[Callable[..., Any]] = None,
    ) -> "System":
        """Realize the topology as a ready-to-run simulated system.

        ``log_commit_latency`` defaults to 100 ms — the paper's observed
        latency gap between GD and best-effort delivery, attributed to
        logging at the PHB (section 4.1).
        """
        params = params if params is not None else LivenessParams()
        scheduler = Scheduler(seed=seed)
        obs = Observability()
        network = SimNetwork(scheduler, instruments=obs.instruments)
        plan = self.plan()
        factory = broker_factory if broker_factory is not None else SimBroker
        brokers: Dict[str, SimBroker] = {}
        for broker_id, info in plan.infos.items():
            broker = factory(
                broker_id,
                network,
                scheduler,
                info,
                params,
                cost_model=cost_model,
                client_latency=client_latency,
                obs=obs,
            )
            network.add_node(broker)
            brokers[broker_id] = broker
        for a, b, link_params in plan.links:
            network.connect(a, b, **link_params)
        system = System(
            scheduler, network, brokers, params, obs, log_commit_latency, log_factory
        )
        system._host_planned_pubends(plan)
        return system


class System(SystemFacade):
    """A built, running simulated deployment (the shared surface is
    :class:`~repro.facade.SystemFacade`'s)."""

    def __init__(
        self,
        scheduler: Scheduler,
        network: SimNetwork,
        brokers: Dict[str, SimBroker],
        params: LivenessParams,
        obs: Observability,
        log_commit_latency: float,
        log_factory: Optional[Callable[[str], MessageLog]],
    ):
        super().__init__(
            network, brokers, params, obs, log_commit_latency, log_factory
        )
        self.scheduler = scheduler
        self.network = network
        self._started = False

    def _new_publisher(
        self, broker: SimBroker, pubend: str, rate: float, **kwargs: Any
    ) -> SimPublisher:
        return SimPublisher(broker, pubend, self.scheduler, rate, **kwargs)

    def crash_broker(self, broker_id: str) -> None:
        self.brokers[broker_id].crash()
        self._report_fault("crash", broker_id)

    def restart_broker(self, broker_id: str) -> None:
        self._clear_stall(broker_id)
        self.brokers[broker_id].restart()
        self._report_fault("restart", broker_id)

    # -- running --------------------------------------------------------------

    def start(self) -> None:
        """Arm all broker timers (idempotent)."""
        if self._started:
            return
        self._started = True
        for broker in self.brokers.values():
            broker.start()

    def run_until(self, deadline: float) -> float:
        """Run the simulation up to ``deadline``; returns the final
        simulated time."""
        self.start()
        self.scheduler.run_until(deadline)
        return self.scheduler.now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` simulated seconds; returns the final
        simulated time."""
        return self.run_until(self.scheduler.now + duration)

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- diagnostics --------------------------------------------------------

    def check_invariants(self) -> None:
        """Deep consistency sweep over every live broker's soft state.

        Asserts the stream invariants (coalesced runs, payloads exactly at
        D ticks, F ⇔ A linkage side conditions) in every istream and
        ostream, and cross-checks that no broker "knows" a data tick the
        hosting pubend never published.  Integration tests call this after
        every scenario; it turns silent state corruption into loud
        failures.
        """
        published: Dict[str, set] = {}
        for broker in self.brokers.values():
            if not broker.alive or getattr(broker, "engine", None) is None:
                continue
            engine = broker.engine
            if not hasattr(engine, "pubends"):
                continue  # baseline brokers keep no GD state
            for pubend_id, pubend in engine.pubends.items():
                published[pubend_id] = {
                    entry.tick for entry in pubend.log.entries(pubend_id)
                }
        from .core.lattice import K

        for broker in self.brokers.values():
            if not broker.alive or getattr(broker, "engine", None) is None:
                continue
            engine = broker.engine
            if not hasattr(engine, "istreams"):
                continue
            for pubend_id, ist in engine.istreams.items():
                ist.stream.check_invariants()
                for cells in (engine.ostreams.get(pubend_id, {}),):
                    for ost in cells.values():
                        ost.stream.check_invariants()
                known = published.get(pubend_id)
                if known is None:
                    continue
                truncated = 0
                host = self.brokers.get(self.pubend_hosts.get(pubend_id, ""))
                if host is not None and getattr(host, "engine", None) is not None:
                    pb = host.engine.pubends.get(pubend_id)
                    if pb is not None:
                        truncated = pb.acked_up_to
                for run, value in ist.stream.knowledge.runs():
                    if value == K.D:
                        for tick in run:
                            assert tick in known or tick < truncated, (
                                f"{broker.node_id} fabricated D tick {tick} "
                                f"of {pubend_id}"
                            )


def two_broker_topology(
    n_intermediate_links: int = 1,
    link_latency: float = 0.002,
) -> Topology:
    """The asymmetric two-broker configuration of section 4.1.

    Publishers connect to ``phb``; subscribers connect to ``shb``; the
    brokers are joined by one link (the paper's 100 Mbps hop).
    """
    topo = Topology()
    topo.cell("PHB", "phb")
    topo.cell("SHB", "shb")
    topo.link("phb", "shb", latency=link_latency)
    return topo


def balanced_pubend_names(n: int, bundle_width: int = 2) -> List[str]:
    """``n`` pubend names whose link-bundle hash spreads evenly over a
    bundle of ``bundle_width`` links.

    The paper's failure tests rely on the 4 pubends splitting 2/2 over
    the two brokers of each intermediate cell ("b1 and b2 were splitting
    the input message load, i.e., each was handling messages from 2 of
    the 4 pubends").  Hashing arbitrary names gives an even split only in
    expectation, so experiment code picks names with the right residues.
    """
    from .broker.engine import stable_hash

    names: List[str] = []
    want = 0
    candidate = 0
    while len(names) < n:
        name = f"P{candidate}"
        candidate += 1
        if stable_hash(name) % bundle_width == want % bundle_width:
            names.append(name)
            want += 1
    return names


def figure3_topology(
    n_pubends: int = 4,
    link_latency: float = 0.002,
    pubend_names: Optional[List[str]] = None,
    preassign: Optional[Mapping[str, float]] = None,
) -> Topology:
    """The 10-broker, 8-cell failure-injection network of Figure 3.

    PHB cell {p1} hosts ``n_pubends`` pubends; intermediate cells
    IB1 = {b1, b2} and IB2 = {b3, b4} each have direct links to p1;
    SHB cells {s1}, {s2} hang off IB1 and {s3}, {s4}, {s5} off IB2.
    All intermediate filters pass everything (section 4.2).
    """
    topo = Topology()
    topo.cell("PHB", "p1")
    topo.cell("IB1", "b1", "b2")
    topo.cell("IB2", "b3", "b4")
    for i in range(1, 6):
        topo.cell(f"SHB{i}", f"s{i}")
    # Fat link PHB->IB1 and PHB->IB2: p1 has a direct link to each
    # intermediate broker.
    for b in ("b1", "b2", "b3", "b4"):
        topo.link("p1", b, latency=link_latency)
    # Cell-internal links for sideways routing.
    topo.link("b1", "b2", latency=link_latency / 2)
    topo.link("b3", "b4", latency=link_latency / 2)
    # IB1 serves s1, s2; IB2 serves s3, s4, s5 — each SHB linked to both
    # brokers of its intermediate cell (the virtual link is a bundle).
    for s in ("s1", "s2"):
        topo.link("b1", s, latency=link_latency)
        topo.link("b2", s, latency=link_latency)
    for s in ("s3", "s4", "s5"):
        topo.link("b3", s, latency=link_latency)
        topo.link("b4", s, latency=link_latency)
    names = (
        list(pubend_names)
        if pubend_names is not None
        else [f"P{k}" for k in range(n_pubends)]
    )
    for name in names:
        topo.pubend(
            name, "p1",
            preassign_window=(preassign or {}).get(name),
        )
    topo.route_all("PHB", "IB1")
    topo.route_all("PHB", "IB2")
    for s in ("SHB1", "SHB2"):
        topo.route_all("IB1", s)
    for s in ("SHB3", "SHB4", "SHB5"):
        topo.route_all("IB2", s)
    return topo
