"""Seeded fuzz scenarios: topology + workload + fault schedule from one int.

A :class:`Scenario` is a *complete, declarative* description of one
adversarial end-to-end run: which topology to build (chains, trees, and
redundant-path networks over :class:`~repro.topology.Topology`), which
publishers and subscribers to attach, the ambient link pathology (drop
probability, jitter), and a schedule of :class:`FaultSpec` injections
(crash/restart, stall-then-crash, stall-then-restart, link outages,
drop and reorder bursts, and — where there are files and frames — log
and wire corruption and a full disk).

Two properties make scenarios useful as a fuzzing substrate:

* **Determinism** — :func:`generate` is a pure function of an integer
  seed, and a scenario replays bit-identically because everything
  downstream (the simulator, the link RNG, the workload) derives from
  ``scenario.seed``.  Same seed, same schedule, same verdicts.
* **Serializability** — scenarios round-trip through JSON
  (:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`), which is what
  lets the shrinker emit a minimized failing schedule as a repro file
  that ``tests/corpus/`` replays forever after.

The generator only produces *fair* schedules: every fault heals before
the quiescent drain begins, subscriber-hosting brokers are never crashed
(the paper's guarantee covers subscribers that stay connected), and every
crash is paired with a restart — so the paper's service specification
must hold, and any oracle failure is a protocol bug (or an intentional
ablation via :attr:`Scenario.disable_recovery`).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import INFINITY, LivenessParams
from ..topology import Topology, balanced_pubend_names, figure3_topology

__all__ = [
    "FaultSpec",
    "Step",
    "PublisherSpec",
    "SubscriberSpec",
    "Scenario",
    "TopologyMeta",
    "generate",
    "chaos_scenario",
    "build_topology",
    "scenario_seed",
    "FORMAT",
]

#: Repro-file format tag (bump on incompatible schema changes).
FORMAT = "repro-fuzz/1"

#: The *simulated-clock* preset: liveness fast enough that a faulted run
#: drains in seconds of simulated time.  Every scenario runs under it (the
#: asyncio driver scales it to wall-clock time); the wall-clock deployment
#: preset is :data:`repro.aio.chaos.FAST_PARAMS`.
FAST_PARAMS = LivenessParams(gct=0.1, nrt_min=0.3, aet=3.0, dct=INFINITY)

#: Subscription predicates the generator samples from (``None`` = all).
PREDICATE_POOL: Tuple[Optional[str], ...] = (None, None, "g = 0", "g > 0", "g = 1")


#: One timed fault verb: ``(t, verb, args, kwargs)``.
Step = Tuple[float, str, Tuple[str, ...], Dict[str, float]]

#: Burst kind -> the ``set_link_pathology`` argument its intensity sets,
#: and whether that argument is measured in seconds.  (A corrupted message
#: is detected by checksum and discarded at the receiver; the simulator's
#: verb folds that into loss.)
BURST_KINDS = {
    "drop_burst": ("drop_probability", False),
    "reorder_burst": ("jitter", True),
    "corrupt_burst": ("corrupt_probability", False),
}

#: Integrity faults: each is one verb of the same name on
#: :class:`~repro.aio.runtime.AioSystem`, mapped here to (the instrument
#: that must count its detection, the failure when it never did).  They
#: exist only where there are files and frames, so the simulator driver
#: strips them (:func:`repro.check.runner.normalize_for_transport`).
INTEGRITY_KINDS = {
    "corrupt_log": (
        "log_records_quarantined",
        "injected log corruption was never quarantined on replay",
    ),
    "corrupt_wire": (
        "aio_frames_rejected_crc",
        "injected wire corruption was never rejected by checksum",
    ),
    "disk_full": (
        "log_append_errors",
        "injected disk-full fault never surfaced as a log append error",
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` is ``(broker,)`` for broker faults, ``(a, b)`` for link
    faults and ``()`` for ``corrupt_wire`` (the next frame, whichever link
    carries it).  ``duration`` is the outage/downtime/burst length (0 for
    the one-shot integrity faults), ``stall`` the pre-failure sick window
    (paper section 4.2), and ``intensity`` the burst drop probability or
    jitter.
    """

    kind: str
    target: Tuple[str, ...]
    at: float
    duration: float
    stall: float = 0.0
    intensity: float = 0.0

    #: When the fault has fully healed.
    @property
    def healed_at(self) -> float:
        return self.at + self.stall + self.duration

    def describe(self, time_scale: float = 1.0) -> str:
        return f"{self.kind}({'-'.join(self.target)}) @ {self.at * time_scale:.2f}"

    def steps(self, time_scale: float = 1.0) -> List[Step]:
        """This fault as timed fault verbs ``(t, verb, args, kwargs)`` —
        the one place a fault kind is translated.  An executor applies
        each as ``getattr(target, verb)(*args, **kwargs)`` at time ``t``
        on any :class:`~repro.facade.SystemFacade`; the stall kinds use
        the paper's sick-but-alive window on both backends.
        ``time_scale`` multiplies every quantity measured in seconds."""
        kind = self.kind
        start = self.at * time_scale
        failed = (self.at + self.stall) * time_scale
        healed = self.healed_at * time_scale

        def step(t: float, verb: str, **kwargs: float) -> Step:
            return (t, verb, self.target, kwargs)

        if kind == "crash":
            return [step(start, "crash_broker"), step(healed, "restart_broker")]
        if kind == "stall_crash":
            return [
                step(start, "stall_broker"),
                step(failed, "unstall_broker"),
                step(failed, "crash_broker"),
                step(healed, "restart_broker"),
            ]
        if kind == "stall_restart":
            # Stall with no intervening crash; the restart must clear the
            # sickness (a regression the fuzzer guards).
            return [step(start, "stall_broker"), step(healed, "restart_broker")]
        if kind == "link_fail":
            return [step(start, "fail_link"), step(healed, "recover_link")]
        if kind == "stall_link_fail":
            return [
                step(start, "stall_link"),
                step(failed, "fail_link"),
                step(healed, "recover_link"),
            ]
        if kind in BURST_KINDS:
            argument, in_seconds = BURST_KINDS[kind]
            value = self.intensity * time_scale if in_seconds else self.intensity
            return [
                step(start, "set_link_pathology", **{argument: value}),
                step(healed, "clear_link_pathology"),
            ]
        if kind in INTEGRITY_KINDS:
            return [step(start, kind)]
        raise ValueError(f"unknown fault kind {kind!r}")


@dataclass(frozen=True)
class PublisherSpec:
    """A constant-rate publisher; events carry ``{"g": seq % modulus}``."""

    pubend: str
    rate: float
    modulus: int = 3


@dataclass(frozen=True)
class SubscriberSpec:
    subscriber: str
    broker: str
    pubends: Tuple[str, ...]
    predicate: Optional[str] = None
    total_order: bool = False


@dataclass(frozen=True)
class Scenario:
    """A complete, replayable adversarial run."""

    seed: int
    topology: str  # "two_broker" | "chain" | "figure3"
    pubends: Tuple[str, ...] = ()
    publishers: Tuple[PublisherSpec, ...] = ()
    subscribers: Tuple[SubscriberSpec, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    #: Chain depth (intermediate cells) for ``topology == "chain"``.
    chain_cells: int = 1
    #: Two brokers per intermediate cell (redundant paths / link bundles).
    redundant: bool = False
    #: Ambient link pathology applied to every link for the whole run.
    drop_probability: float = 0.0
    jitter: float = 0.0
    #: Publishers stop at ``publish_until``; oracles give their final
    #: verdict after the quiescent drain at ``drain_until``.
    publish_until: float = 6.0
    drain_until: float = 26.0
    #: Intentional-break flag: disable every recovery path (GCT, DCT and
    #: AET all infinite) so lost messages stay lost.  Used to validate
    #: that the oracle suite actually catches liveness violations.
    disable_recovery: bool = False
    #: Batched knowledge propagation (LivenessParams.flush_delay): 0 is
    #: the immediate-send default; > 0 exercises delta flushing under the
    #: same oracles.  Older repro files without the field load as 0.
    flush_delay: float = 0.0
    note: str = ""

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        obj = asdict(self)
        obj["format"] = FORMAT
        obj["publishers"] = [asdict(p) for p in self.publishers]
        obj["subscribers"] = [asdict(s) for s in self.subscribers]
        obj["faults"] = [asdict(f) for f in self.faults]
        obj["pubends"] = list(self.pubends)
        return obj

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "Scenario":
        data = dict(obj)
        fmt = data.pop("format", FORMAT)
        if fmt != FORMAT:
            raise ValueError(f"unsupported scenario format {fmt!r}")
        data["pubends"] = tuple(data.get("pubends", ()))
        data["publishers"] = tuple(
            PublisherSpec(**p) for p in data.get("publishers", ())
        )
        data["subscribers"] = tuple(
            SubscriberSpec(
                **{**s, "pubends": tuple(s.get("pubends", ()))}
            )
            for s in data.get("subscribers", ())
        )
        data["faults"] = tuple(
            FaultSpec(**{**f, "target": tuple(f.get("target", ()))})
            for f in data.get("faults", ())
        )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # -- derived ---------------------------------------------------------

    def params(self) -> LivenessParams:
        params = FAST_PARAMS
        if self.disable_recovery:
            params = replace(params, gct=INFINITY, dct=INFINITY, aet=INFINITY)
        if self.flush_delay > 0:
            params = replace(params, flush_delay=self.flush_delay)
        return params

    def with_(self, **changes: Any) -> "Scenario":
        return replace(self, **changes)

    def fault_steps(self, time_scale: float = 1.0) -> List[Step]:
        """The whole fault schedule as timed verbs, in time order (see
        :meth:`FaultSpec.steps`)."""
        steps = [step for fault in self.faults for step in fault.steps(time_scale)]
        return sorted(steps, key=lambda step: step[0])


@dataclass
class TopologyMeta:
    """Side facts about a built scenario topology the generator and the
    fault scheduler need: which brokers may crash (no subscribers live
    there), where subscribers may attach, and the physical link list."""

    topo: Topology
    shb_brokers: List[str] = field(default_factory=list)
    crashable_brokers: List[str] = field(default_factory=list)
    links: List[Tuple[str, str]] = field(default_factory=list)


def build_topology(scenario: Scenario) -> TopologyMeta:
    """Realize the scenario's topology declaration (deterministically)."""
    if scenario.topology == "two_broker":
        topo = Topology()
        topo.cell("PHB", "phb")
        topo.cell("SHB", "shb")
        topo.link("phb", "shb", latency=0.002)
        for name in scenario.pubends:
            topo.pubend(name, "phb")
        topo.route_all("PHB", "SHB")
        return TopologyMeta(
            topo,
            shb_brokers=["shb"],
            crashable_brokers=["phb"],
            links=topo.physical_links(),
        )
    if scenario.topology == "chain":
        return _chain_topology(scenario)
    if scenario.topology == "figure3":
        topo = figure3_topology(
            n_pubends=len(scenario.pubends),
            pubend_names=list(scenario.pubends),
        )
        return TopologyMeta(
            topo,
            shb_brokers=[f"s{i}" for i in range(1, 6)],
            crashable_brokers=["p1", "b1", "b2", "b3", "b4"],
            links=topo.physical_links(),
        )
    raise ValueError(f"unknown scenario topology {scenario.topology!r}")


def _chain_topology(scenario: Scenario) -> TopologyMeta:
    """PHB -> N intermediate cells -> SHB; redundant cells have 2 brokers.

    With ``redundant=True`` every intermediate cell is a 2-broker link
    bundle, so the chain exercises sideways routing and bundle selection
    exactly like the paper's Figure 3 interior.
    """
    topo = Topology()
    meta = TopologyMeta(topo)
    topo.cell("PHB", "phb")
    cells: List[Tuple[str, List[str]]] = [("PHB", ["phb"])]
    for i in range(scenario.chain_cells):
        if scenario.redundant:
            brokers = [f"m{i}a", f"m{i}b"]
        else:
            brokers = [f"m{i}"]
        topo.cell(f"MID{i}", *brokers)
        cells.append((f"MID{i}", brokers))
    topo.cell("SHB", "shb")
    cells.append(("SHB", ["shb"]))
    for (__, upstream), (___, downstream) in zip(cells, cells[1:]):
        for a in upstream:
            for b in downstream:
                topo.link(a, b, latency=0.002)
        if len(downstream) == 2:
            topo.link(downstream[0], downstream[1], latency=0.001)
    meta.links = topo.physical_links()
    for name in scenario.pubends:
        topo.pubend(name, "phb")
    for (parent, __), (child, ___) in zip(cells, cells[1:]):
        topo.route_all(parent, child)
    meta.shb_brokers = ["shb"]
    meta.crashable_brokers = ["phb"] + [
        b for __, brokers in cells[1:-1] for b in brokers
    ]
    return meta


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

#: Knuth-style multiplicative mix so base seeds and run indexes never
#: produce overlapping scenario streams.
def scenario_seed(base: int, index: int) -> int:
    return (base * 2654435761 + index * 40503 + 12345) % (2**31)


def generate(seed: int) -> Scenario:
    """The scenario for ``seed`` — a pure, deterministic function."""
    rng = random.Random(seed)
    topology = rng.choice(("two_broker", "chain", "chain", "figure3"))
    chain_cells = rng.randint(1, 2) if topology == "chain" else 1
    redundant = rng.random() < 0.5 if topology == "chain" else False

    n_pubends = rng.randint(1, 2)
    if topology == "figure3" or redundant:
        # Balanced names split evenly over 2-wide link bundles.
        pubends = tuple(balanced_pubend_names(max(n_pubends, 2)))
    else:
        pubends = tuple(f"P{k}" for k in range(n_pubends))

    publishers = tuple(
        PublisherSpec(
            pubend=name,
            rate=round(rng.uniform(15.0, 35.0), 1),
            modulus=rng.randint(2, 4),
        )
        for name in pubends
    )

    publish_until = round(rng.uniform(5.0, 7.0), 2)
    drain_until = publish_until + 20.0

    base = Scenario(
        seed=seed,
        topology=topology,
        pubends=pubends,
        publishers=publishers,
        chain_cells=chain_cells,
        redundant=redundant,
        publish_until=publish_until,
        drain_until=drain_until,
    )
    meta = build_topology(base)

    subscribers: List[SubscriberSpec] = []
    n_subs = rng.randint(1, min(3, len(meta.shb_brokers) + 1))
    total_order_run = rng.random() < 0.25
    for i in range(n_subs):
        broker = rng.choice(meta.shb_brokers)
        if total_order_run:
            # Total-order subscribers share the merge and match everything
            # so their delivered sequences must be identical after drain.
            subscribers.append(
                SubscriberSpec(
                    subscriber=f"c{i}", broker=broker, pubends=pubends,
                    predicate=None, total_order=True,
                )
            )
        else:
            subscribers.append(
                SubscriberSpec(
                    subscriber=f"c{i}", broker=broker, pubends=pubends,
                    predicate=rng.choice(PREDICATE_POOL), total_order=False,
                )
            )

    faults = tuple(_generate_faults(rng, meta, publish_until))
    drop = round(rng.uniform(0.0, 0.08), 3) if rng.random() < 0.6 else 0.0
    jitter = round(rng.uniform(0.0, 0.02), 4) if rng.random() < 0.4 else 0.0
    # Drawn last so pre-existing seeds keep their fault schedules intact.
    flush_delay = (
        round(rng.uniform(0.01, 0.08), 3) if rng.random() < 0.25 else 0.0
    )

    return base.with_(
        subscribers=tuple(subscribers),
        faults=faults,
        drop_probability=drop,
        jitter=jitter,
        flush_delay=flush_delay,
    )


def _generate_faults(
    rng: random.Random, meta: TopologyMeta, publish_until: float
) -> List[FaultSpec]:
    kinds = (
        "crash",
        "stall_crash",
        "stall_restart",
        "link_fail",
        "stall_link_fail",
        "drop_burst",
        "reorder_burst",
        # Wire corruption on one link: the receiving transport detects
        # each damaged message by checksum and discards it, so at the
        # protocol level a corrupt burst IS a drop burst (detect-and-
        # discard) — the sim leg models it as loss, the aio leg counts
        # checksum rejects.  Adding the kind reshuffles freshly generated
        # schedules; persisted corpus scenarios carry explicit faults and
        # are unaffected.
        "corrupt_burst",
    )
    faults: List[FaultSpec] = []
    heal_deadline = publish_until + 3.0
    for __ in range(rng.randint(0, 5)):
        kind = rng.choice(kinds)
        at = round(rng.uniform(0.8, publish_until - 0.5), 2)
        duration = round(rng.uniform(0.3, 2.5), 2)
        stall = (
            round(rng.uniform(0.2, 1.2), 2)
            if kind in ("stall_crash", "stall_link_fail")
            else 0.0
        )
        if kind in ("crash", "stall_crash", "stall_restart"):
            target: Tuple[str, ...] = (rng.choice(meta.crashable_brokers),)
            intensity = 0.0
        else:
            target = rng.choice(meta.links)
            intensity = {
                "drop_burst": round(rng.uniform(0.2, 0.6), 2),
                "reorder_burst": round(rng.uniform(0.01, 0.05), 3),
                "corrupt_burst": round(rng.uniform(0.2, 0.6), 2),
            }.get(kind, 0.0)
        fault = FaultSpec(
            kind=kind, target=target, at=at, duration=duration,
            stall=stall, intensity=intensity,
        )
        if fault.healed_at <= heal_deadline:
            faults.append(fault)
    return sorted(faults, key=lambda f: (f.at, f.kind, f.target))


def chaos_scenario(
    seed: int, duration: float, corrupt_rate: float = 0.0
) -> Scenario:
    """The chaos scenario for ``seed``: ``duration`` seconds of traffic
    from two pubends down the chain ``phb — m0 — shb`` under the paper's
    §4.2 fault pattern — a pure function, like :func:`generate`.

    Always one crash/restart of the publisher-hosting broker (the
    acceptance case: exactly-once across a PHB crash, which on the asyncio
    runtime is log replay from disk) and one link outage; half the seeds
    add an intermediate-broker crash (pure soft-state recovery).  Every
    outage closes before ``0.72 * duration``, leaving the tail of the
    publish window for organic recovery.

    ``corrupt_rate`` adds each integrity fault (:data:`INTEGRITY_KINDS`;
    what each does is on the :class:`~repro.aio.runtime.AioSystem` verb of
    its name) with that probability — at 1.0, all of: ``corrupt_log`` at
    the midpoint of the PHB outage, while the log files are closed (the
    oldest record was delivered long before, so quarantining it must not
    cost a delivery — only prove detection); ``corrupt_wire`` during the
    fault window; ``disk_full`` after every outage has healed.  These
    draws come last, so the base fault pattern of a seed is unchanged by
    ``corrupt_rate``.
    """
    rng = random.Random(seed)
    window_lo, window_hi = 0.2 * duration, 0.72 * duration

    def outage(kind: str, *target: str) -> FaultSpec:
        start = rng.uniform(window_lo, window_hi - 0.15 * duration)
        end = min(start + rng.uniform(0.15, 0.3) * duration, window_hi)
        return FaultSpec(kind, target, at=start, duration=end - start)

    phb_crash = outage("crash", "phb")
    faults = [
        phb_crash,
        outage("link_fail", *rng.choice([("phb", "m0"), ("m0", "shb")])),
    ]
    if rng.random() < 0.5:
        faults.append(outage("crash", "m0"))
    for kind, target, at in (
        ("corrupt_log", ("phb",), lambda: phb_crash.at + phb_crash.duration / 2.0),
        ("corrupt_wire", (), lambda: rng.uniform(window_lo, window_hi)),
        ("disk_full", ("phb",), lambda: 0.8 * duration),
    ):
        if rng.random() < corrupt_rate:
            faults.append(FaultSpec(kind, target, at=at(), duration=0.0))
    pubends = ("P0", "P1")
    return Scenario(
        seed=seed,
        topology="chain",
        pubends=pubends,
        publishers=tuple(PublisherSpec(name, rate=20.0) for name in pubends),
        subscribers=(SubscriberSpec("c0", "shb", pubends),),
        faults=tuple(sorted(faults, key=lambda f: (f.at, f.kind, f.target))),
        publish_until=duration,
        drain_until=duration + 20.0,
    )
