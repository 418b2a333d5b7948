"""Fault injection: the chaos side of the resilience story.

:class:`FaultyTransport` wraps the plain :class:`~repro.net.transport.
Transport` delivery path with the scheduled transport faults of a
:class:`~repro.faults.plan.FaultPlan`; :class:`NodeFaultDriver` plays
the plan's node-level faults (crash-restart, sensor outages, gossip
suppression) through the simulation scheduler.  All stochastic fault
decisions draw from a dedicated fault RNG stream, so chaos never
perturbs the base traffic stream: a run with an empty plan is
bit-identical to one on the plain transport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.plan import (
    CRASH,
    MUTE,
    OUTAGE,
    ASPartition,
    FaultPlan,
    NodeFault,
)
from repro.net.nat import RoutabilityTable
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.obs import runtime as obs
from repro.sim.scheduler import Scheduler


@dataclass
class FaultStats:
    """What the injected faults actually did to the traffic."""

    dropped_burst: int = 0
    dropped_partition: int = 0
    dropped_as_partition: int = 0
    sinkholed: int = 0
    spiked_sends: int = 0
    ge_transitions: int = 0


class FaultyTransport(Transport):
    """A drop-in chaos wrapper around the message fabric.

    Every component keeps talking to a ``Transport``; this subclass
    intercepts the two extension hooks (`_latency`, `_drop_reason`) to
    inject latency spikes, subnet and AS partitions, and Gilbert-Elliott
    burst loss on top of the base behaviour, and re-routes sinkholed
    prefixes before the base delivery runs.  The plan's duplication and
    reordering rates are folded into the wrapped config, where the base
    transport already implements them.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        plan: FaultPlan,
        fault_rng: random.Random,
        config: Optional[TransportConfig] = None,
        routability: Optional[RoutabilityTable] = None,
        recycle_messages: bool = False,
        latency_model: Optional[object] = None,
        topology: Optional[object] = None,
    ) -> None:
        config = config if config is not None else TransportConfig()
        if plan.duplicate_rate or plan.reorder_rate:
            config = replace(
                config,
                duplicate_rate=max(config.duplicate_rate, plan.duplicate_rate),
                reorder_rate=max(config.reorder_rate, plan.reorder_rate),
            )
        super().__init__(
            scheduler,
            rng,
            config=config,
            routability=routability,
            recycle_messages=recycle_messages,
            latency_model=latency_model,
        )
        self.plan = plan
        self.fault_rng = fault_rng
        self.fault_stats = FaultStats()
        self._ge_bad = False
        self.topology = topology
        if plan.as_partitions and topology is None:
            raise ValueError(
                "plan has AS partitions but the transport was built "
                "without a topology (pass topology= / use --topology)"
            )
        # AS-partition separation checks are precomputed once: detach
        # cones become a set test, link cuts a resolver over the cut
        # graph.  Plans stay pure data; graph work happens here.
        self._as_cuts: List[Tuple[ASPartition, Callable[[int, int], bool]]] = [
            (part, _as_cut_check(topology, part)) for part in plan.as_partitions
        ]
        self._sinkhole_targets: Dict[object, Endpoint] = {
            hole: Endpoint(hole.target_ip, hole.target_port)
            for hole in plan.sinkholes
        }
        # Injected-fault counters; drops by reason (partition,
        # burst_loss) are already covered by the base transport.
        registry = obs.metrics()
        self._m_faults = registry.counter("faults.injected", "injected faults by kind")
        self._m_topo_drop = registry.counter(
            "topo.dropped", "AS-partition drops by dst AS"
        )

    # -- fault hooks -----------------------------------------------------

    def _latency(self, src: Endpoint, dst: Endpoint) -> float:
        latency = super()._latency(src, dst)
        now = self.scheduler.now
        for spike in self.plan.latency_spikes:
            if spike.active(now):
                latency += self.fault_rng.uniform(spike.extra_min, spike.extra_max)
                self.fault_stats.spiked_sends += 1
                self._m_faults.labels("latency_spike").inc()
                if self._trace:
                    self._trace.instant(
                        now, "faults", "latency_spike", extra=round(latency, 6)
                    )
        return latency

    def _ge_step(self) -> bool:
        """Advance the burst channel one packet; True means drop."""
        ge = self.plan.gilbert_elliott
        if ge is None:
            return False
        if self._ge_bad:
            if self.fault_rng.random() < ge.p_exit_bad:
                self._ge_bad = False
                self.fault_stats.ge_transitions += 1
                self._m_faults.labels("ge_transition").inc()
                if self._trace:
                    self._trace.instant(
                        self.scheduler.now, "faults", "ge_transition", state="good"
                    )
        elif self.fault_rng.random() < ge.p_enter_bad:
            self._ge_bad = True
            self.fault_stats.ge_transitions += 1
            self._m_faults.labels("ge_transition").inc()
            if self._trace:
                self._trace.instant(
                    self.scheduler.now, "faults", "ge_transition", state="bad"
                )
        loss = ge.loss_bad if self._ge_bad else ge.loss_good
        return bool(loss) and self.fault_rng.random() < loss

    def _deliver(self, src: Endpoint, dst: Endpoint, payload: bytes, sent_at: float) -> None:
        if self._sinkhole_targets:
            now = self.scheduler.now
            for hole, target in self._sinkhole_targets.items():
                if hole.active(now) and hole.matches(dst.ip) and dst != target:
                    self.fault_stats.sinkholed += 1
                    self._m_faults.labels("sinkhole").inc()
                    if self._trace:
                        self._trace.instant(
                            now, "faults", "sinkhole",
                            src=str(src), dst=str(dst), target=str(target),
                        )
                    dst = target
                    break
        super()._deliver(src, dst, payload, sent_at)

    def _drop_reason(self, src: Endpoint, dst: Endpoint, now: float) -> Optional[str]:
        for partition in self.plan.partitions:
            if partition.active(now) and partition.separates(src.ip, dst.ip):
                self.fault_stats.dropped_partition += 1
                return "partition"
        if self._as_cuts:
            topo = self.topology
            src_as = topo.as_of(src.ip)
            dst_as = topo.as_of(dst.ip)
            for as_part, cuts in self._as_cuts:
                if as_part.active(now) and cuts(src_as, dst_as):
                    self.fault_stats.dropped_as_partition += 1
                    label = "unmapped" if dst_as is None else f"AS{dst_as}"
                    self._m_topo_drop.labels(label).inc()
                    return "as_partition"
        reason = super()._drop_reason(src, dst, now)
        if reason is not None:
            return reason
        if self._ge_step():
            self.fault_stats.dropped_burst += 1
            return "burst_loss"
        return None


def _as_cut_check(topology: object, part: ASPartition) -> Callable[[int, int], bool]:
    """Build the drop predicate for one AS partition.

    Returns ``check(src_as, dst_as) -> True`` when the message must be
    dropped.  Endpoints outside every allocated prefix (``None`` AS)
    are never cut -- junk space has no routing to sever.
    """
    if part.detach is not None:
        cone = topology.graph.customer_cone(part.detach)

        def check(src_as: Optional[int], dst_as: Optional[int]) -> bool:
            return (src_as in cone) != (dst_as in cone)

        return check
    from repro.topo.routing import PathResolver

    cut_resolver = PathResolver(topology.graph.without_links(part.cut_links))

    def check(src_as: Optional[int], dst_as: Optional[int]) -> bool:
        if src_as is None or dst_as is None or src_as == dst_as:
            return False
        return not cut_resolver.reachable(src_as, dst_as)

    return check


#: Anything start()/stop()-able: bots, sensors, crawler bases.
Resolvable = Callable[[str], Optional[object]]


class NodeFaultDriver:
    """Plays a plan's node faults against live node objects.

    The driver resolves node ids lazily at fire time through
    ``resolve`` (so it can be installed before, during, or after
    population build) and records an event log for assertions and the
    degradation report.  Crash/outage faults call ``stop()`` then
    ``start()``; mute faults toggle ``gossip_suppressed`` so the node
    keeps answering but stops initiating -- the silent-leader failure
    mode Byzantine voting exists for.
    """

    def __init__(self, scheduler: Scheduler, resolve: Resolvable) -> None:
        self.scheduler = scheduler
        self.resolve = resolve
        self.crashes = 0
        self.outages = 0
        self.mutes = 0
        self.unresolved = 0
        #: (time, node_id, kind, phase) with phase in {"down", "up"}.
        self.events: List[Tuple[float, str, str, str]] = []
        self._trace = obs.tracer()
        self._m_faults = obs.metrics().counter(
            "faults.injected", "injected faults by kind"
        )

    def install(self, plan: FaultPlan) -> int:
        """Schedule every node fault in ``plan`` lying in the future.

        Returns the number of faults scheduled.
        """
        scheduled = 0
        now = self.scheduler.now
        for fault in plan.node_faults:
            if fault.at < now:
                continue
            self.scheduler.call_at(fault.at, self._begin, fault)
            scheduled += 1
        return scheduled

    def _begin(self, fault: NodeFault) -> None:
        node = self.resolve(fault.node_id)
        if node is None:
            self.unresolved += 1
            return
        self.events.append((self.scheduler.now, fault.node_id, fault.kind, "down"))
        self._m_faults.labels(fault.kind).inc()
        if self._trace:
            # One X span per node fault would be nicer, but the end
            # time is only known when _end fires; emit paired instants.
            self._trace.instant(
                self.scheduler.now, "faults", f"{fault.kind}.down",
                node=fault.node_id, duration=fault.duration,
            )
        if fault.kind == MUTE:
            self.mutes += 1
            node.gossip_suppressed = True
        else:
            if fault.kind == CRASH:
                self.crashes += 1
            elif fault.kind == OUTAGE:
                self.outages += 1
            node.stop()
        self.scheduler.call_later(fault.duration, self._end, fault)

    def _end(self, fault: NodeFault) -> None:
        node = self.resolve(fault.node_id)
        if node is None:
            return
        self.events.append((self.scheduler.now, fault.node_id, fault.kind, "up"))
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "faults", f"{fault.kind}.up", node=fault.node_id
            )
        if fault.kind == MUTE:
            node.gossip_suppressed = False
        else:
            node.start()


def resolver_for(*registries: Dict[str, object]) -> Resolvable:
    """Chain node-id lookups over several ``{node_id: node}`` maps."""

    def resolve(node_id: str) -> Optional[object]:
        for registry in registries:
            node = registry.get(node_id)
            if node is not None:
                return node
        return None

    return resolve
