"""Property tests for the transport's single delivery path.

Attaching observers must never change what the network does: with a
no-op tap and drop tap attached, the transport emits the same trace
events, keeps the same stats and makes the same deliveries as without
them.  Likewise a :class:`FaultyTransport` whose plan never fires is
indistinguishable from the plain :class:`Transport`.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultyTransport
from repro.faults.plan import (
    FaultPlan,
    GilbertElliottConfig,
    LatencySpike,
    Partition,
    RoutedSinkhole,
)
from repro.net.address import Subnet, parse_ip
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.obs import MetricsRegistry, Tracer, runtime
from repro.sim.scheduler import Scheduler

#: Four routable endpoints, one NATed endpoint (reachable only through
#: punch-holes) and one that is never bound.
ENDPOINTS = [Endpoint(parse_ip(f"198.51.100.{i + 1}"), 5000 + i) for i in range(4)] + [
    Endpoint(parse_ip("203.0.113.9"), 40001),
    Endpoint(parse_ip("192.0.2.77"), 6000),
]
NATTED = 4
UNBOUND = 5

#: Every fault window opens long after the scenario ends, and the burst
#: channel never leaves its lossless good state in practice.
DORMANT_PLAN = FaultPlan(
    name="dormant",
    gilbert_elliott=GilbertElliottConfig.for_mean_loss(0.0),
    latency_spikes=(LatencySpike(start=1e6, duration=10.0, extra_min=1.0, extra_max=2.0),),
    partitions=(Partition.parse(1e6, 10.0, ("198.51.100.0/24",), ("203.0.113.0/24",)),),
    sinkholes=(
        RoutedSinkhole(
            start=1e6, duration=10.0, prefix=Subnet.parse("198.51.100.0/24"),
            target_ip=parse_ip("192.0.2.77"), target_port=6000,
        ),
    ),
)

index = st.integers(min_value=0, max_value=len(ENDPOINTS) - 1)
scenarios = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "loss_rate": st.sampled_from([0.0, 0.1, 0.5]),
        "duplicate_rate": st.sampled_from([0.0, 0.2]),
        "reorder_rate": st.sampled_from([0.0, 0.2]),
        "sends": st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                index,
                index,
                st.sampled_from([b"ping", b"data"]),
            ),
            max_size=40,
        ),
        # When one routable endpoint goes away, so in-flight messages to
        # it hit the unbound-destination drop.
        "unbind_at": st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0)),
    }
)


def _run(scenario, *, taps=False, plan=None):
    """Play ``scenario`` on a traced transport; everything observable."""
    scheduler = Scheduler()
    tracer = Tracer()
    metrics = MetricsRegistry()
    config = TransportConfig(
        latency_min=0.01,
        latency_max=0.3,
        loss_rate=scenario["loss_rate"],
        duplicate_rate=scenario["duplicate_rate"],
        reorder_rate=scenario["reorder_rate"],
    )
    rng = random.Random(scenario["seed"])
    with runtime.activated(tracer=tracer, metrics=metrics):
        if plan is None:
            transport = Transport(scheduler, rng, config=config, recycle_messages=True)
        else:
            transport = FaultyTransport(
                scheduler, rng, plan=plan, fault_rng=random.Random(scenario["seed"] + 1),
                config=config, recycle_messages=True,
            )
        seen = {"taps": 0, "drops": []}
        if taps:
            transport.add_tap(lambda message, delivered: seen.__setitem__("taps", seen["taps"] + 1))
            transport.add_drop_tap(lambda message, reason: seen["drops"].append(reason))
        deliveries = []

        def handler_for(node):
            def handle(message):
                # Recycled envelopes: record fields, never the Message.
                deliveries.append(
                    (node, message.src, message.payload, message.sent_at, message.delivered_at)
                )
                if message.payload == b"ping":
                    transport.send(message.dst, message.src, b"pong")
            return handle

        for node, endpoint in enumerate(ENDPOINTS[:UNBOUND]):
            transport.bind(endpoint, handler_for(node), routable=node != NATTED)
        if scenario["unbind_at"] is not None:
            scheduler.call_at(scenario["unbind_at"], transport.unbind, ENDPOINTS[3])
        for at, src, dst, payload in scenario["sends"]:
            scheduler.call_at(at, transport.send, ENDPOINTS[src], ENDPOINTS[dst], payload)
        scheduler.run()
    net_metrics = {k: v for k, v in metrics.snapshot().items() if k.startswith("net.")}
    trace = [event.to_dict() for event in tracer.events()]
    return (trace, transport.stats, deliveries, net_metrics), seen


@given(scenario=scenarios)
@settings(max_examples=60, deadline=None)
def test_taps_do_not_change_delivery(scenario):
    """Same trace stream, stats, deliveries and metrics with and
    without a no-op tap and drop tap attached."""
    bare, _ = _run(scenario)
    tapped, seen = _run(scenario, taps=True)
    assert tapped == bare
    stats = tapped[1]
    dropped = stats.dropped_loss + stats.dropped_unroutable + stats.dropped_unbound_dst
    # The taps really were on the path: the plain tap sees every
    # delivery attempt, the drop tap every drop plus source rejections.
    assert seen["taps"] == stats.delivered + dropped
    assert len(seen["drops"]) == dropped + stats.rejected_unbound_src


@given(scenario=scenarios)
@settings(max_examples=60, deadline=None)
def test_dormant_fault_plan_matches_plain_transport(scenario):
    """A FaultyTransport whose plan never fires replays the plain
    transport exactly, RNG draws included."""
    plain, _ = _run(scenario)
    faulty, _ = _run(scenario, plan=DORMANT_PLAN)
    assert faulty == plain
