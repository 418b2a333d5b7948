"""Property-based tests for the struct-of-arrays peer lists.

Every node runs on :class:`repro.botnets.state.SlabPeerList`; the
object-per-entry :class:`repro.botnets.base.PeerList` is its reference
model.  Random operation sequences applied to both produce identical
return values and identical views, and lists sharing one slab never
leak into each other.

Plus the scheduler tie-break property the batched dispatch loop must
preserve: same-timestamp events fire in insertion order, regardless of
which store (due heap, timer wheel, far heap) they pass through.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.botnets.base import PeerEntry, PeerList
from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.bot import SalityBot, SalityConfig
from repro.botnets.state import PeerSlab, SlabPeerList
from repro.net.transport import Endpoint, Transport
from repro.sim.clock import HOUR, MINUTE
from repro.sim.scheduler import Scheduler

# A deliberately tiny id/address space so random sequences hit the
# interesting collisions: same bot re-added, same subnet contested,
# capacity evictions, failures on missing ids.
ids = st.binary(min_size=20, max_size=20).map(lambda b: b[:2] * 10)
endpoints = st.builds(
    Endpoint,
    ip=st.integers(min_value=1, max_value=0xFFFF).map(lambda ip: ip << 8),
    port=st.integers(min_value=1024, max_value=1030),
)
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ids, endpoints, times),
        st.tuples(st.just("remove"), ids),
        st.tuples(st.just("touch"), ids, times),
        st.tuples(st.just("record_failure"), ids, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("closest"), ids, ids, st.integers(min_value=1, max_value=8)),
    ),
    max_size=60,
)


def _apply(peer_list, op):
    """Run one op against either peer list; returns a comparable result."""
    kind = op[0]
    if kind == "add":
        _, bot_id, endpoint, last_seen = op
        return peer_list.add(
            PeerEntry(bot_id=bot_id, endpoint=endpoint, last_seen=last_seen)
        )
    if kind == "remove":
        return peer_list.remove(op[1])
    if kind == "touch":
        peer_list.touch(op[1], op[2])
        return None
    if kind == "record_failure":
        return peer_list.record_failure(op[1], op[2])
    if kind == "closest":
        return peer_list.closest(op[1], op[2], op[3])
    raise AssertionError(kind)


def _snapshot(peer_list):
    """Everything observable about a peer list, in one comparable value."""
    return (
        len(peer_list),
        [(e.bot_id, e.endpoint, e.last_seen, e.failures) for e in peer_list.entries()],
        peer_list.maintenance_view(),
        peer_list.ids(),
        peer_list.ips(),
    )


class TestPeerListBackendEquivalence:
    @pytest.mark.parametrize("prefix", [None, 20, 32])
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_same_ops_same_results(self, prefix, ops):
        """Slab list and reference model agree on every op result and
        every view."""
        objects = PeerList(capacity=6, ip_filter_prefix=prefix)
        slab = SlabPeerList(capacity=6, ip_filter_prefix=prefix, slab=PeerSlab())
        for op in ops:
            assert _apply(objects, op) == _apply(slab, op)
            assert _snapshot(objects) == _snapshot(slab)

    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_shared_slab_lists_stay_independent(self, ops):
        """Many lists share one slab; ops on one never leak into another."""
        slab = PeerSlab()
        active = SlabPeerList(capacity=6, ip_filter_prefix=20, slab=slab)
        bystander = SlabPeerList(capacity=6, ip_filter_prefix=20, slab=slab)
        _apply(
            bystander,
            ("add", b"\xAA" * 20, Endpoint(0x0A000001, 4000), 1.0),
        )
        before = _snapshot(bystander)
        for op in ops:
            _apply(active, op)
        assert _snapshot(bystander) == before


# Zeus geometry: full 20-byte ids, many sharing long prefixes with one
# base id (and with the lookup keys), so the sorted-index search has to
# descend deep into the key's prefix before an interval holds enough ids.
_BASE_ID = bytes(range(40, 60))
zeus_ids = st.tuples(
    st.integers(min_value=0, max_value=19), st.binary(min_size=20, max_size=20)
).map(lambda t: _BASE_ID[: t[0]] + t[1][t[0]:])
zeus_endpoints = st.builds(
    Endpoint,
    ip=st.integers(min_value=1, max_value=0xFFFFFFFF),
    port=st.integers(min_value=1024, max_value=65535),
)
zeus_add = st.tuples(st.just("add"), zeus_ids, zeus_endpoints, times)
zeus_operations = st.lists(
    st.one_of(
        zeus_add,
        st.tuples(st.just("remove_member"), st.integers(min_value=0)),
        st.tuples(st.just("record_failure_member"), st.integers(min_value=0)),
        st.tuples(st.just("closest"), zeus_ids, zeus_ids, st.just(10)),
        st.tuples(st.just("closest_member"), zeus_ids, st.integers(min_value=0), st.just(10)),
    ),
    max_size=80,
)


def _resolve_member(peer_list, op):
    """Replace a member index by the id it names in ``peer_list``."""
    kind = op[0]
    if not kind.endswith("_member"):
        return op
    members = sorted(peer_list.ids())
    if kind == "closest_member":
        _, key, index, limit = op
        exclude = members[index % len(members)] if members else key
        return ("closest", key, exclude, limit)
    member = members[op[1] % len(members)] if members else b""
    if kind == "remove_member":
        return ("remove", member)
    return ("record_failure", member, 1)


class TestClosestAtZeusGeometry:
    @pytest.mark.parametrize("prefix", [None, 20])
    @given(fill=st.lists(zeus_add, min_size=100, max_size=220), ops=zeus_operations)
    @settings(max_examples=40, deadline=None)
    def test_closest_matches_reference(self, prefix, fill, ops):
        """At Zeus capacity (150) and reply size (10), the sorted-index
        ``closest`` returns what the reference model's full sort does,
        with the requester inside or outside the list, while adds,
        evictions, removals and failure evictions reshape the index."""
        objects = PeerList(capacity=150, ip_filter_prefix=prefix)
        slab = SlabPeerList(capacity=150, ip_filter_prefix=prefix, slab=PeerSlab())
        # Never looked up until the end: its index is built from the
        # final contents instead of maintained through every change.
        lazy = SlabPeerList(capacity=150, ip_filter_prefix=prefix, slab=PeerSlab())
        first = ("closest", _BASE_ID, b"", 10)
        assert _apply(objects, first) == _apply(slab, first)
        for op in fill + ops:
            op = _resolve_member(objects, op)
            assert _apply(objects, op) == _apply(slab, op)
            if op[0] != "closest":
                _apply(lazy, op)
        assert _snapshot(objects) == _snapshot(slab) == _snapshot(lazy)
        key = fill[0][1]
        last = ("closest", key, key, 10)
        assert _apply(objects, last) == _apply(slab, last) == _apply(lazy, last)


class _ReplyRecordingBot(SalityBot):
    """A Sality bot that keeps what it sends instead of sending it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def send(self, dst, payload):
        self.sent.append(payload)
        return True


def _flyweight_choice(peer_list, threshold, src_ip, requester, rng):
    """The peer-exchange selection over flyweight entries (oracle)."""
    candidates = [
        entry
        for entry in peer_list
        if entry.goodcount >= threshold
        and entry.endpoint.ip != src_ip
        and entry.bot_id != requester.to_bytes(4, "big")
    ]
    if not candidates:
        return b""
    weights = [(1 + max(0, entry.goodcount)) ** 2 for entry in candidates]
    best = rng.choices(candidates, weights=weights, k=1)[0]
    return sality_protocol.encode_peer_entry(int.from_bytes(best.bot_id, "big"), best.endpoint)


sality_ids = st.integers(min_value=0, max_value=40)
sality_ips = st.integers(min_value=1, max_value=30).map(lambda ip: (10 << 24) + ip)
sality_fill = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        sality_ids,
        sality_ips,
        st.integers(min_value=-4, max_value=7),
        times,
    ),
    max_size=80,
)


class TestSalityPeerSelection:
    @given(
        fill=sality_fill,
        requester=sality_ids,
        src_ip=sality_ips,
        threshold=st.integers(min_value=-2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_column_selection_matches_flyweights(self, fill, requester, src_ip, threshold, seed):
        """``reputable`` lists what the flyweights do, and a bot answering
        a peer exchange names the same entry and leaves its generator in
        the same state as the flyweight comprehension would."""
        scheduler = Scheduler()
        bot = _ReplyRecordingBot(
            node_id="bot",
            bot_id=(999).to_bytes(4, "big"),
            endpoint=Endpoint((20 << 24) + 1, 3000),
            transport=Transport(scheduler, random.Random(0)),
            scheduler=scheduler,
            rng=random.Random(seed),
            config=SalityConfig(peer_list_capacity=30, goodcount_propagate_threshold=threshold),
        )
        peer_list = bot.peer_list
        for kind, bot_id, ip, goodcount, last_seen in fill:
            key = bot_id.to_bytes(4, "big")
            if kind == "remove":
                peer_list.remove(key)
            else:
                peer_list.add(
                    PeerEntry(
                        bot_id=key, endpoint=Endpoint(ip, 4000), last_seen=last_seen,
                        goodcount=goodcount,
                    )
                )
        assert peer_list.reputable(threshold) == [
            (entry.bot_id, entry.endpoint, entry.goodcount)
            for entry in peer_list.entries()
            if entry.goodcount >= threshold
        ]
        request = sality_protocol.SalityMessage(
            command=sality_protocol.Command.PEER_REQUEST, bot_id=requester, nonce=77
        )
        oracle = random.Random()
        oracle.setstate(bot.rng.getstate())
        payload = _flyweight_choice(peer_list, threshold, src_ip, requester, oracle)
        expected = sality_protocol.encode_packet(
            sality_protocol.make_message(
                sality_protocol.Command.PEER_RESPONSE, bot.int_id, oracle,
                payload=payload, nonce=request.nonce, minor_version=bot.config.minor_version,
            )
        )
        bot._on_peer_request(request, Endpoint(src_ip, 5000))
        assert bot.sent == [expected]
        assert bot.rng.getstate() == oracle.getstate()


class TestSchedulerBatchTieBreak:
    @given(
        order=st.permutations(list(range(12))),
        stamp=st.floats(min_value=0.0, max_value=10 * MINUTE, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_timestamp_fires_in_insertion_order(self, order, stamp):
        """Batched dispatch keeps the (time, sequence) contract: events
        scheduled for one instant run in scheduling order, however the
        stores shuffle them internally."""
        scheduler = Scheduler()
        fired = []
        for tag in order:
            scheduler.call_at(stamp, fired.append, tag)
        # Interleave other horizons so the wheel and far heap both hold
        # entries while the batch drains.
        scheduler.call_at(stamp + 1.0, fired.append, "later")
        scheduler.call_later(stamp + 2 * HOUR, fired.append, "far")
        scheduler.run_until(stamp)
        assert fired == list(order)

    @given(
        stamps=st.lists(
            st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 7200.0]), min_size=1, max_size=24
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dispatch_is_stable_sort_by_time(self, stamps):
        """Across mixed horizons, dispatch order == stable sort of the
        schedule calls by timestamp."""
        scheduler = Scheduler()
        fired = []
        for index, stamp in enumerate(stamps):
            scheduler.call_at(stamp, fired.append, (stamp, index))
        scheduler.run_until(max(stamps))
        expected = sorted(
            [(stamp, index) for index, stamp in enumerate(stamps)],
            key=lambda item: item[0],
        )
        assert fired == expected
