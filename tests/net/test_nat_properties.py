"""Property test: the per-endpoint NAT hole table against the flat one.

:class:`RoutabilityTable` groups holes as ``{endpoint: {remote_ip:
expiry}}`` with a running pair count.  ``FlatRoutabilityTable`` below
is the earlier design -- one flat ``{(endpoint, remote_ip): expiry}``
dict whose unregister scans every hole -- kept here as the oracle.
Random register/unregister/note_outbound/inbound_allowed/open_holes
sequences, with time advancing across several size-triggered sweeps,
must give the same answers and leave the same live holes.
"""

from typing import Dict, Set, Tuple

from hypothesis import given
from hypothesis import strategies as st

from repro.net.nat import RoutabilityTable

HOLE_TTL = 10.0
SWEEP_MIN = 4  # small, so short sequences cross several sweeps


class FlatRoutabilityTable:
    """The flat-dict hole table (oracle)."""

    SWEEP_MIN = SWEEP_MIN

    def __init__(self, hole_ttl: float) -> None:
        self.hole_ttl = hole_ttl
        self._routable: Dict[Tuple[int, int], bool] = {}
        self._holes: Dict[Tuple[Tuple[int, int], int], float] = {}
        self._sweep_at = self.SWEEP_MIN

    def register(self, endpoint, routable):
        self._routable[endpoint] = routable

    def unregister(self, endpoint):
        self._routable.pop(endpoint, None)
        stale = [key for key in self._holes if key[0] == endpoint]
        for key in stale:
            del self._holes[key]

    def note_outbound(self, src, dst_ip, now):
        if self._routable.get(src) is False:
            holes = self._holes
            holes[(src, dst_ip)] = now + self.hole_ttl
            if len(holes) >= self._sweep_at:
                expired = [key for key, expires in holes.items() if expires < now]
                for key in expired:
                    del holes[key]
                self._sweep_at = max(self.SWEEP_MIN, 2 * len(holes))

    def inbound_allowed(self, dst, src_ip, now):
        routable = self._routable.get(dst)
        if routable is None:
            return False
        if routable:
            return True
        expires = self._holes.get((dst, src_ip))
        if expires is None:
            return False
        if expires < now:
            del self._holes[(dst, src_ip)]
            return False
        return True

    def open_holes(self, dst, now) -> Set[int]:
        return {
            remote_ip
            for (endpoint, remote_ip), expires in self._holes.items()
            if endpoint == dst and expires >= now
        }


class SmallSweepTable(RoutabilityTable):
    SWEEP_MIN = SWEEP_MIN


ENDPOINTS = [(1, 40000), (1, 40001), (2, 40000)]
endpoints = st.sampled_from(ENDPOINTS)
remote_ips = st.integers(min_value=1, max_value=3)

operations = st.lists(
    st.one_of(
        # Mostly NATed endpoints: only those open holes.
        st.tuples(st.just("register"), endpoints, st.sampled_from([False, False, True])),
        st.tuples(st.just("unregister"), endpoints),
        # Listed twice: outbound traffic and re-checks drive the sweeps.
        st.tuples(st.just("note_outbound"), endpoints, remote_ips),
        st.tuples(st.just("note_outbound"), endpoints, remote_ips),
        st.tuples(st.just("inbound_allowed"), endpoints, remote_ips),
        st.tuples(st.just("inbound_allowed"), endpoints, remote_ips),
        st.tuples(st.just("open_holes"), endpoints),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=12.0)),
    ),
    min_size=40,
    max_size=150,
)


def _live_pairs(table: RoutabilityTable) -> Dict[Tuple[Tuple[int, int], int], float]:
    return {
        (endpoint, remote_ip): expires
        for endpoint, holes in table._holes.items()
        for remote_ip, expires in holes.items()
    }


@given(ops=operations)
def test_matches_flat_table(ops):
    table = SmallSweepTable(hole_ttl=HOLE_TTL)
    oracle = FlatRoutabilityTable(hole_ttl=HOLE_TTL)
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "advance":
            now += op[1]
        elif kind == "register":
            table.register(op[1], op[2])
            oracle.register(op[1], op[2])
        elif kind == "unregister":
            table.unregister(op[1])
            oracle.unregister(op[1])
        elif kind == "note_outbound":
            table.note_outbound(op[1], op[2], now)
            oracle.note_outbound(op[1], op[2], now)
        elif kind == "inbound_allowed":
            assert table.inbound_allowed(op[1], op[2], now) == oracle.inbound_allowed(op[1], op[2], now)
        else:
            assert table.open_holes(op[1], now) == oracle.open_holes(op[1], now)
        for endpoint in ENDPOINTS:
            assert table.is_registered(endpoint) == (endpoint in oracle._routable)
            assert table.is_routable(endpoint) == oracle._routable.get(endpoint, False)
        live = _live_pairs(table)
        assert live == oracle._holes
        assert table._pairs == len(live)
        assert table._sweep_at == oracle._sweep_at


def test_sequence_crosses_sweeps():
    """Expired holes go on re-check and in the sweep, emptied endpoints
    with them, and the pair count follows."""
    table = SmallSweepTable(hole_ttl=HOLE_TTL)
    natted = [(1, 40000), (2, 40000)]
    for endpoint in natted:
        table.register(endpoint, False)
    table.note_outbound(natted[0], 7, now=0.0)
    table.note_outbound(natted[0], 8, now=0.0)
    table.note_outbound(natted[1], 7, now=0.0)
    assert not table.inbound_allowed(natted[1], 7, now=12.0)
    assert table._pairs == 2
    table.note_outbound(natted[1], 8, now=12.0)
    assert table.open_holes(natted[1], now=12.0) == {8}
    # The fourth pair triggers a sweep that reclaims natted[0] entirely.
    table.note_outbound(natted[1], 9, now=20.0)
    assert _live_pairs(table) == {(natted[1], 8): 22.0, (natted[1], 9): 30.0}
    assert natted[0] not in table._holes
    assert table._pairs == 2
    assert table._sweep_at == SWEEP_MIN
    table.unregister(natted[1])
    assert table._pairs == 0 and not table._holes
