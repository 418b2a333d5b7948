"""Struct-of-arrays peer-list storage.

Object-per-peer storage dominates memory once populations reach paper
scale (Section 5 crawls cover 5k-200k bots, each holding up to 1000
peer entries).  Every node's peer list therefore keeps its hot
per-peer scalars in flat parallel arrays:

* :class:`PeerSlab` -- an arena of peer-entry columns (id, endpoint,
  last_seen, failures, goodcount) with a free-slot list; a population
  shares one slab across all its bots, a standalone node (sensor, test
  harness) gets a private one;
* :class:`SlabPeerList` -- the peer list every bot, sensor and sinkhole
  runs on; per-node state is just an insertion-ordered
  ``{bot_id: slot}`` dict plus a subnet index, and the hot scans
  (:meth:`~SlabPeerList.maintenance_view`, :meth:`~SlabPeerList.reputable`,
  :meth:`~SlabPeerList.closest`) read the columns directly;
* :class:`SlabPeerEntry` -- a two-word flyweight view over one slot,
  duck-typed like :class:`repro.botnets.base.PeerEntry`;
* :class:`PopulationState` -- the per-population registry tying node
  indices to an online-flag bytearray and the shared slab;
* :func:`intern_id` -- the bounded table that makes each bot id one
  shared bytes object, so a peer held in thousands of lists costs one
  pointer per row rather than a private copy of its id.

:class:`repro.botnets.base.PeerList` is the object-per-entry reference
model of the same semantics: iteration order is dict insertion order,
eviction picks the first-encountered stalest entry, and the subnet
filter keeps at most one entry per masked prefix.
``tests/botnets/test_state_properties.py`` checks the two against each
other operation by operation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Set

from repro.net.address import subnet_key

#: Intern table for bot ids: value -> the one shared bytes object.
#: Ids are interned where they are kept (peer-list rows, bots' own ids,
#: crawler reports, sensor log records), never per message.  Bounded
#: above the paper's largest population (~200k Zeus bots); cleared
#: wholesale if forged ids ever flood it, after which ids are shared
#: again from their next insertion.  Bytes compare and hash by value,
#: so interning is observationally identical.
_ID_INTERN_MAX = 1 << 18
_id_intern: Dict[bytes, bytes] = {}
#: Id -> its shared big-endian integer, the key of the sorted index
#: behind :meth:`SlabPeerList.closest`; same bound and clearing.
_id_ints: Dict[bytes, int] = {}


def intern_id(bot_id: bytes) -> bytes:
    """The shared object equal to ``bot_id`` (``bot_id`` itself if new)."""
    shared = _id_intern.get(bot_id)
    if shared is None:
        if len(_id_intern) >= _ID_INTERN_MAX:
            _id_intern.clear()
        shared = _id_intern[bot_id] = bot_id
    return shared


def _id_int(bot_id: bytes) -> int:
    value = _id_ints.get(bot_id)
    if value is None:
        if len(_id_ints) >= _ID_INTERN_MAX:
            _id_ints.clear()
        value = _id_ints[bot_id] = int.from_bytes(bot_id, "big")
    return value


class PeerSlab:
    """Arena of peer-entry columns shared by a population's peer lists.

    Slots are recycled through a free list, so steady-state churn in
    peer lists allocates no new storage.  Columns grow by appending,
    i.e. geometrically via list/array over-allocation.  The ``ids``
    column holds interned ids (:func:`intern_id`): every row of one bot,
    in whichever list, points at the same bytes object.
    """

    __slots__ = ("ids", "endpoints", "last_seen", "failures", "goodcount", "_free")

    def __init__(self) -> None:
        self.ids: List[bytes] = []
        self.endpoints: list = []
        self.last_seen = array("d")
        self.failures = array("i")
        self.goodcount = array("i")
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self.ids) - len(self._free)

    @property
    def capacity(self) -> int:
        """Total slots ever allocated (live + free)."""
        return len(self.ids)

    def alloc(self, bot_id: bytes, endpoint, last_seen: float, failures: int, goodcount: int) -> int:
        free = self._free
        if free:
            slot = free.pop()
            self.ids[slot] = bot_id
            self.endpoints[slot] = endpoint
            self.last_seen[slot] = last_seen
            self.failures[slot] = failures
            self.goodcount[slot] = goodcount
            return slot
        slot = len(self.ids)
        self.ids.append(bot_id)
        self.endpoints.append(endpoint)
        self.last_seen.append(last_seen)
        self.failures.append(failures)
        self.goodcount.append(goodcount)
        return slot

    def release(self, slot: int) -> None:
        # Drop object refs so freed peers do not pin ids/endpoints.
        self.ids[slot] = b""
        self.endpoints[slot] = None
        self._free.append(slot)


class SlabPeerEntry:
    """Flyweight view of one slab slot; duck-typed like ``PeerEntry``.

    A view reads and writes the slot live, so it is valid only until its
    entry is removed (evicted, removed, or displaced at capacity): the
    slot is then freed and may be reused by another peer.
    """

    __slots__ = ("_slab", "_slot")

    def __init__(self, slab: PeerSlab, slot: int) -> None:
        self._slab = slab
        self._slot = slot

    @property
    def bot_id(self) -> bytes:
        return self._slab.ids[self._slot]

    @property
    def endpoint(self):
        return self._slab.endpoints[self._slot]

    @endpoint.setter
    def endpoint(self, value) -> None:
        self._slab.endpoints[self._slot] = value

    @property
    def last_seen(self) -> float:
        return self._slab.last_seen[self._slot]

    @last_seen.setter
    def last_seen(self, value: float) -> None:
        self._slab.last_seen[self._slot] = value

    @property
    def failures(self) -> int:
        return self._slab.failures[self._slot]

    @failures.setter
    def failures(self, value: int) -> None:
        self._slab.failures[self._slot] = value

    @property
    def goodcount(self) -> int:
        return self._slab.goodcount[self._slot]

    @goodcount.setter
    def goodcount(self, value: int) -> None:
        self._slab.goodcount[self._slot] = value

    def __repr__(self) -> str:  # debugging aid
        return (
            f"SlabPeerEntry(bot_id={self.bot_id!r}, endpoint={self.endpoint}, "
            f"last_seen={self.last_seen}, failures={self.failures}, "
            f"goodcount={self.goodcount})"
        )


class SlabPeerList:
    """Capacity-bounded peer list with an optional per-subnet IP filter.

    ``ip_filter_prefix`` implements the deterrence measures of paper
    Table 1: 32 keeps at most one entry per IP (Sality, ZeroAccess,
    Hlux, Waledac), 20 keeps one per /20 subnet (GameOver Zeus), and
    ``None`` disables the filter (Storm).  Semantics match the
    reference model :class:`repro.botnets.base.PeerList`.

    Per-node state is one insertion-ordered ``{bot_id: slot}`` dict (the
    iteration-order contract every family relies on) plus the optional
    ``{subnet_key: slot}`` filter index.  Entries live in ``slab``: the
    population's shared :class:`PeerSlab`, or a private one when None.
    A new row's id is interned, so the dict key and the slab cell are
    the one shared object.  Lists that answer XOR-closest lookups also
    keep their ids sorted as integers (:meth:`closest`), built on the
    first lookup; each id's integer is one object shared by every list
    that holds the id.
    """

    __slots__ = (
        "capacity", "ip_filter_prefix", "_slab", "_slots", "_subnets",
        "_sorted_ints", "_sorted_slots",
    )

    def __init__(
        self,
        capacity: int,
        ip_filter_prefix: Optional[int] = None,
        slab: Optional[PeerSlab] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ip_filter_prefix is not None and not 0 < ip_filter_prefix <= 32:
            raise ValueError(f"bad ip_filter_prefix: {ip_filter_prefix}")
        self.capacity = capacity
        self.ip_filter_prefix = ip_filter_prefix
        self._slab = slab if slab is not None else PeerSlab()
        self._slots: Dict[bytes, int] = {}
        self._subnets: Optional[Dict[int, int]] = (
            {} if ip_filter_prefix is not None else None
        )
        # Shared id integers (_id_int) in ascending order with their
        # slots alongside; None until the first closest() call.
        self._sorted_ints: Optional[List[int]] = None
        self._sorted_slots: List[int] = []

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, bot_id: bytes) -> bool:
        return bot_id in self._slots

    def __iter__(self) -> Iterator[SlabPeerEntry]:
        return iter(self.entries())

    def get(self, bot_id: bytes) -> Optional[SlabPeerEntry]:
        """A live view of ``bot_id``'s entry, or None.

        The view is valid until its entry is removed; read what you
        need from it before any call that may evict it.
        """
        slot = self._slots.get(bot_id)
        if slot is None:
            return None
        return SlabPeerEntry(self._slab, slot)

    def entries(self) -> List[SlabPeerEntry]:
        """Live views of every entry, in insertion order.

        The list is a snapshot, but each view is valid only until its
        entry is removed.
        """
        slab = self._slab
        return [SlabPeerEntry(slab, slot) for slot in self._slots.values()]

    def ids(self) -> Set[bytes]:
        return set(self._slots)

    def ips(self) -> Set[int]:
        endpoints = self._slab.endpoints
        return {endpoints[slot].ip for slot in self._slots.values()}

    def maintenance_view(self) -> list:
        """(bot_id, endpoint, failures) tuples sorted by last_seen.

        Same ordering contract as ``PeerList.maintenance_view``: stable
        sort over insertion order, so same-time entries keep their
        relative positions.  Built straight from the slab columns --
        no flyweights on the cycle hot path.
        """
        slab = self._slab
        last_seen = slab.last_seen
        order = sorted(self._slots.values(), key=last_seen.__getitem__)
        ids = slab.ids
        endpoints = slab.endpoints
        failures = slab.failures
        return [(ids[slot], endpoints[slot], failures[slot]) for slot in order]

    def reputable(self, threshold: int) -> list:
        """(bot_id, endpoint, goodcount) tuples of every entry whose
        goodcount is at least ``threshold``, in insertion order.

        Sality's peer-exchange selection, built straight from the slab
        columns -- no flyweight per entry of a 1000-entry list.
        """
        slab = self._slab
        goodcount = slab.goodcount
        ids = slab.ids
        endpoints = slab.endpoints
        return [
            (ids[slot], endpoints[slot], goodcount[slot])
            for slot in self._slots.values()
            if goodcount[slot] >= threshold
        ]

    def closest(self, lookup_key: bytes, exclude_id: bytes, limit: int) -> list:
        """The ``limit`` (bot_id, endpoint) pairs XOR-closest to
        ``lookup_key``, excluding ``exclude_id``.

        Matches ``PeerList.closest`` / ``protocol.select_closest``
        exactly.  Ids sharing the key's top bits form one interval of
        the sorted id integers, and every id inside it is XOR-closer
        than every id outside; a binary search over the shared-prefix
        length finds the narrowest such interval holding enough ids, and
        only that interval is ranked.
        """
        ints = self._sorted_ints
        if ints is None:
            ints = self._build_sorted_index()
        slots = self._sorted_slots
        key = int.from_bytes(lookup_key, "big")
        excluded = self._slots.get(exclude_id)
        want = limit + (excluded is not None)
        lo, hi = 0, len(ints)
        if hi > want:
            # Smallest shift s whose interval {id : id >> s == key >> s}
            # holds ``want`` ids; at the largest shift it holds them all.
            narrow, wide = 0, max(key.bit_length(), ints[-1].bit_length())
            while narrow < wide:
                shift = (narrow + wide) >> 1
                base = (key >> shift) << shift
                if bisect_left(ints, base + (1 << shift)) - bisect_left(ints, base) >= want:
                    wide = shift
                else:
                    narrow = shift + 1
            base = (key >> wide) << wide
            lo = bisect_left(ints, base)
            hi = bisect_left(ints, base + (1 << wide))
        ranked = sorted([(key ^ ints[i], slots[i]) for i in range(lo, hi)])
        slab = self._slab
        ids = slab.ids
        endpoints = slab.endpoints
        return [
            (ids[slot], endpoints[slot]) for _, slot in ranked if slot != excluded
        ][:limit]

    def _build_sorted_index(self) -> List[int]:
        pairs = sorted(
            (_id_int(bot_id), slot) for bot_id, slot in self._slots.items()
        )
        self._sorted_ints = [value for value, _ in pairs]
        self._sorted_slots = [slot for _, slot in pairs]
        return self._sorted_ints

    def _drop(self, bot_id: bytes, slot: int) -> None:
        """Remove a live entry from every index and free its slot."""
        del self._slots[bot_id]
        slab = self._slab
        self._index_drop(slab.endpoints[slot].ip)
        ints = self._sorted_ints
        if ints is not None:
            i = bisect_left(ints, _id_int(bot_id))
            slots = self._sorted_slots
            while slots[i] != slot:  # equal integers (ids of other lengths)
                i += 1
            del ints[i]
            del slots[i]
        slab.release(slot)

    def _conflict_slot(self, bot_id: bytes, ip: int) -> Optional[int]:
        if self._subnets is None:
            return None
        occupant = self._subnets.get(subnet_key(ip, self.ip_filter_prefix))
        if occupant is None or self._slab.ids[occupant] == bot_id:
            return None
        return occupant

    def _index_add(self, slot: int, ip: int) -> None:
        if self._subnets is not None:
            self._subnets[subnet_key(ip, self.ip_filter_prefix)] = slot

    def _index_drop(self, ip: int) -> None:
        if self._subnets is not None:
            self._subnets.pop(subnet_key(ip, self.ip_filter_prefix), None)

    def add(self, entry) -> bool:
        """Insert or refresh ``entry`` (copied into the slab, its id
        interned).

        Returns True if the entry is present afterwards.  Rules, in
        order: an existing entry with the same bot id is refreshed
        in-place (address updates follow IP churn); the subnet filter
        rejects a *different* bot in an occupied subnet; at capacity the
        stalest entry is evicted iff the newcomer is fresher.
        """
        slab = self._slab
        bot_id = entry.bot_id
        slot = self._slots.get(bot_id)
        if slot is not None:
            old_endpoint = slab.endpoints[slot]
            new_endpoint = entry.endpoint
            if old_endpoint != new_endpoint:
                if self._conflict_slot(bot_id, new_endpoint.ip) is not None:
                    # Address update into an occupied subnet: rejected,
                    # the entry stays alive at its old address.
                    if entry.last_seen > slab.last_seen[slot]:
                        slab.last_seen[slot] = entry.last_seen
                    return True
                self._index_drop(old_endpoint.ip)
                slab.endpoints[slot] = new_endpoint
                self._index_add(slot, new_endpoint.ip)
            if entry.last_seen > slab.last_seen[slot]:
                slab.last_seen[slot] = entry.last_seen
            return True
        if self._conflict_slot(bot_id, entry.endpoint.ip) is not None:
            return False
        if len(self._slots) >= self.capacity:
            last_seen = slab.last_seen
            stalest_id = None
            stalest_slot = -1
            stalest_seen = float("inf")
            for candidate_id, candidate_slot in self._slots.items():
                seen = last_seen[candidate_slot]
                if seen < stalest_seen:  # strict: keep first-encountered
                    stalest_seen = seen
                    stalest_id = candidate_id
                    stalest_slot = candidate_slot
            if stalest_seen >= entry.last_seen:
                return False
            self._drop(stalest_id, stalest_slot)
        bot_id = intern_id(bot_id)
        slot = slab.alloc(bot_id, entry.endpoint, entry.last_seen, entry.failures, entry.goodcount)
        self._slots[bot_id] = slot
        self._index_add(slot, entry.endpoint.ip)
        ints = self._sorted_ints
        if ints is not None:
            value = _id_int(bot_id)
            i = bisect_left(ints, value)
            ints.insert(i, value)
            self._sorted_slots.insert(i, slot)
        return True

    def remove(self, bot_id: bytes) -> bool:
        slot = self._slots.get(bot_id)
        if slot is None:
            return False
        self._drop(bot_id, slot)
        return True

    def touch(self, bot_id: bytes, now: float) -> None:
        """Mark a peer responsive: refresh last_seen, clear failures."""
        slot = self._slots.get(bot_id)
        if slot is not None:
            slab = self._slab
            slab.last_seen[slot] = now
            slab.failures[slot] = 0

    def record_failure(self, bot_id: bytes, evict_after: int) -> bool:
        """Count an unanswered probe; evict after ``evict_after`` misses.

        Returns True if the peer was evicted.  This is the eviction
        mechanism that forces sensors to implement enough protocol to
        keep answering probes (Section 2.2).
        """
        slot = self._slots.get(bot_id)
        if slot is None:
            return False
        slab = self._slab
        failures = slab.failures[slot] + 1
        slab.failures[slot] = failures
        if failures >= evict_after:
            self._drop(bot_id, slot)
            return True
        return False


class PopulationState:
    """Registry for one population: node indices, online flags, and
    the shared peer slab.

    ``online`` mirrors each bot's online flag (bots write through to it
    from :attr:`repro.botnets.base.BotNode.online`), so population-wide
    liveness scans are a single bytearray pass instead of an attribute
    walk over every bot object.
    """

    __slots__ = ("node_ids", "index_of", "online", "slab")

    def __init__(self) -> None:
        self.node_ids: List[str] = []
        self.index_of: Dict[str, int] = {}
        self.online = bytearray()
        self.slab = PeerSlab()

    def __len__(self) -> int:
        return len(self.node_ids)

    def register(self, node_id: str) -> int:
        if node_id in self.index_of:
            raise ValueError(f"node already registered: {node_id}")
        index = len(self.node_ids)
        self.node_ids.append(node_id)
        self.index_of[node_id] = index
        self.online.append(0)
        return index

    def online_count(self) -> int:
        return sum(self.online)

    def adopt(self, bot) -> None:
        """Register a freshly built bot and mirror its online flag.

        The bot was built with its peer list on :attr:`slab`.
        """
        bot.attach_state(self, self.register(bot.node_id))

    def stats(self) -> Dict[str, int]:
        """Occupancy numbers for bench memory line items."""
        return {
            "nodes": len(self.node_ids),
            "online": self.online_count(),
            "peer_slots_live": len(self.slab),
            "peer_slots_allocated": self.slab.capacity,
        }
