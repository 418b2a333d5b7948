"""Passive sensor nodes for GameOver Zeus and Sality.

A sensor joins the botnet like a new bot: it *announces* itself until
enough bots hold it in their peer lists, then turns passive and maps
the network from whoever contacts it (Section 2.2).  Sensors here:

* implement the **full protocol** (they subclass the real bot
  behaviour), since botnets evict unresponsive or wrongly-responding
  peers;
* **log every inbound message field-by-field** -- these logs are the
  dataset the paper's crawler anomaly analysis (Section 4.1) and the
  offline detector evaluation (Section 6) run on;
* optionally send an **active peer-list request back** to every bot
  that contacts them, collecting connectivity (edge) data through NAT
  punch-holes -- the "augmented sensor" of Sections 2.2/8.2;
* optionally reproduce the defects of in-the-wild sensors
  (Section 4.2) via :class:`SensorDefectProfile`: empty peer-list
  replies, duplicated promoted entries, missing proxy-list support,
  missing update support, stale version numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.botnets.base import PeerEntry
from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.bot import SalityBot, SalityConfig
from repro.botnets.sality.protocol import Command, SalityDecodeError
from repro.botnets.state import intern_id
from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.bot import ZeusBot, ZeusConfig
from repro.botnets.zeus.protocol import MessageType, ZeusDecodeError, ZeusMessage
from repro.faults.retry import RetryPolicy
from repro.net.transport import Endpoint, Message, Transport
from repro.obs import runtime as obs_runtime
from repro.sim.clock import DAY, MINUTE
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True)
class SensorDefectProfile:
    """Defects of in-the-wild Zeus sensors (Section 4.2)."""

    name: str = "clean"
    empty_peer_lists: bool = False    # reply to PLRs with zero entries
    duplicate_peers: bool = False     # serve duplicated promoted entries
    no_proxy_reply: bool = False      # fail to return the proxy-bot list
    no_update_support: bool = False   # ignore update (data) requests
    stale_version: bool = False       # report an outdated version

    def defect_names(self) -> List[str]:
        rows = (
            "empty_peer_lists", "duplicate_peers", "no_proxy_reply",
            "no_update_support", "stale_version",
        )
        return [row for row in rows if getattr(self, row)]


CLEAN_SENSOR = SensorDefectProfile()


@dataclass(slots=True)
class ObservedZeusMessage:
    """One logged inbound Zeus message, as a sensor saw it.

    ``source_id`` is interned; the per-message fields (session id,
    padding, lookup key) are kept as received.
    """

    time: float
    src_ip: int
    src_port: int
    decrypt_ok: bool
    msg_type: int = -1
    random_byte: int = -1
    ttl: int = -1
    lop: int = -1
    session_id: bytes = b""
    source_id: bytes = b""
    padding: bytes = b""
    lookup_key: bytes = b""


@dataclass(slots=True)
class ObservedSalityMessage:
    """One logged inbound Sality packet, as a sensor saw it."""

    time: float
    src_ip: int
    src_port: int
    decode_ok: bool
    command: int = -1
    bot_id: int = -1
    minor_version: int = -1
    padding: bytes = b""


class ZeusSensor(ZeusBot):
    """A Zeus sensor: full bot protocol + logging + announcement."""

    def __init__(
        self,
        node_id: str,
        bot_id: bytes,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        config: Optional[ZeusConfig] = None,
        profile: SensorDefectProfile = CLEAN_SENSOR,
        announce_duration: float = 2 * DAY,
        announce_fanout: int = 10,
        active_peer_list_requests: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(
            node_id=node_id,
            bot_id=bot_id,
            endpoint=endpoint,
            transport=transport,
            scheduler=scheduler,
            rng=rng,
            routable=True,  # sensors must be reachable to be useful
            config=config,
        )
        self.profile = profile
        self.announce_duration = announce_duration
        self.announce_fanout = announce_fanout
        self.active_peer_list_requests = active_peer_list_requests
        # Optional resilience for active probing: re-issue peer-list
        # probes whose replies the network ate (None = never retry).
        self.retry = retry
        self.probes_expired = 0
        self.probe_retries = 0
        self.observations: List[ObservedZeusMessage] = []
        self.observed_edges: Set[Tuple[bytes, bytes]] = set()
        self._started_at: Optional[float] = None
        self._probed_sources: Set[bytes] = set()
        self._probe_attempts: Dict[bytes, int] = {}
        # Defective sensors report a version several updates behind.
        self._reported_version = 0x00020100 if profile.stale_version else self.config.version
        # Observability: inbound-log and active-probe lifecycle
        # counters, labeled by sensor node id (no-op stubs when off).
        self._trace = obs_runtime.tracer()
        registry = obs_runtime.metrics()
        self._m_observed = registry.counter(
            "sensor.observations", "inbound messages logged by sensors"
        ).labels(node_id)
        self._m_probes = registry.counter(
            "sensor.probes_issued", "active peer-list probes sent"
        ).labels(node_id)
        self._m_probes_expired = registry.counter(
            "sensor.probes_expired", "active probes expired on timeout"
        ).labels(node_id)
        self._m_probe_retries = registry.counter(
            "sensor.probe_retries", "active probes re-issued under retry"
        ).labels(node_id)

    # -- lifecycle --------------------------------------------------------

    def start(self, first_cycle_delay: Optional[float] = None) -> None:
        self._started_at = self.scheduler.now
        super().start(first_cycle_delay=first_cycle_delay if first_cycle_delay is not None else 1.0)

    @property
    def announcing(self) -> bool:
        return (
            self._started_at is not None
            and self.scheduler.now - self._started_at < self.announce_duration
        )

    def run_cycle(self) -> None:
        """Announce while young; afterwards stay passive (keep peers
        fresh only, never crawl)."""
        now = self.scheduler.now
        self._expire_pending(now)
        if not self.announcing:
            return
        entries = self.peer_list.entries()
        if not entries:
            return
        fanout = min(self.announce_fanout, len(entries))
        for entry in self.rng.sample(entries, fanout):
            # A peer-list request is the announcement: the receiving
            # bot learns us through the push mechanism.
            self._send_request(entry.bot_id, entry.endpoint, MessageType.PEER_LIST_REQUEST, entry.bot_id)

    # -- logging + dispatch ----------------------------------------------------

    def handle_message(self, message: Message) -> None:
        observed, decoded = self._observe(message)
        self.observations.append(observed)
        self._m_observed.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "sensor", "observe",
                sensor=self.node_id, src=str(message.src),
                decrypt_ok=observed.decrypt_ok, msg_type=observed.msg_type,
            )
        if decoded is None:
            self.undecryptable += 1
            return
        if self.active_peer_list_requests and observed.source_id not in self._probed_sources:
            self._probed_sources.add(observed.source_id)
            entry = PeerEntry(
                bot_id=observed.source_id, endpoint=message.src, last_seen=self.scheduler.now
            )
            self.peer_list.add(entry)
            current = self.peer_list.get(observed.source_id)
            if current is not None:
                self._m_probes.inc()
                if self._trace:
                    self._trace.instant(
                        self.scheduler.now, "sensor", "probe.issued",
                        sensor=self.node_id, target=observed.source_id.hex(),
                    )
                self._send_request(
                    current.bot_id, current.endpoint, MessageType.PEER_LIST_REQUEST, observed.source_id
                )
        # The bot's own checks, in its order, on the message decrypted
        # above: the static blacklist, then _handle_decoded.
        if self.static_blacklist.is_blocked(message.src.ip):
            self.blacklist_drops += 1
            return
        self._handle_decoded(decoded, message.src)

    def _observe(self, message: Message) -> Tuple[ObservedZeusMessage, Optional[ZeusMessage]]:
        """The log record of ``message`` and its decrypted form (None
        when it does not decrypt under our ID)."""
        base = ObservedZeusMessage(
            time=self.scheduler.now,
            src_ip=message.src.ip,
            src_port=message.src.port,
            decrypt_ok=False,
        )
        try:
            decoded = zeus_protocol.decrypt_message(message.payload, self.bot_id)
        except ZeusDecodeError:
            return base, None
        base.decrypt_ok = True
        base.msg_type = decoded.msg_type
        base.random_byte = decoded.random_byte
        base.ttl = decoded.ttl
        base.lop = len(decoded.padding)
        base.session_id = decoded.session_id
        base.source_id = intern_id(decoded.source_id)
        base.padding = decoded.padding
        if decoded.msg_type == MessageType.PEER_LIST_REQUEST:
            base.lookup_key = decoded.payload
        return base, decoded

    # -- active-probe retry ------------------------------------------------------

    def _expire_pending(self, now: float) -> None:
        """Expire as a bot does, then re-issue timed-out active probes
        under the retry policy (bounded attempts per probed source)."""
        if self.retry is None:
            super()._expire_pending(now)
            return
        expired = [
            pending
            for pending in self._pending.values()
            if now - pending.sent_at > self.config.response_timeout
        ]
        super()._expire_pending(now)
        for pending in expired:
            if (
                pending.msg_type != MessageType.PEER_LIST_REQUEST
                or pending.peer_id not in self._probed_sources
            ):
                continue
            self.probes_expired += 1
            self._m_probes_expired.inc()
            if self._trace:
                self._trace.instant(
                    now, "sensor", "probe.expired",
                    sensor=self.node_id, target=pending.peer_id.hex(),
                )
            attempts = self._probe_attempts.get(pending.peer_id, 0)
            if attempts >= self.retry.max_retries:
                continue
            self._probe_attempts[pending.peer_id] = attempts + 1
            delay = self.retry.backoff(attempts, self.rng)
            if self._trace:
                self._trace.instant(
                    now, "sensor", "probe.retry_scheduled",
                    sensor=self.node_id, target=pending.peer_id.hex(),
                    attempt=attempts + 1, delay=round(delay, 3),
                )
            self.scheduler.call_later(delay, self._reprobe, pending.peer_id)

    def _reprobe(self, peer_id: bytes) -> None:
        if not self.online:
            return
        entry = self.peer_list.get(peer_id)
        if entry is None:
            return  # the eviction machinery already gave up on it
        self.probe_retries += 1
        self._m_probe_retries.inc()
        self._m_probes.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "sensor", "probe.issued",
                sensor=self.node_id, target=peer_id.hex(), retry=True,
            )
        self._send_request(entry.bot_id, entry.endpoint, MessageType.PEER_LIST_REQUEST, peer_id)

    # -- edge collection from our own peer-list requests -------------------------

    def _on_peer_list_reply(self, reply: ZeusMessage, src: Endpoint) -> None:
        pending = self._pending.get(reply.session_id)
        if pending is not None and self.active_peer_list_requests:
            try:
                entries = zeus_protocol.decode_peer_entries(reply.payload)
            except ZeusDecodeError:
                entries = []
            for bot_id, _ in entries:
                self.observed_edges.add((pending.peer_id, bot_id))
        super()._on_peer_list_reply(reply, src)

    # -- defective services ---------------------------------------------------------

    def _on_peer_list_request(self, request: ZeusMessage, src: Endpoint) -> None:
        now = self.scheduler.now
        self._plr_history.append((now, src.ip))
        self.peer_list.add(PeerEntry(bot_id=request.source_id, endpoint=src, last_seen=now))
        if self.profile.empty_peer_lists:
            self._reply(
                request, src, MessageType.PEER_LIST_REPLY, zeus_protocol.encode_peer_entries([])
            )
            return
        # Same selection as select_closest over this list's entries;
        # delegated so the list ranks on its sorted id index.
        selected = self.peer_list.closest(
            request.payload, request.source_id, self.config.peers_per_response
        )
        if self.profile.duplicate_peers and selected:
            # Promote the first entry (e.g. a sinkhole) by duplication --
            # "a behavior never displayed by legitimate bots".
            promoted = selected[0]
            selected = ([promoted] * 3 + selected)[: self.config.peers_per_response]
        self._reply(
            request, src, MessageType.PEER_LIST_REPLY, zeus_protocol.encode_peer_entries(selected)
        )

    def _on_proxy_request(self, request: ZeusMessage, src: Endpoint) -> None:
        if self.profile.no_proxy_reply:
            return  # silently fail, as all analyzed sensors did
        super()._on_proxy_request(request, src)

    def _on_data_request(self, request: ZeusMessage, src: Endpoint) -> None:
        if self.profile.no_update_support:
            return
        super()._on_data_request(request, src)

    def _on_version_request(self, request: ZeusMessage, src: Endpoint) -> None:
        self.peer_list.touch(request.source_id, self.scheduler.now)
        payload = zeus_protocol.encode_version_reply(self._reported_version, self.endpoint.port)
        self._reply(request, src, MessageType.VERSION_REPLY, payload)

    # -- analysis helpers ---------------------------------------------------------

    def observed_ips(self) -> Set[int]:
        return {obs.src_ip for obs in self.observations}

    def peer_list_request_log(
        self, since: float = 0.0, until: Optional[float] = None
    ) -> List[ObservedZeusMessage]:
        return [
            obs
            for obs in self.observations
            if obs.decrypt_ok
            and obs.msg_type == MessageType.PEER_LIST_REQUEST
            and obs.time >= since
            and (until is None or obs.time < until)
        ]


class SalitySensor(SalityBot):
    """A Sality sensor: full bot protocol + logging.

    The paper could not distinguish (hypothetical) Sality sensors from
    legitimate high-in-degree bots precisely because a full-protocol
    responder shows no anomalies -- this class is that responder.
    """

    def __init__(
        self,
        node_id: str,
        bot_id: bytes,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        config: Optional[SalityConfig] = None,
        announce_duration: float = 2 * DAY,
    ) -> None:
        super().__init__(
            node_id=node_id,
            bot_id=bot_id,
            endpoint=endpoint,
            transport=transport,
            scheduler=scheduler,
            rng=rng,
            routable=True,
            config=config,
        )
        self.announce_duration = announce_duration
        self.observations: List[ObservedSalityMessage] = []
        self._started_at: Optional[float] = None
        self._trace = obs_runtime.tracer()
        self._m_observed = obs_runtime.metrics().counter(
            "sensor.observations", "inbound messages logged by sensors"
        ).labels(node_id)

    def start(self, first_cycle_delay: Optional[float] = None) -> None:
        self._started_at = self.scheduler.now
        super().start(first_cycle_delay=first_cycle_delay if first_cycle_delay is not None else 1.0)

    @property
    def announcing(self) -> bool:
        return (
            self._started_at is not None
            and self.scheduler.now - self._started_at < self.announce_duration
        )

    def run_cycle(self) -> None:
        now = self.scheduler.now
        self._expire_pending(now)
        entries = self.peer_list.entries()
        if not entries:
            return
        if self.announcing:
            fanout = min(self.config.announce_fanout, len(entries))
            for entry in self.rng.sample(entries, fanout):
                self._send_request(
                    entry, Command.HELLO, sality_protocol.encode_hello(self.endpoint.port)
                )
        else:
            # Passive phase: answer probes; keep a trickle of URL-pack
            # exchanges so goodcount does not decay at our peers.
            count = min(2, len(entries))
            for entry in self.rng.sample(entries, count):
                payload = self.urlpack_sequence.to_bytes(4, "big")
                self._send_request(entry, Command.URLPACK_REQUEST, payload)

    def handle_message(self, message: Message) -> None:
        observed = ObservedSalityMessage(
            time=self.scheduler.now,
            src_ip=message.src.ip,
            src_port=message.src.port,
            decode_ok=False,
        )
        try:
            decoded = sality_protocol.decode_packet(message.payload)
        except SalityDecodeError:
            self.observations.append(observed)
            self._m_observed.inc()
            if self._trace:
                self._trace.instant(
                    self.scheduler.now, "sensor", "observe",
                    sensor=self.node_id, src=str(message.src), decode_ok=False,
                )
            self.undecodable += 1
            return
        observed.decode_ok = True
        observed.command = decoded.command
        observed.bot_id = decoded.bot_id
        observed.minor_version = decoded.minor_version
        observed.padding = decoded.padding
        self.observations.append(observed)
        self._m_observed.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "sensor", "observe",
                sensor=self.node_id, src=str(message.src),
                decode_ok=True, command=decoded.command,
            )
        self._handle_decoded(decoded, message.src)

    def observed_ips(self) -> Set[int]:
        return {obs.src_ip for obs in self.observations}

    def peer_list_request_log(
        self, since: float = 0.0, until: Optional[float] = None
    ) -> List[ObservedSalityMessage]:
        return [
            obs
            for obs in self.observations
            if obs.decode_ok
            and obs.command == Command.PEER_REQUEST
            and obs.time >= since
            and (until is None or obs.time < until)
        ]
