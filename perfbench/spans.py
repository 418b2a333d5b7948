"""In-memory span recorder and the layer wrappers of the traced pass.

The traced pass wraps the public functions of each layer of the
program from the outside (no program file changes) and keeps every
span's (name, start, end, parent) in memory until the workload ends.

Self time is computed exactly as spans close: a span's self time is its
duration minus the durations of its direct children, so the self times
of every span under a root sum to the root's duration.  Spans are also
aggregated per (parent name, name) edge, per phase (``setup``, ``run``),
which is what the per-layer metrics are computed from.  Individual span
records are kept only for the first ``keep`` spans opened (plus every
phase span), so a long capture cannot exhaust memory; a kept span's
parent is always kept too, because ids are assigned on entry.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

#: Name of the pseudo-parent of a root span in the edge tables.
ROOT = "-"


class Spans:
    """Span stack, per-phase edge aggregates and named counters."""

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # Open frames: [name_id, start, child_time, span_id].
        self._stack: List[list] = []
        self._next_id = itertools.count().__next__
        # Kept spans: (span_id, name_id, start, end, parent_span_id).
        self.records: List[Tuple[int, int, float, float, int]] = []
        self.dropped = 0
        #: phase -> {(parent_name_id, name_id): [count, total_s, self_s]}
        self.phases: Dict[str, Dict[Tuple[int, int], list]] = {}
        #: phase -> {counter name: value}
        self.phase_counts: Dict[str, Dict[str, float]] = {}
        self._agg = self.phases.setdefault("", {})
        self.counts = self.phase_counts.setdefault("", {})

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> None:
        self._stack.append([nid, perf_counter(), 0.0, self._next_id()])

    def close(self, end: float, force: bool = False) -> None:
        nid, start, child, span_id = self._stack.pop()
        duration = end - start
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += duration
            key = (parent[0], nid)
            parent_id = parent[3]
        else:
            key = (-1, nid)
            parent_id = -1
        agg = self._agg.get(key)
        if agg is None:
            agg = self._agg[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if span_id < self.keep or force:
            self.records.append((span_id, nid, start, end, parent_id))
        else:
            self.dropped += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A harness span that also routes aggregates into its own
        table; its own edge lands in that table too, so the table's
        self times sum to the phase's duration."""
        outer = (self._agg, self.counts)
        self._agg = self.phases.setdefault(name, {})
        self.counts = self.phase_counts.setdefault(name, {})
        self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(perf_counter(), force=True)
            self._agg, self.counts = outer

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call; calls
        that raise are counted as ``<name>.raised``."""
        nid = self.name_id(name)
        stack = self._stack
        next_id = self._next_id
        close = self.close
        clock = perf_counter
        raised = name + ".raised"

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append([nid, clock(), 0.0, next_id()])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.count(raised)
                raise
            finally:
                close(clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reading ---------------------------------------------------------

    def table(self, phase: str) -> Dict[Tuple[str, str], list]:
        names = self.names
        return {
            (names[p] if p >= 0 else ROOT, names[n]): list(agg)
            for (p, n), agg in self.phases.get(phase, {}).items()
        }

    def by_name(self, phase: str) -> Dict[str, list]:
        """name -> [count, total_s, self_s] summed over parents."""
        out: Dict[str, list] = {}
        for (_, name), (count, total, self_s) in self.table(phase).items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += self_s
        return out

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the span file (format described in README.md)."""
        names = self.names
        doc = {
            "meta": meta,
            "names": names,
            "spans": sorted(self.records),
            "dropped": self.dropped,
            "phases": {
                phase: [
                    [names[p] if p >= 0 else ROOT, names[n], agg[0], agg[1], agg[2]]
                    for (p, n), agg in sorted(table.items())
                ]
                for phase, table in self.phases.items()
                if table
            },
            "counts": {phase: counts for phase, counts in self.phase_counts.items() if counts},
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


class Patches:
    """Attribute patches that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self.set(cls, attr, classmethod(make(original.__func__)))
        else:
            self.set(cls, attr, make(original))

    def function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Patch ``module.attr`` and every loaded ``repro`` module that
        imported the same function object under the same name."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, other in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and other.__dict__.get(attr) is original:
                self.set(other, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


#: Module prefix of a scheduled callback's or handler's owner -> span
#: name; ``{kind}`` is ``timer``, ``cycle`` (``call_every``) or
#: ``handler``.  Checked in order; unmatched owners get ``sim.callback``.
CALLBACK_SPANS = (
    ("repro.core.crawler", "crawler.{kind}"),
    ("repro.core.sensor", "sensor.{kind}"),
    ("repro.net.transport", "net.deliver"),
    ("repro.net.churn", "net.churn"),
    ("repro.botnets", "bot.{kind}"),
)

#: Codec functions wrapped per protocol module.
ZEUS_CODEC = (
    "encode_message", "decode_message", "encode_peer_entries", "decode_peer_entries",
    "encode_version_reply", "decode_version_reply", "encode_data_reply",
    "decode_data_reply", "encrypt_message", "decrypt_message",
)
SALITY_CODEC = (
    "encode_packet", "decode_packet", "encode_hello", "decode_hello",
    "encode_peer_entry", "decode_peer_entry", "encode_urlpack", "decode_urlpack",
)

#: Codec spans that decrypt one received message: counted per crawler
#: reply as ``crawler.decrypts_per_reply``.
DECRYPT_SPANS = ("codec.zeus.decrypt_message", "codec.sality.decode_packet")


def current_rss_mb() -> float:
    """Resident set size of this process now, in MiB (Linux)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


class LayerTracer:
    """Installs span wrappers on every layer named in README.md, and
    registers the crawlers and sensors that start while installed."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.crawlers: List[Any] = []
        self.sensors: List[Any] = []
        # Totals of crawlers and sensors already forgotten by harvest().
        self._banked: Dict[str, int] = defaultdict(int)
        self._patches = Patches()
        self._callback_ids: Dict[Tuple[str, str], int] = {}
        #: Span names of scheduled callbacks: one span per dispatch.
        self.dispatch_names: Set[str] = set()

    def _callback_id(self, callback: Callable, kind: str) -> int:
        owner = getattr(callback, "__self__", None)
        module = type(owner).__module__ if owner is not None else callback.__module__ or ""
        key = (module, kind)
        nid = self._callback_ids.get(key)
        if nid is None:
            template = next(
                (name for prefix, name in CALLBACK_SPANS if module.startswith(prefix)),
                "sim.callback",
            )
            name = template.format(kind=kind)
            nid = self._callback_ids[key] = self.spans.name_id(name)
            if kind != "handler":
                self.dispatch_names.add(name)
        return nid

    def totals(self) -> Dict[str, int]:
        """Report totals of every crawler and sensor started so far."""
        live = {
            "crawler.requests": sum(c.report.requests_sent for c in self.crawlers),
            "crawler.replies": sum(c.report.responses_received for c in self.crawlers),
            "crawler.given_up": sum(c.report.targets_given_up for c in self.crawlers),
            "sensor.requests_logged": sum(len(s.peer_list_request_log()) for s in self.sensors),
        }
        return {key: self._banked[key] + value for key, value in live.items()}

    def harvest(self) -> None:
        """Bank the registered objects' totals and drop the references,
        so that finished sweep points can be freed."""
        self._banked = self.totals()
        self.crawlers.clear()
        self.sensors.clear()

    def install(self) -> None:
        # Imported here so that the recorder above works (and is tested)
        # without the program on the path.  ``points`` must be loaded
        # before patching: it imports patched functions by name.
        from repro.botnets import base, population, state
        from repro.botnets.sality import protocol as sality_protocol
        from repro.botnets.zeus import crypto
        from repro.botnets.zeus import protocol as zeus_protocol
        from repro.core import crawler, sensor
        from repro.core.detection import offline
        from repro.net import transport
        from repro.runner import executors, points  # noqa: F401
        from repro.sim import scheduler
        from repro.workloads import scenarios

        spans = self.spans
        patch = self._patches
        stack = spans._stack
        next_id = spans._next_id
        close = spans.close
        clock = perf_counter
        callback_id = self._callback_id

        def traced(name: str) -> Callable[[Callable], Callable]:
            return lambda fn: spans.wrap(fn, name)

        # Scheduled callbacks and bound handlers run through one
        # trampoline that opens a span named after the owner's layer.
        def trampoline(nid: int, callback: Callable, *args: Any) -> Any:
            stack.append([nid, clock(), 0.0, next_id()])
            try:
                return callback(*args)
            finally:
                close(clock())

        def timed_call_at(original: Callable) -> Callable:
            def call_at(self: Any, time: float, callback: Callable, *args: Any) -> Any:
                spans.count("sim.timers")
                return original(self, time, trampoline, callback_id(callback, "timer"), callback, *args)
            return call_at

        def timed_call_every(original: Callable) -> Callable:
            def call_every(self: Any, delay: float, callback: Callable, *args: Any) -> Any:
                spans.count("sim.timers")
                return original(self, delay, trampoline, callback_id(callback, "cycle"), callback, *args)
            return call_every

        def traced_bind(original: Callable) -> Callable:
            bind = spans.wrap(original, "net.bind")

            def bind_handler(self: Any, endpoint: Any, handler: Callable, routable: bool = True) -> None:
                if not getattr(handler, "_layer_traced", False):
                    handler = traced_handler(handler)
                bind(self, endpoint, handler, routable)
            return bind_handler

        def traced_handler(handler: Callable) -> Callable:
            handle = partial(trampoline, callback_id(handler, "handler"), handler)
            handle._layer_traced = True  # type: ignore[attr-defined]
            return handle

        def counted_add(original: Callable) -> Callable:
            add = spans.wrap(original, "peerlist.add")

            def add_entry(self: Any, entry: Any) -> bool:
                full = len(self) >= self.capacity and entry.bot_id not in self
                added = add(self, entry)
                if full and added:
                    spans.count("peerlist.evictions")
                return added
            return add_entry

        def measured_build(original: Callable) -> Callable:
            build = spans.wrap(original, "build.scenario")

            def build_scenario(*args: Any, **kwargs: Any) -> Any:
                scenario = build(*args, **kwargs)
                rss = current_rss_mb()
                if rss > spans.counts.get("build.rss_mb", 0.0):
                    spans.counts["build.rss_mb"] = rss
                return scenario
            return build_scenario

        def harvesting_point(original: Callable) -> Callable:
            execute = spans.wrap(original, "runner.point")

            def execute_point(*args: Any, **kwargs: Any) -> Any:
                try:
                    return execute(*args, **kwargs)
                finally:
                    self.harvest()
            return execute_point

        def counted_dataset(original: Callable) -> Callable:
            build = spans.wrap(original, "detection.dataset")

            def from_sensors(cls: Any, *args: Any, **kwargs: Any) -> Any:
                dataset = build(cls, *args, **kwargs)
                spans.count("detection.requests", dataset.request_count())
                return dataset
            return from_sensors

        def registering(registry: List[Any]) -> Callable[[Callable], Callable]:
            def make(original: Callable) -> Callable:
                def start(self: Any, *args: Any, **kwargs: Any) -> Any:
                    registry.append(self)
                    return original(self, *args, **kwargs)
                return start
            return make

        # sim
        patch.method(scheduler.Scheduler, "run_until", traced("sim.run_until"))
        patch.method(scheduler.Scheduler, "call_at", timed_call_at)
        patch.method(scheduler.Scheduler, "call_every", timed_call_every)
        # net
        patch.method(transport.Transport, "send", traced("net.send"))
        patch.method(transport.Transport, "bind", traced_bind)
        patch.method(transport.Transport, "unbind", traced("net.unbind"))
        patch.method(transport.Transport, "rebind", traced("net.rebind"))
        # crypto
        patch.function(crypto, "zeus_encrypt", traced("crypto.zeus_encrypt"))
        patch.function(crypto, "zeus_decrypt", traced("crypto.zeus_decrypt"))
        patch.method(crypto.KeystreamCache, "xor", traced("crypto.xor"))
        # codec
        for name in ZEUS_CODEC:
            patch.function(zeus_protocol, name, traced(f"codec.zeus.{name}"))
        for name in SALITY_CODEC:
            patch.function(sality_protocol, name, traced(f"codec.sality.{name}"))
        # peerlist
        for cls in (base.PeerList, state.SlabPeerList):
            patch.method(cls, "add", counted_add)
            for name in ("remove", "closest", "entries", "maintenance_view"):
                patch.method(cls, name, traced(f"peerlist.{name}"))
        # crawler / sensor registries (bot, crawler and sensor spans
        # come from the handler and timer trampolines above)
        patch.method(crawler._CrawlerBase, "start", registering(self.crawlers))
        patch.method(sensor.ZeusSensor, "start", registering(self.sensors))
        patch.method(sensor.SalitySensor, "start", registering(self.sensors))
        # detection
        patch.method(offline.SensorLogDataset, "from_zeus_sensors", counted_dataset)
        patch.function(offline, "evaluate_detection", traced("detection.evaluate"))
        # build
        patch.method(population.PopulationBuilder, "build", traced("build.population"))
        for name in ("build_zeus_scenario", "build_sality_scenario"):
            patch.function(scenarios, name, measured_build)
        # runner
        patch.function(executors, "_execute_point", harvesting_point)

    def uninstall(self) -> None:
        self._patches.undo()


def layer_metrics(spans: Spans, tracer: LayerTracer, totals: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of the ``run`` phase (names in README.md).

    ``totals`` holds the run-phase change of :meth:`LayerTracer.totals`.
    ``build.*`` covers set-up and run, since the sweep builds inside
    its points.
    """
    run = spans.by_name("run")
    edges = spans.table("run")
    counts = spans.phase_counts.get("run", {})

    def calls(name: str) -> int:
        return run.get(name, (0,))[0]

    def self_s(name: str) -> float:
        return run.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer: str) -> float:
        return sum(row[2] for name, row in run.items() if name.startswith(layer + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    both = dict(spans.table("setup"))
    for key, row in edges.items():
        both[key] = [a + b for a, b in zip(both.get(key, (0, 0.0, 0.0)), row)]
    dispatches = sum(calls(name) for name in tracer.dispatch_names)
    sends = calls("net.send")
    delivered = sum(row[0] for (parent, _), row in edges.items() if parent == "net.deliver")
    replies = totals["crawler.replies"]
    phase = run.get("run", (0, 0.0, 0.0))
    return {
        "sim.dispatches": dispatches,
        "sim.timers": counts.get("sim.timers", 0),
        "sim.self_s": layer_self("sim"),
        "sim.us_per_dispatch": ratio(layer_self("sim") * 1e6, dispatches),
        "net.sends": sends,
        "net.delivered": delivered,
        "net.delivery_ratio": ratio(delivered, sends),
        "net.send_self_s": self_s("net.send"),
        "net.deliver_self_s": self_s("net.deliver"),
        "net.unbind_calls": calls("net.unbind"),
        "net.unbind_self_s": self_s("net.unbind"),
        "crypto.encrypt_calls": calls("crypto.zeus_encrypt"),
        "crypto.decrypt_calls": calls("crypto.zeus_decrypt"),
        "crypto.decrypt_failed": sum(counts.get(name + ".raised", 0) for name in DECRYPT_SPANS),
        "crypto.xor_calls": calls("crypto.xor"),
        "crypto.self_s": layer_self("crypto"),
        "codec.calls": sum(row[0] for name, row in run.items() if name.startswith("codec.")),
        "codec.self_s": layer_self("codec"),
        "peerlist.add_calls": calls("peerlist.add"),
        "peerlist.evictions": counts.get("peerlist.evictions", 0),
        "peerlist.closest_calls": calls("peerlist.closest"),
        "peerlist.scan_calls": calls("peerlist.entries") + calls("peerlist.maintenance_view"),
        "peerlist.self_s": layer_self("peerlist"),
        "peerlist.add_self_s": self_s("peerlist.add"),
        "peerlist.closest_self_s": self_s("peerlist.closest"),
        "bot.messages": calls("bot.handler"),
        "bot.cycles": calls("bot.cycle"),
        "bot.self_s": layer_self("bot"),
        "crawler.requests": totals["crawler.requests"],
        "crawler.replies": replies,
        "crawler.reply_ratio": ratio(replies, totals["crawler.requests"]),
        "crawler.decrypts_per_reply": ratio(
            sum(edges.get(("crawler.handler", name), (0,))[0] for name in DECRYPT_SPANS), replies
        ),
        "crawler.given_up": totals["crawler.given_up"],
        "crawler.self_s": layer_self("crawler"),
        "sensor.requests_logged": totals["sensor.requests_logged"],
        "sensor.self_s": layer_self("sensor"),
        "detection.dataset_s": run.get("detection.dataset", (0, 0.0))[1],
        "detection.evaluate_s": run.get("detection.evaluate", (0, 0.0))[1],
        "detection.requests": counts.get("detection.requests", 0),
        "build.population_s": sum(row[1] for (_, name), row in both.items() if name == "build.population"),
        "build.announce_s": both.get(("build.scenario", "sim.run_until"), (0, 0.0))[1],
        "build.rss_mb": max(
            spans.phase_counts.get(phase_name, {}).get("build.rss_mb", 0.0)
            for phase_name in ("setup", "run")
        ),
        "trace.unattributed_share": ratio(phase[2], phase[1]),
    }
