"""Perf-regression bench harness: time the canonical workloads.

``repro bench`` (and ``benchmarks/bench_perf.py``) runs the three
workload shapes everything else in the repo is built from -- a traced
crawl, a capture-plus-detection evaluation, and a sharded-sweep cell
grid -- and records wall time, simulated events per second, and peak
RSS into a schema-versioned ``BENCH_recon.json``.  Comparing against a
checked-in baseline with ``--baseline`` turns the ROADMAP's "fast as
the hardware allows" north star into an enforced budget: CI fails when
a workload regresses past the threshold (default 25%).

Workload *results* are deterministic (fixed seeds); only the timings
vary by machine.  Baselines should therefore be regenerated on the
machine that enforces them, and compared with a threshold wide enough
to absorb scheduler noise.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import current_rss_kb, peak_rss_kb

#: Bump when the BENCH_recon.json layout changes shape.
#: v2: workloads return extras (population memory line items) and the
#: ``population`` workload (build + churn, no recon) joined the set.
#: v3: ``--profile`` attaches a per-workload subsystem wall-time
#: breakdown (see repro.obs.profile), letting baseline compare name
#: which subsystem regressed.
BENCH_SCHEMA = "repro-bench/3"
#: Baselines this module can still *read* for comparison.  v1 lacks the
#: per-workload memory line items and v1/v2 lack the profile breakdown,
#: but the core keys line up, so an old baseline stays usable as a
#: regression reference until refreshed.
_READABLE_SCHEMAS = frozenset({"repro-bench/1", "repro-bench/2", BENCH_SCHEMA})

#: Default regression gate: fail past +25% wall time vs baseline.
DEFAULT_THRESHOLD = 0.25

_BENCH_SEED = 1729


# -- workloads -------------------------------------------------------------
#
# Each workload builds its scenario from fixed seeds, runs it under an
# ambient tracer, and returns a dict with ``events`` (the denominator
# for events/sec, trace events unless noted) plus extra line items such
# as ``population_rss_kb`` (RSS delta around the population build).
# ``quick`` trims simulated hours, not the shape.


def _workload_crawl(quick: bool) -> Dict[str, Any]:
    import random

    from repro.core.crawler import ZeusCrawler
    from repro.core.defects import ZeusDefectProfile
    from repro.core.stealth import StealthPolicy
    from repro.net.address import parse_ip
    from repro.net.transport import Endpoint
    from repro.obs import runtime
    from repro.sim.clock import HOUR
    from repro.workloads.population import zeus_config
    from repro.workloads.scenarios import build_zeus_scenario

    rss_before = current_rss_kb()
    with runtime.profiler().section("build", "crawl.scenario"):
        scenario = build_zeus_scenario(
            zeus_config("tiny", master_seed=_BENCH_SEED),
            sensor_count=8,
            announce_hours=1.0,
        )
    population_rss_kb = max(0, current_rss_kb() - rss_before)
    crawler = ZeusCrawler(
        name="bench-crawler",
        endpoint=Endpoint(parse_ip("99.0.0.1"), 7000),
        transport=scenario.net.transport,
        scheduler=scenario.net.scheduler,
        rng=random.Random(_BENCH_SEED),
        policy=StealthPolicy(per_target_interval=15.0, requests_per_target=4),
        profile=ZeusDefectProfile(name="bench"),
    )
    crawler.start(scenario.net.bootstrap_sample(8, seed=_BENCH_SEED))
    scenario.run_for((1.0 if quick else 4.0) * HOUR)
    return {"events": len(runtime.tracer()), "population_rss_kb": population_rss_kb}


def _workload_detect(quick: bool) -> Dict[str, Any]:
    import random

    from repro.core.detection import DetectionConfig, SensorLogDataset
    from repro.core.detection.offline import evaluate_detection
    from repro.obs import runtime
    from repro.sim.clock import HOUR
    from repro.workloads.crawler_profiles import ZEUS_CRAWLERS
    from repro.workloads.population import zeus_config
    from repro.workloads.scenarios import build_zeus_scenario, launch_zeus_fleet

    rss_before = current_rss_kb()
    with runtime.profiler().section("build", "detect.scenario"):
        scenario = build_zeus_scenario(
            zeus_config("tiny", master_seed=_BENCH_SEED),
            sensor_count=12,
            announce_hours=1.0,
        )
    population_rss_kb = max(0, current_rss_kb() - rss_before)
    launch_zeus_fleet(scenario, ZEUS_CRAWLERS[:4])
    scenario.run_for((2.0 if quick else 4.0) * HOUR)
    dataset = SensorLogDataset.from_zeus_sensors(
        scenario.sensors, since=scenario.measurement_start
    )
    truth = {crawler.endpoint.ip for crawler in scenario.crawlers}
    with runtime.profiler().section("detect", "detect.offline_evaluate"):
        evaluate_detection(
            dataset,
            truth,
            DetectionConfig(group_bits=2, threshold=0.10),
            random.Random(_BENCH_SEED),
        )
    return {"events": len(runtime.tracer()), "population_rss_kb": population_rss_kb}


def _workload_sweep(quick: bool) -> Dict[str, Any]:
    from repro.obs import runtime
    from repro.runner import build_sweep, run_sweep
    from repro.runner.points import clear_capture_cache

    spec = build_sweep(
        "fig2",
        root_seed=_BENCH_SEED,
        scale="tiny",
        sensors=12,
        announce_hours=1.0,
        measure_hours=2.0 if quick else 4.0,
        thresholds=(0.05, 0.10),
        ratios=(1, 2) if quick else (1, 2, 4),
        fleet_size=4,
    )
    clear_capture_cache()  # time the capture build, not a warm cache
    run_sweep(spec, workers=1, capture_metrics=True)
    return {"events": len(runtime.tracer())}


def _workload_population(quick: bool) -> Dict[str, Any]:
    """Build and churn a ``large`` Zeus population -- no recon.

    Exercises exactly the layers the hot-path engine refactor targets
    (scheduler batching, SoA population core, pooled transport) and
    reports the population's resident footprint as a line item, so
    memory regressions in the core gate the bench even when the traced
    recon workloads stay fast.  ``events`` counts scheduler dispatches.
    """
    from repro.botnets.zeus.network import ZeusNetwork
    from repro.net.churn import ChurnConfig
    from repro.obs import runtime
    from repro.sim.clock import HOUR
    from repro.workloads.population import zeus_config

    config = zeus_config("large", master_seed=_BENCH_SEED, churn=ChurnConfig())
    rss_before = current_rss_kb()
    with runtime.profiler().section("build", "population.build"):
        net = ZeusNetwork(config)
        net.build()
    population_rss_kb = max(0, current_rss_kb() - rss_before)
    net.start_all()
    net.run_for((0.5 if quick else 2.0) * HOUR)
    stats = net.state.stats()
    return {
        "events": net.scheduler.stats().dispatched,
        "population_rss_kb": population_rss_kb,
        "churn_transitions": net.churn.transitions if net.churn is not None else 0,
        "peer_slots_live": stats["peer_slots_live"],
        "peer_slots_allocated": stats["peer_slots_allocated"],
    }


def _workload_topo(quick: bool) -> Dict[str, Any]:
    """A crawl over the AS-aware internet layer -- same shape as
    ``crawl`` but every delivery pays an AS-path latency lookup, so
    this isolates the topology layer's overhead (path resolution,
    prefix mapping, per-hop latency).  Extras report the path cache's
    hit/miss split: misses are whole-source Dijkstra runs, so a miss
    count that grows with the run would flag a cache regression.
    """
    import random

    from repro.core.crawler import ZeusCrawler
    from repro.core.defects import ZeusDefectProfile
    from repro.core.stealth import StealthPolicy
    from repro.net.address import parse_ip
    from repro.net.transport import Endpoint
    from repro.obs import runtime
    from repro.sim.clock import HOUR
    from repro.workloads.population import zeus_config
    from repro.workloads.scenarios import build_zeus_scenario

    rss_before = current_rss_kb()
    with runtime.profiler().section("build", "topo.scenario"):
        scenario = build_zeus_scenario(
            zeus_config("tiny", master_seed=_BENCH_SEED, topology=f"synth:{_BENCH_SEED}"),
            sensor_count=8,
            announce_hours=1.0,
        )
    population_rss_kb = max(0, current_rss_kb() - rss_before)
    crawler = ZeusCrawler(
        name="bench-topo-crawler",
        endpoint=Endpoint(parse_ip("99.0.0.1"), 7000),
        transport=scenario.net.transport,
        scheduler=scenario.net.scheduler,
        rng=random.Random(_BENCH_SEED),
        policy=StealthPolicy(per_target_interval=15.0, requests_per_target=4),
        profile=ZeusDefectProfile(name="bench-topo"),
    )
    crawler.start(scenario.net.bootstrap_sample(8, seed=_BENCH_SEED))
    scenario.run_for((1.0 if quick else 4.0) * HOUR)
    extras: Dict[str, Any] = {
        "events": len(runtime.tracer()),
        "population_rss_kb": population_rss_kb,
    }
    model = scenario.net.transport.latency_model
    if model is not None:
        hits, misses = model.resolver.cache_stats()
        extras["path_cache_hits"] = hits
        extras["path_cache_misses"] = misses
        extras["topo_sends"] = model.sends
    return extras


WORKLOADS: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "crawl": _workload_crawl,
    "detect": _workload_detect,
    "population": _workload_population,
    "sweep": _workload_sweep,
    "topo": _workload_topo,
}


# -- running ---------------------------------------------------------------


def run_workload(
    name: str,
    quick: bool = False,
    repeat: int = 1,
    profile: bool = False,
    collect: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Time one workload; best-of-``repeat`` wall time, event count,
    per-workload extras, and the process RSS high-water mark.

    With ``profile=True`` each attempt runs under a fresh subsystem
    profiler (see :mod:`repro.obs.profile`); the best attempt's
    breakdown lands in the entry's ``profile`` key, and the live
    profiler object itself in ``collect["profiler"]`` when a ``collect``
    dict is passed (``repro profile`` exports flamegraphs from it).
    """
    from repro.obs import runtime
    from repro.obs.profile import SubsystemProfiler, profile_breakdown
    from repro.obs.tracer import Tracer

    fn = WORKLOADS[name]
    best_wall: Optional[float] = None
    best_profiler: Optional[Any] = None
    result: Dict[str, Any] = {"events": 0}
    for attempt in range(max(1, repeat)):
        tracer = Tracer()
        profiler = SubsystemProfiler() if profile else None
        start = time.perf_counter()
        if profiler is not None:
            profiler.start()
        with runtime.activated(tracer=tracer, profiler=profiler):
            if profiler is not None:
                # The workload-level section claims every second the
                # scheduler callbacks don't (builds, offline analysis),
                # so the breakdown covers the whole measured window.
                with profiler.section("bench", f"workload.{name}"):
                    attempt_result = fn(quick)
            else:
                attempt_result = fn(quick)
        if profiler is not None:
            profiler.stop()
        wall = time.perf_counter() - start
        if attempt == 0:
            result = attempt_result
        else:
            # Wall time is best-of; numeric extras (footprint gauges)
            # take the max across repeats.  Warm repeats rebuild into
            # memory the allocator already holds, so their RSS deltas
            # read near zero -- the first, cold build is the honest one.
            for key, value in attempt_result.items():
                if isinstance(value, (int, float)) and key != "events":
                    if value > result.get(key, 0):
                        result[key] = value
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_profiler = profiler
    wall_s = best_wall or 0.0
    events = result.pop("events")
    entry = {
        "wall_s": round(wall_s, 4),
        "events": events,
        "events_per_s": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "peak_rss_kb": peak_rss_kb(),
    }
    entry.update(result)  # memory/occupancy line items
    if best_profiler is not None:
        tree = best_profiler.tree()
        entry["profile"] = profile_breakdown(tree)
        if collect is not None:
            collect["profiler"] = best_profiler
            collect["tree"] = tree
    return entry


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeat: int = 1,
    profile: bool = False,
) -> Dict[str, Any]:
    """Run the named workloads (all by default); returns the
    schema-versioned document ``repro bench`` writes."""
    selected = list(names) if names else sorted(WORKLOADS)
    unknown = [name for name in selected if name not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workloads {unknown}; available: {sorted(WORKLOADS)}")
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "repeat": max(1, repeat),
        "profile": profile,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "workloads": {
            name: run_workload(name, quick=quick, repeat=repeat, profile=profile)
            for name in selected
        },
    }


def write_bench(doc: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_bench(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as stream:
        doc = json.load(stream)
    schema = doc.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise ValueError(
            f"{path}: schema {schema!r} is not one of {sorted(_READABLE_SCHEMAS)}; "
            "regenerate the file"
        )
    return doc


# -- baseline compare ------------------------------------------------------


class BenchCompareError(ValueError):
    """The two bench documents cannot be meaningfully compared."""


def _blame_subsystem(
    current_profile: Dict[str, Any], baseline_profile: Dict[str, Any]
) -> Optional[str]:
    """Name the subsystem whose wall time grew the most between two
    per-workload profile breakdowns."""
    cur = current_profile.get("subsystems", {})
    base = baseline_profile.get("subsystems", {})
    worst_name: Optional[str] = None
    worst_delta = 0.0
    for name in set(cur) | set(base):
        was = base.get(name, {}).get("wall_s", 0.0)
        now = cur.get(name, {}).get("wall_s", 0.0)
        delta = now - was
        if delta > worst_delta:
            worst_delta = delta
            worst_name = name
    if worst_name is None:
        return None
    was = base.get(worst_name, {}).get("wall_s", 0.0)
    grew = f"+{worst_delta / was:.0%}" if was > 0 else "new"
    return f"{worst_name} +{worst_delta:.3f}s ({grew})"


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[str], List[str]]:
    """Compare wall times workload-by-workload.

    Returns ``(report_lines, regressions)``; a non-empty second element
    means at least one shared workload slowed past ``threshold``
    (relative).  Workloads present on only one side are reported but
    never fail the gate (the axis just changed).

    Raises :class:`BenchCompareError` when the documents are not
    comparable at all: a ``--quick`` run against a full baseline (or
    vice versa), or mismatched schema families.  Silent deltas across
    those axes would be misleading, not noisy.

    When both sides carry profile breakdowns (``--profile`` runs,
    schema v3), a regression line also names the subsystem whose wall
    time grew the most.
    """
    cur_quick = bool(current.get("quick"))
    base_quick = bool(baseline.get("quick"))
    if cur_quick != base_quick:
        raise BenchCompareError(
            f"cannot compare a {'--quick' if cur_quick else 'full'} run against a "
            f"{'--quick' if base_quick else 'full'} baseline; timings differ by "
            "design, not by regression -- regenerate the baseline with matching "
            "flags"
        )
    cur_family = str(current.get("schema", "")).split("/")[0]
    base_family = str(baseline.get("schema", "")).split("/")[0]
    if cur_family != base_family:
        raise BenchCompareError(
            f"schema family mismatch: current {current.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r}; these documents do not "
            "measure the same thing"
        )
    lines: List[str] = []
    regressions: List[str] = []
    cur = current.get("workloads", {})
    base = baseline.get("workloads", {})
    for name in sorted(set(cur) | set(base)):
        if name not in base:
            lines.append(f"{name:<8} new workload ({cur[name]['wall_s']:.3f}s), no baseline")
            continue
        if name not in cur:
            lines.append(f"{name:<8} missing from current run (baseline {base[name]['wall_s']:.3f}s)")
            continue
        was, now = base[name]["wall_s"], cur[name]["wall_s"]
        change = (now - was) / was if was > 0 else 0.0
        verdict = "ok"
        if change > threshold:
            verdict = f"REGRESSION (> +{threshold * 100:.0f}%)"
            regressions.append(name)
            if "profile" in cur[name] and "profile" in base[name]:
                blame = _blame_subsystem(cur[name]["profile"], base[name]["profile"])
                if blame:
                    verdict += f", hottest subsystem delta: {blame}"
        lines.append(
            f"{name:<8} {was:.3f}s -> {now:.3f}s ({change:+.1%}, "
            f"{cur[name]['events_per_s']:.0f} ev/s, "
            f"rss {cur[name]['peak_rss_kb']} KiB)  {verdict}"
        )
    return lines, regressions


#: Keys every workload entry carries; anything else is a per-workload
#: extra line item (memory footprints, slab occupancy, churn counts).
_CORE_KEYS = ("wall_s", "events", "events_per_s", "peak_rss_kb", "profile")


def render_bench(doc: Dict[str, Any]) -> str:
    lines = [
        f"bench ({'quick' if doc.get('quick') else 'full'}, "
        f"best of {doc.get('repeat', 1)}, python {doc.get('python', '?')}):"
    ]
    for name, entry in sorted(doc.get("workloads", {}).items()):
        lines.append(
            f"  {name:<8} {entry['wall_s']:.3f}s wall, "
            f"{entry['events']} events ({entry['events_per_s']:.0f} ev/s), "
            f"peak RSS {entry['peak_rss_kb']} KiB"
        )
        extras = {k: v for k, v in entry.items() if k not in _CORE_KEYS}
        if extras:
            lines.append(
                "           "
                + ", ".join(f"{key}={value}" for key, value in sorted(extras.items()))
            )
        breakdown = entry.get("profile")
        if breakdown:
            ranked = sorted(
                breakdown.get("subsystems", {}).items(),
                key=lambda kv: -kv[1]["wall_s"],
            )
            shares = ", ".join(
                f"{sub} {info['share'] * 100:.0f}%" for sub, info in ranked[:5]
            )
            lines.append(
                f"           profile: {shares} "
                f"(attributed {breakdown['attributed_share'] * 100:.0f}%)"
            )
    return "\n".join(lines)
