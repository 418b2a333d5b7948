"""The benchmark's workloads: set-up, measured phase and output checks.

Each workload builds its inputs from a seed only, runs one fixed amount
of simulated work, and returns plain-data outputs whose hash run.py
compares across runs (see README.md for why each workload exists).
Program modules are reached through their module attributes at call
time, so the traced pass's wrappers (``spans.LayerTracer``) see every
call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.botnets.zeus.network import ZeusNetworkConfig
from repro.core import crawler as crawler_mod
from repro.core.defects import ZeusDefectProfile
from repro.core.detection import DetectionConfig, offline
from repro.core.stealth import StealthPolicy
from repro.net.transport import Endpoint
from repro.runner import executors, sweeps
from repro.sim.clock import HOUR, MINUTE
from repro.workloads import scenarios
from repro.workloads.crawler_profiles import SALITY_CRAWLER_INSTANCES, ZEUS_CRAWLERS
from repro.workloads.population import sality_config

Check = Tuple[str, bool]


def digest(outputs: Any) -> str:
    """SHA-256 of the canonical JSON form of ``outputs``."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_counts(crawler: Any) -> Dict[str, int]:
    report = crawler.report
    return {
        "requests_sent": report.requests_sent,
        "responses_received": report.responses_received,
        "targets_contacted": report.targets_contacted,
        "targets_excluded": report.targets_excluded,
        "requests_expired": report.requests_expired,
        "retries_sent": report.retries_sent,
        "targets_given_up": report.targets_given_up,
        "distinct_ips": report.distinct_ips,
        "distinct_bots": report.distinct_bots,
        "verified_bots": len(report.verified_bots),
        "edges": len(report.edges),
    }


def crawler_checks(reports: Dict[str, Dict[str, int]]) -> List[Check]:
    return [
        ("every crawler sent requests", all(r["requests_sent"] > 0 for r in reports.values())),
        ("crawlers got replies", sum(r["responses_received"] for r in reports.values()) > 0),
    ]


# -- zeus-flagship -----------------------------------------------------------


@dataclass(frozen=True)
class FlagshipSize:
    population: int
    sensors: int
    announce_hours: float
    window: float
    distributed_sources: int
    dense_neighborhoods: int


#: ``full`` is the ZeusFlagship geometry of benchmarks/conftest.py with
#: its 24 h window trimmed to the crawl burst after fleet launch.
FLAGSHIP = {
    "full": FlagshipSize(4000, 512, 3.0, 5 * MINUTE, 32, 10),
    "smoke": FlagshipSize(300, 16, 0.5, 5 * MINUTE, 4, 2),
}
THRESHOLDS = (0.02, 0.05, 0.10)


def flagship_setup(seed: int, size: str) -> Dict[str, Any]:
    geometry = FLAGSHIP[size]
    config = ZeusNetworkConfig(
        population=geometry.population,
        routable_fraction=0.3,
        bootstrap_peers=15,
        master_seed=seed,
        max_bots_per_gateway=3,
        dense_neighborhoods=geometry.dense_neighborhoods,
        bots_per_dense_neighborhood=10,
    )
    scenario = scenarios.build_zeus_scenario(
        config, sensor_count=geometry.sensors, announce_hours=geometry.announce_hours
    )
    scenarios.launch_zeus_fleet(scenario, ZEUS_CRAWLERS)
    base = scenarios.CRAWLER_BLOCK.network + 200 * 0x1000
    sources = [Endpoint(base + offset + 1, 7000) for offset in range(geometry.distributed_sources)]
    net = scenario.net
    distributed = crawler_mod.ZeusCrawler(
        name="distributed",
        endpoint=sources[0],
        transport=net.transport,
        scheduler=net.scheduler,
        rng=net.rngs.fork("crawler-distributed").stream("crawl"),
        policy=StealthPolicy(
            contact_fraction=0.9,
            per_target_interval=15.0,
            requests_per_target=1,
            source_endpoints=sources[1:],
        ),
        profile=ZeusDefectProfile(name="distributed"),
    )
    distributed.start(net.bootstrap_sample(10, seed=777))
    scenario.crawlers.append(distributed)
    return {"scenario": scenario, "seed": seed, "window": geometry.window}


def flagship_run(state: Dict[str, Any]) -> Dict[str, Any]:
    scenario = state["scenario"]
    scenario.run_for(state["window"])
    dataset = offline.SensorLogDataset.from_zeus_sensors(
        scenario.sensors, since=scenario.measurement_start
    )
    truth = {
        c.endpoint.ip
        for c in scenario.crawlers
        if c.name != "distributed" and c.profile.coverage >= 0.2
    }
    detection = {}
    for threshold in THRESHOLDS:
        result = offline.evaluate_detection(
            dataset,
            truth,
            DetectionConfig(group_bits=3, threshold=threshold),
            random.Random(state["seed"]),
        )
        detection[str(threshold)] = {
            "detected": sorted(result.detected_crawlers),
            "missed": sorted(result.missed_crawlers),
            "false_positives": sorted(result.false_positive_keys),
        }
    return {
        "crawlers": {c.name: report_counts(c) for c in scenario.crawlers},
        "dataset": [
            [p.node_id, p.bot_id.hex(), [list(r) for r in p.requests]]
            for p in dataset.participants
        ],
        "truth": sorted(truth),
        "detection": detection,
    }


def flagship_checks(outputs: Dict[str, Any]) -> List[Check]:
    truth = set(outputs["truth"])
    return crawler_checks(outputs["crawlers"]) + [
        ("sensors logged requests", any(p[2] for p in outputs["dataset"])),
        (
            "detection splits the ground truth",
            all(
                set(d["detected"]) | set(d["missed"]) == truth
                and not set(d["detected"]) & set(d["missed"])
                for d in outputs["detection"].values()
            ),
        ),
    ]


# -- sality-capture ----------------------------------------------------------


#: ``full`` is the Table 2 capture of benchmarks/conftest.py with its
#: 12 h window trimmed to 4 h: every crawler request and most of the
#: cost fall in the first hour; later hours repeat the bots' background
#: traffic (ephemeral-port unbinds included) at under 1 s per hour.
SALITY = {
    # (scale, sensors, announce hours, window)
    "full": ("small", 64, 3.0, 4 * HOUR),
    "smoke": ("tiny", 8, 0.5, 1 * HOUR),
}


def sality_setup(seed: int, size: str) -> Dict[str, Any]:
    scale, sensors, announce_hours, window = SALITY[size]
    scenario = scenarios.build_sality_scenario(
        sality_config(scale, master_seed=seed),
        sensor_count=sensors,
        announce_hours=announce_hours,
    )
    scenarios.launch_sality_fleet(scenario, SALITY_CRAWLER_INSTANCES)
    return {"scenario": scenario, "window": window}


def sality_run(state: Dict[str, Any]) -> Dict[str, Any]:
    scenario = state["scenario"]
    scenario.run_for(state["window"])
    since = scenario.measurement_start
    return {
        "crawlers": {c.name: report_counts(c) for c in scenario.crawlers},
        "sensor_logs": {
            s.node_id: [
                [o.time, o.src_ip, o.src_port, o.command, o.bot_id, o.minor_version, o.padding.hex()]
                for o in s.peer_list_request_log(since=since)
            ]
            for s in scenario.sensors
        },
    }


def sality_checks(outputs: Dict[str, Any]) -> List[Check]:
    return crawler_checks(outputs["crawlers"]) + [
        ("sensors logged requests", any(outputs["sensor_logs"].values())),
    ]


# -- zeus-ratio-sweep --------------------------------------------------------


SWEEP = {
    "full": dict(scale="small", sensors=8, announce_hours=2, hours=6, ratios=(1, 2, 4, 8, 16, 32)),
    "smoke": dict(scale="tiny", sensors=4, announce_hours=0.5, hours=1, ratios=(1, 4)),
}
#: Pool size of the untraced sweep; run.py reads it from the same file.
SWEEP_WORKERS = json.loads((Path(__file__).parent / "workloads.json").read_text())[
    "zeus-ratio-sweep"
]["workers"]


def sweep_setup(seed: int, size: str) -> Dict[str, Any]:
    return {"spec": sweeps.build_sweep("fig3-zeus", root_seed=seed, **SWEEP[size])}


def sweep_run(state: Dict[str, Any]) -> Dict[str, Any]:
    # The traced pass sets ``in_process`` so that its spans see the
    # points; records do not depend on the executor.
    workers = 1 if state.get("in_process") else SWEEP_WORKERS
    result = executors.run_sweep(state["spec"], workers=workers)
    state["result"] = result
    return {
        "values": result.values(),
        "attempts": [record.attempts for record in result.records],
    }


def sweep_checks(outputs: Dict[str, Any]) -> List[Check]:
    values = outputs["values"]
    return [
        ("every point ran once", all(a == 1 for a in outputs["attempts"])),
        ("every point found bots", bool(values) and all(v["distinct_ips"] > 0 for v in values)),
    ]


def runner_metrics(state: Dict[str, Any]) -> Dict[str, float]:
    """runner.* metrics from an untraced sweep's SweepMetrics and
    PointRecords; overhead is wall time minus the busiest worker's sum
    of point times."""
    result = state["result"]
    metrics = result.metrics
    per_worker: Dict[str, float] = {}
    for record in result.records:
        per_worker[record.worker] = per_worker.get(record.worker, 0.0) + record.wall_time
    return {
        "runner.points": len(result.records),
        "runner.retries": metrics.retries,
        "runner.utilization": metrics.utilization(),
        "runner.point_s_max": max(metrics.point_wall_times),
        "runner.overhead_s": metrics.wall_time - max(per_worker.values()),
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Dict[str, Any]]
    checks: Callable[[Dict[str, Any]], List[Check]]


#: Default seeds, set-up repeats and recorded output hashes live in
#: workloads.json, which run.py reads without importing the program.
WORKLOADS = {
    "zeus-flagship": Workload(flagship_setup, flagship_run, flagship_checks),
    "sality-capture": Workload(sality_setup, sality_run, sality_checks),
    "zeus-ratio-sweep": Workload(sweep_setup, sweep_run, sweep_checks),
}
