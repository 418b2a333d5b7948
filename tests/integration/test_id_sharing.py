"""Memory gate: one object per bot identity.

Counts id objects, not bytes, so the gate is host-independent: after a
tiny capture with sensors and a crawler, every place that keeps a bot
id (slab rows, crawler report tables and edges, Zeus sensor log
records) must hold the one shared object for that id value.  A private
copy per row, report key or log record shows up as more objects than
values.
"""

import pytest

from repro.botnets import state
from repro.botnets.zeus import protocol
from repro.core.defects import SalityDefectProfile, ZeusDefectProfile
from repro.sim.clock import MINUTE
from repro.workloads import scenarios
from repro.workloads.population import sality_config, zeus_config


@pytest.fixture(autouse=True)
def fresh_tables(monkeypatch):
    # No earlier test's ids and no table clear mid-run decide the count.
    monkeypatch.setattr(state, "_id_intern", {}, raising=False)
    monkeypatch.setattr(protocol, "_entry_intern", {}, raising=False)


@pytest.fixture
def zeus_capture():
    scenario = scenarios.build_zeus_scenario(
        zeus_config("tiny", master_seed=3), sensor_count=4, announce_hours=0.5
    )
    scenarios.launch_zeus_fleet(scenario, [ZeusDefectProfile(name="gate")])
    scenario.run_for(20 * MINUTE)
    return scenario


def kept_ids(scenario):
    """Every id reference the capture keeps in peer lists and crawler
    reports, one list item per reference."""
    held = [bot_id for bot_id in scenario.net.state.slab.ids if bot_id]
    for sensor in scenario.sensors:
        held.extend(entry.bot_id for entry in sensor.peer_list.entries())
    for crawler in scenario.crawlers:
        report = crawler.report
        held.extend(report.first_seen_bot)
        held.extend(report.bot_endpoints)
        held.extend(report.verified_bots)
        for via, bot_id in report.edges:
            held.extend((via, bot_id))
    return held


def assert_one_object_per_value(held):
    values = set(held)
    # The capture must exercise sharing: ids held many times over.
    assert len(held) > 10 * len(values)
    assert len({id(bot_id) for bot_id in held}) == len(values)


def test_zeus_one_object_per_id_value(zeus_capture):
    held = kept_ids(zeus_capture)
    for sensor in zeus_capture.sensors:
        held.extend(obs.source_id for obs in sensor.observations if obs.decrypt_ok)
    assert_one_object_per_value(held)


def test_zeus_sensor_log_shares_the_peer_list_id(zeus_capture):
    """A source id a sensor logs and the row it keeps for that bot are
    one object (the push add and the log record both intern)."""
    shared = 0
    for sensor in zeus_capture.sensors:
        rows = {entry.bot_id: entry.bot_id for entry in sensor.peer_list.entries()}
        for obs in sensor.observations:
            row = rows.get(obs.source_id)
            if row is not None:
                assert row is obs.source_id
                shared += 1
    assert shared > 0


def test_sality_one_object_per_id_value():
    """Sality ids are rebuilt from a 32-bit field per message; rows and
    the crawler report still share one object per id."""
    scenario = scenarios.build_sality_scenario(
        sality_config("tiny", master_seed=3), sensor_count=2, announce_hours=0.5
    )
    scenarios.launch_sality_fleet(scenario, [(SalityDefectProfile(name="gate"), 1)])
    scenario.run_for(20 * MINUTE)
    assert_one_object_per_value(kept_ids(scenario))
