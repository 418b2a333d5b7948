"""Integration tests: sensors injected into small simulated botnets."""

import random

import pytest

from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.network import SalityNetwork, SalityNetworkConfig
from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.network import ZeusNetwork, ZeusNetworkConfig
from repro.botnets.zeus.protocol import MessageType
from repro.core.sensor import (
    SalitySensor,
    SensorDefectProfile,
    ZeusSensor,
)
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, Message, Transport
from repro.sim.clock import DAY, HOUR
from repro.sim.scheduler import Scheduler


def zeus_net(population=60, seed=11):
    net = ZeusNetwork(
        ZeusNetworkConfig(
            population=population, routable_fraction=0.5, bootstrap_peers=10, master_seed=seed
        )
    )
    net.build()
    return net


def inject_zeus_sensor(net, profile=SensorDefectProfile(), index=0, **kwargs):
    rng = net.rngs.fork(f"sensor-{index}").stream("sensor")
    sensor = ZeusSensor(
        node_id=f"sensor-{index}",
        bot_id=zeus_protocol.random_id(rng),
        endpoint=Endpoint(parse_ip(f"50.{index}.0.1"), 6000),
        transport=net.transport,
        scheduler=net.scheduler,
        rng=rng,
        profile=profile,
        announce_duration=4 * HOUR,
        **kwargs,
    )
    sensor.seed_peers(net.bootstrap_sample(10, seed=90 + index))
    return sensor


class TestZeusSensorInjection:
    def test_sensor_gets_contacted_after_announcing(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net)
        net.start_all()
        sensor.start()
        net.run_for(12 * HOUR)
        assert len(sensor.observations) > 0
        assert len(sensor.observed_ips()) > 1

    def test_sensor_appears_in_bot_peer_lists(self):
        """Announcement pushes the sensor into the population's peer
        lists -- rising in-degree (Section 2.2)."""
        net = zeus_net()
        sensor = inject_zeus_sensor(net)
        net.start_all()
        sensor.start()
        net.run_for(12 * HOUR)
        holders = sum(
            1 for bot in net.bots.values() if sensor.bot_id in bot.peer_list
        )
        assert holders >= 3

    def test_sensor_hears_from_natted_bots(self):
        """Sensors discover NATed bots that contact them -- the key
        coverage advantage over crawlers (Section 2.2)."""
        net = zeus_net(population=100)
        sensor = inject_zeus_sensor(net)
        net.start_all()
        sensor.start()
        net.run_for(24 * HOUR)
        natted_ips = {bot.endpoint.ip for bot in net.non_routable_bots}
        assert sensor.observed_ips() & natted_ips

    def test_augmented_sensor_collects_edges(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, active_peer_list_requests=True)
        net.start_all()
        sensor.start()
        net.run_for(12 * HOUR)
        assert len(sensor.observed_edges) > 0

    def test_passive_sensor_collects_no_edges(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, active_peer_list_requests=False)
        net.start_all()
        sensor.start()
        net.run_for(8 * HOUR)
        assert sensor.observed_edges == set()

    def test_announcing_window(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net)
        net.start_all()
        sensor.start()
        assert sensor.announcing
        net.run_for(5 * HOUR)
        assert not sensor.announcing

    def test_observations_log_fields(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net)
        net.start_all()
        sensor.start()
        net.run_for(8 * HOUR)
        decoded = [o for o in sensor.observations if o.decrypt_ok]
        assert decoded
        sample = decoded[0]
        assert sample.msg_type >= 0
        assert len(sample.source_id) == 20
        assert sample.src_ip > 0

    def test_peer_list_request_log_window(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net)
        net.start_all()
        sensor.start()
        net.run_for(10 * HOUR)
        all_plrs = sensor.peer_list_request_log()
        windowed = sensor.peer_list_request_log(since=0.0, until=5 * HOUR)
        assert len(windowed) <= len(all_plrs)
        assert all(o.time < 5 * HOUR for o in windowed)


class TestZeusSensorDefects:
    def probe(self, net, sensor, msg_type, payload=b""):
        """Send one request to the sensor from a fresh prober."""
        prober_rng = net.rngs.stream("prober")
        prober = Endpoint(parse_ip("51.0.0.1"), 6001)
        replies = []
        # Snapshot payloads: builder transports recycle Message objects.
        net.transport.bind(prober, lambda m: replies.append(m.payload))
        prober_id = zeus_protocol.random_id(prober_rng)
        message = zeus_protocol.make_message(msg_type, prober_id, prober_rng, payload=payload)
        net.transport.send(prober, sensor.endpoint, zeus_protocol.encrypt_message(message, sensor.bot_id))
        net.run_for(10.0)
        net.transport.unbind(prober)
        return [zeus_protocol.decrypt_message(r, prober_id) for r in replies]

    def test_clean_sensor_answers_proxy_requests(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net)
        sensor.proxy_list = net.proxies
        net.start_all()
        sensor.start()
        replies = self.probe(net, sensor, MessageType.PROXY_REQUEST)
        assert replies and replies[0].msg_type == MessageType.PROXY_REPLY
        assert zeus_protocol.decode_peer_entries(replies[0].payload) == net.proxies

    def test_defective_sensor_ignores_proxy_requests(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, profile=SensorDefectProfile(no_proxy_reply=True))
        net.start_all()
        sensor.start()
        assert self.probe(net, sensor, MessageType.PROXY_REQUEST) == []

    def test_empty_peer_list_defect(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, profile=SensorDefectProfile(empty_peer_lists=True))
        net.start_all()
        sensor.start()
        net.run_for(2 * HOUR)
        replies = self.probe(
            net, sensor, MessageType.PEER_LIST_REQUEST, payload=zeus_protocol.random_id(net.rngs.stream("x"))
        )
        assert replies
        assert zeus_protocol.decode_peer_entries(replies[0].payload) == []

    def test_duplicate_peers_defect(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, profile=SensorDefectProfile(duplicate_peers=True))
        net.start_all()
        sensor.start()
        net.run_for(2 * HOUR)
        replies = self.probe(
            net, sensor, MessageType.PEER_LIST_REQUEST, payload=zeus_protocol.random_id(net.rngs.stream("x"))
        )
        entries = zeus_protocol.decode_peer_entries(replies[0].payload)
        ids = [bot_id for bot_id, _ in entries]
        assert len(ids) != len(set(ids))  # duplicates present

    def test_stale_version_defect(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, profile=SensorDefectProfile(stale_version=True))
        net.start_all()
        sensor.start()
        replies = self.probe(net, sensor, MessageType.VERSION_REQUEST)
        version, _ = zeus_protocol.decode_version_reply(replies[0].payload)
        assert version < sensor.config.version

    def test_no_update_support_defect(self):
        net = zeus_net()
        sensor = inject_zeus_sensor(net, profile=SensorDefectProfile(no_update_support=True))
        net.start_all()
        sensor.start()
        assert self.probe(net, sensor, MessageType.DATA_REQUEST, payload=b"\x01") == []

    def test_defect_names(self):
        profile = SensorDefectProfile(empty_peer_lists=True, stale_version=True)
        assert profile.defect_names() == ["empty_peer_lists", "stale_version"]


class TestSalitySensor:
    def test_sensor_integrates_and_logs(self):
        net = SalityNetwork(
            SalityNetworkConfig(
                population=60, routable_fraction=0.5, bootstrap_peers=10, master_seed=11
            )
        )
        net.build()
        rng = net.rngs.fork("sensor").stream("sensor")
        sensor = SalitySensor(
            node_id="sensor-0",
            bot_id=rng.getrandbits(32).to_bytes(4, "big"),
            endpoint=Endpoint(parse_ip("50.0.0.1"), 6000),
            transport=net.transport,
            scheduler=net.scheduler,
            rng=rng,
            announce_duration=4 * HOUR,
        )
        sensor.seed_peers(net.bootstrap_sample(10, seed=90))
        net.start_all()
        sensor.start()
        net.run_for(16 * HOUR)
        assert len(sensor.observations) > 0
        decoded = [o for o in sensor.observations if o.decode_ok]
        assert decoded
        assert all(o.minor_version >= 0 for o in decoded)

    def test_sensor_earns_goodcount(self):
        """A full-protocol sensor accrues reputation and eventually
        gets propagated -- sensor injection despite the goodcount
        scheme (Section 3.1) just takes patience."""
        net = SalityNetwork(
            SalityNetworkConfig(
                population=40, routable_fraction=0.6, bootstrap_peers=8, master_seed=12
            )
        )
        net.build()
        rng = net.rngs.fork("sensor").stream("sensor")
        sensor = SalitySensor(
            node_id="sensor-0",
            bot_id=rng.getrandbits(32).to_bytes(4, "big"),
            endpoint=Endpoint(parse_ip("50.0.0.1"), 6000),
            transport=net.transport,
            scheduler=net.scheduler,
            rng=rng,
            announce_duration=6 * HOUR,
        )
        sensor.seed_peers(net.bootstrap_sample(8, seed=90))
        net.start_all()
        sensor.start()
        net.run_for(24 * HOUR)
        goodcounts = [
            bot.peer_list.get(sensor.bot_id).goodcount
            for bot in net.bots.values()
            if sensor.bot_id in bot.peer_list
        ]
        assert goodcounts, "sensor never entered any peer list"
        assert max(goodcounts) > 0


class TestSensorDecodesOnce:
    """A sensor logs a message and acts on it as a bot from one decode."""

    SRC = Endpoint(parse_ip("51.0.0.1"), 6001)

    def counting(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)
        return calls

    def zeus_sensor(self):
        scheduler = Scheduler()
        rng = random.Random(5)
        return ZeusSensor(
            node_id="sensor-0",
            bot_id=zeus_protocol.random_id(rng),
            endpoint=Endpoint(parse_ip("50.0.0.1"), 6000),
            transport=Transport(scheduler, random.Random(0)),
            scheduler=scheduler,
            rng=rng,
        )

    def zeus_request(self, sensor, key=None):
        rng = random.Random(9)
        message = zeus_protocol.make_message(
            MessageType.VERSION_REQUEST, zeus_protocol.random_id(rng), rng
        )
        payload = zeus_protocol.encrypt_message(message, key or sensor.bot_id)
        return Message(self.SRC, sensor.endpoint, payload, 0.0, 0.0)

    def test_zeus_sensor_decrypts_once(self, monkeypatch):
        sensor = self.zeus_sensor()
        calls = self.counting(monkeypatch, zeus_protocol, "decrypt_message")
        sensor.handle_message(self.zeus_request(sensor))
        assert calls == ["decrypt_message"]
        assert sensor.observations[0].decrypt_ok
        assert sensor.counters.requests_served == 1

    def test_zeus_sensor_counters(self, monkeypatch):
        sensor = self.zeus_sensor()
        calls = self.counting(monkeypatch, zeus_protocol, "decrypt_message")
        sensor.handle_message(self.zeus_request(sensor, key=bytes(20)))
        assert (sensor.undecryptable, sensor.blacklist_drops) == (1, 0)
        sensor.static_blacklist.add(self.SRC.ip)
        sensor.handle_message(self.zeus_request(sensor))
        assert (sensor.undecryptable, sensor.blacklist_drops) == (1, 1)
        assert calls == ["decrypt_message"] * 2
        assert [obs.decrypt_ok for obs in sensor.observations] == [False, True]
        assert sensor.counters.requests_served == 0

    def test_sality_sensor_decodes_once(self, monkeypatch):
        scheduler = Scheduler()
        rng = random.Random(5)
        sensor = SalitySensor(
            node_id="sensor-0",
            bot_id=rng.getrandbits(32).to_bytes(4, "big"),
            endpoint=Endpoint(parse_ip("50.0.0.1"), 6000),
            transport=Transport(scheduler, random.Random(0)),
            scheduler=scheduler,
            rng=rng,
        )
        calls = self.counting(monkeypatch, sality_protocol, "decode_packet")
        hello = sality_protocol.make_message(
            sality_protocol.Command.HELLO, 1234, random.Random(9),
            payload=sality_protocol.encode_hello(7000),
        )
        payload = sality_protocol.encode_packet(hello)
        sensor.handle_message(Message(self.SRC, sensor.endpoint, payload, 0.0, 0.0))
        assert calls == ["decode_packet"]
        assert sensor.observations[0].decode_ok
        assert sensor.counters.requests_served == 1
        sensor.handle_message(Message(self.SRC, sensor.endpoint, payload[:8], 0.0, 0.0))
        assert calls == ["decode_packet"] * 2
        assert sensor.undecodable == 1
