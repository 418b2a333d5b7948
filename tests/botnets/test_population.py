"""Tests for population-builder address layout (hotspots, dense
neighborhoods, NAT grouping)."""

import pytest

from repro.botnets.population import PopulationConfig
from repro.botnets.zeus.network import ZeusNetwork, ZeusNetworkConfig
from repro.net.address import Subnet, subnet_key


def build(**overrides):
    defaults = dict(population=120, routable_fraction=0.5, bootstrap_peers=8, master_seed=4)
    defaults.update(overrides)
    net = ZeusNetwork(ZeusNetworkConfig(**defaults))
    net.build()
    return net


class TestDenseNeighborhoods:
    def test_each_neighborhood_fully_populated(self):
        net = build(dense_neighborhoods=3, bots_per_dense_neighborhood=8)
        assert len(net.dense_neighborhood_keys) == 3
        for key in net.dense_neighborhood_keys:
            members = [
                bot for bot in net.routable_bots if subnet_key(bot.endpoint.ip, 19) == key
            ]
            assert len(members) == 8
            halves = {subnet_key(bot.endpoint.ip, 20) for bot in members}
            assert len(halves) == 2  # split across both /20 halves

    def test_odd_bot_count_split(self):
        net = build(dense_neighborhoods=1, bots_per_dense_neighborhood=7)
        key = net.dense_neighborhood_keys[0]
        members = [
            bot for bot in net.routable_bots if subnet_key(bot.endpoint.ip, 19) == key
        ]
        assert len(members) == 7

    def test_no_neighborhoods_by_default(self):
        net = build()
        assert net.dense_neighborhood_keys == []

    def test_addresses_unique_where_required(self):
        net = build(dense_neighborhoods=4)
        routable_ips = [bot.endpoint.ip for bot in net.routable_bots]
        assert len(routable_ips) == len(set(routable_ips))
        endpoints = [bot.endpoint for bot in net.bots.values()]
        assert len(endpoints) == len(set(endpoints))  # NAT shares IPs, not ports

    def test_validation(self):
        config = PopulationConfig(dense_neighborhoods=2)
        assert config.bots_per_dense_neighborhood == 8


class TestAddressLayout:
    def test_routable_ips_inside_configured_blocks(self):
        net = build()
        blocks = [Subnet.parse(b) for b in net.config.routable_blocks]
        for bot in net.routable_bots:
            assert any(bot.endpoint.ip in block for block in blocks)

    def test_nat_ips_inside_nat_blocks(self):
        net = build()
        blocks = [Subnet.parse(b) for b in net.config.nat_blocks]
        for bot in net.non_routable_bots:
            assert any(bot.endpoint.ip in block for block in blocks)

    def test_hotspots_create_shared_slash24s(self):
        net = build(population=400, routable_fraction=0.5, subnet_hotspot_fraction=0.3)
        counts = {}
        for bot in net.routable_bots:
            key = subnet_key(bot.endpoint.ip, 24)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) >= 2  # at least one multi-infection /24

    def test_zero_hotspot_fraction_spreads_bots(self):
        net = build(population=200, routable_fraction=0.5, subnet_hotspot_fraction=0.0)
        counts = {}
        for bot in net.routable_bots:
            key = subnet_key(bot.endpoint.ip, 24)
            counts[key] = counts.get(key, 0) + 1
        # Random draws over three /12 blocks: collisions are possible
        # but shared /24s must be rare without hotspotting.
        shared = sum(1 for c in counts.values() if c > 1)
        assert shared <= len(net.routable_bots) * 0.1

    def test_gateway_occupancy_bounded(self):
        net = build(population=300, routable_fraction=0.2, max_bots_per_gateway=3)
        assert all(1 <= g.occupancy <= 3 for g in net.gateways)


class TestPeerStorage:
    def test_population_bots_share_one_slab(self):
        net = build()
        assert all(bot.peer_list._slab is net.state.slab for bot in net.bots.values())
        assert len(net.state.slab) == sum(len(bot.peer_list) for bot in net.bots.values())

    def test_standalone_node_gets_private_slab(self):
        from repro.core.sensor import ZeusSensor
        from repro.net.transport import Endpoint

        net = build()
        sensor = ZeusSensor(
            node_id="sensor-0",
            bot_id=b"\x01" * 20,
            endpoint=Endpoint(0x2D000001, 4000),
            transport=net.transport,
            scheduler=net.scheduler,
            rng=net.rngs.stream("sensor"),
        )
        assert sensor.peer_list._slab is not net.state.slab
        assert len(sensor.peer_list._slab) == 0
