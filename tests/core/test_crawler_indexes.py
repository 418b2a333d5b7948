"""The crawler's constant-time bookkeeping matches the scans it replaces.

* ``_in_flight`` counts pending requests per target; it must equal a
  recount of ``_pending`` at every point, including when a Zeus
  ``session_range`` crawler re-uses a live session id.
* ``ZeusCrawler._decrypt`` skips keys whose header cannot decode; it
  must return exactly what trying every recent key, newest first, does.
  The old loop is kept here as the oracle.
* The skip is what keeps trial decryption near one attempt per reply
  for a ``random_source`` crawler (the operation-count gate).
"""

import random
from collections import Counter

from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.network import ZeusNetwork, ZeusNetworkConfig
from repro.botnets.zeus.protocol import ZeusDecodeError
from repro.core.crawler import ZeusCrawler
from repro.core.defects import ZeusDefectProfile
from repro.core.stealth import StealthPolicy
from repro.faults.retry import CHAOS_RETRY
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, TransportConfig
from repro.sim.clock import HOUR, MINUTE


def zeus_net(loss=0.0, seed=3):
    net = ZeusNetwork(
        ZeusNetworkConfig(
            population=80,
            routable_fraction=0.5,
            bootstrap_peers=10,
            master_seed=seed,
            transport=TransportConfig(loss_rate=loss),
        )
    )
    net.build()
    net.start_all()
    net.run_for(HOUR)
    return net


def make_crawler(net, profile, retry=None, requests_per_target=2):
    return ZeusCrawler(
        name="crawler",
        endpoint=Endpoint(parse_ip("40.0.0.1"), 7777),
        transport=net.transport,
        scheduler=net.scheduler,
        rng=net.rngs.stream("crawler"),
        policy=StealthPolicy(per_target_interval=20.0, requests_per_target=requests_per_target),
        profile=profile,
        retry=retry,
    )


def full_loop_decrypt(payload, keys_oldest_first):
    """The pre-index ``_decrypt``: every key, newest first."""
    for key in reversed(keys_oldest_first):
        try:
            return zeus_protocol.decrypt_message(payload, key)
        except ZeusDecodeError:
            continue
    return None


def assert_counts_match(crawler):
    expected = Counter(p.target_id for p in crawler._pending.values())
    assert crawler._in_flight == dict(expected)


class TestInFlightCounts:
    def run_checked(self, net, crawler, steps=24, step=5 * MINUTE):
        crawler.start(net.bootstrap_sample(5, seed=1))
        for _ in range(steps):
            net.run_for(step)
            assert_counts_match(crawler)

    def test_counts_track_pending_under_retries(self):
        net = zeus_net(loss=0.5)
        crawler = make_crawler(net, ZeusDefectProfile(name="test"), retry=CHAOS_RETRY)
        self.run_checked(net, crawler)
        assert crawler.report.retries_sent > 0
        assert crawler.report.requests_expired > 0

    def test_counts_survive_session_id_reuse(self):
        """Three session ids for every request: inserts overwrite live
        entries, and the displaced request stops counting."""
        net = zeus_net(loss=0.3)
        crawler = make_crawler(
            net, ZeusDefectProfile(name="session-range", session_range=True),
            retry=CHAOS_RETRY,
        )
        self.run_checked(net, crawler)
        assert crawler.report.requests_sent > 10 * 3
        assert len(crawler._pending) <= 3


class TestTrialDecryption:
    def test_pre_check_matches_full_loop(self):
        """Every reply a random_source crawler receives, and junk around
        it, decrypts to the same message (or None) as the full loop."""
        net = zeus_net()
        crawler = make_crawler(
            net, ZeusDefectProfile(name="random-source", random_source=True)
        )
        seen = []
        indexed = crawler._decrypt

        def checked(payload):
            keys = list(crawler._source_prefixes)
            result = indexed(payload)
            assert result == full_loop_decrypt(payload, keys)
            seen.append(payload)
            return result

        crawler._decrypt = checked
        crawler.start(net.bootstrap_sample(5, seed=1))
        net.run_for(HOUR)
        assert len(seen) > 50
        assert crawler.report.responses_received > 50

        rng = random.Random(7)
        keys = list(crawler._source_prefixes)
        junk = [bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 200))) for _ in range(300)]
        for payload in seen[:100]:
            mutated = bytearray(payload)
            mutated[rng.randrange(4)] ^= 1 << rng.randrange(8)
            junk.append(bytes(mutated))
            junk.append(payload[: rng.randrange(len(payload))])
        for payload in junk:
            assert indexed(payload) == full_loop_decrypt(payload, keys)


class TestDecryptOperationCount:
    def test_fewer_than_two_decrypts_per_reply(self, monkeypatch):
        """Deterministic count gate: trial decryption of a random_source
        crawler's replies costs under 2 ``decrypt_message`` calls each
        (trying every recent key cost about 32 in the flagship)."""
        net = zeus_net()
        crawler = make_crawler(
            net, ZeusDefectProfile(name="random-source", random_source=True),
            requests_per_target=3,
        )
        calls = {"inside": False, "decrypts": 0}
        real_decrypt = zeus_protocol.decrypt_message

        def counting(payload, key):
            if calls["inside"]:
                calls["decrypts"] += 1
            return real_decrypt(payload, key)

        handler = crawler._on_message

        def on_message(message):
            calls["inside"] = True
            try:
                handler(message)
            finally:
                calls["inside"] = False

        monkeypatch.setattr(zeus_protocol, "decrypt_message", counting)
        crawler._on_message = on_message
        crawler.start(net.bootstrap_sample(5, seed=1))
        net.run_for(HOUR)
        replies = crawler.report.responses_received
        assert replies > 50
        assert calls["decrypts"] < 2 * replies
