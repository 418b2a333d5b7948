"""Unit tests for the Zeus wire protocol codec."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.botnets import state
from repro.botnets.zeus import crypto, protocol
from repro.botnets.zeus.protocol import (
    MessageType,
    ZeusDecodeError,
    ZeusMessage,
    decode_message,
    decrypt_message,
    encode_message,
    encrypt_message,
    random_id,
    select_closest,
    xor_distance,
)
from repro.net.address import parse_ip
from repro.net.transport import Endpoint

RNG = random.Random(0)
SRC = bytes(range(20))


def fresh_message(msg_type=MessageType.VERSION_REQUEST, payload=b""):
    return protocol.make_message(msg_type, SRC, random.Random(1), payload=payload)


class TestCodec:
    def test_roundtrip_plain(self):
        message = fresh_message()
        decoded = decode_message(encode_message(message))
        assert decoded == message

    def test_roundtrip_with_payload_and_padding(self):
        payload = protocol.encode_peer_entries(
            [(random_id(RNG), Endpoint(parse_ip("25.0.0.1"), 2000))]
        )
        message = protocol.make_message(
            MessageType.PEER_LIST_REPLY, SRC, random.Random(2), payload=payload
        )
        decoded = decode_message(encode_message(message))
        assert decoded.payload == payload
        assert decoded.padding == message.padding

    def test_short_message_rejected(self):
        with pytest.raises(ZeusDecodeError):
            decode_message(b"\x00" * 10)

    def test_unknown_type_rejected(self):
        data = bytearray(encode_message(fresh_message()))
        data[3] = 0xEE
        with pytest.raises(ZeusDecodeError):
            decode_message(bytes(data))

    def test_irrational_lop_rejected(self):
        data = bytearray(encode_message(fresh_message()))
        data[2] = 0xFF
        with pytest.raises(ZeusDecodeError):
            decode_message(bytes(data))

    def test_lop_longer_than_body_rejected(self):
        data = bytearray(encode_message(fresh_message()))
        data[2] = protocol.MAX_LOP  # body has less padding than this
        if len(data) - protocol.HEADER_LEN < protocol.MAX_LOP:
            with pytest.raises(ZeusDecodeError):
                decode_message(bytes(data))

    def test_payload_validation_peer_list_request(self):
        message = ZeusMessage(
            msg_type=MessageType.PEER_LIST_REQUEST,
            session_id=random_id(RNG),
            source_id=SRC,
            payload=b"too-short",
        )
        with pytest.raises(ZeusDecodeError):
            decode_message(encode_message(message))

    def test_payload_validation_reply_count_mismatch(self):
        message = ZeusMessage(
            msg_type=MessageType.PEER_LIST_REPLY,
            session_id=random_id(RNG),
            source_id=SRC,
            payload=b"\x05",  # claims 5 entries, provides none
        )
        with pytest.raises(ZeusDecodeError):
            decode_message(encode_message(message))

    def test_header_fields_randomized_by_make_message(self):
        rng = random.Random(3)
        messages = [protocol.make_message(MessageType.VERSION_REQUEST, SRC, rng) for _ in range(50)]
        assert len({m.random_byte for m in messages}) > 10
        assert len({m.ttl for m in messages}) > 10
        assert len({len(m.padding) for m in messages}) > 5
        assert len({m.session_id for m in messages}) == 50


class TestPeerEntries:
    def test_roundtrip(self):
        entries = [
            (random_id(RNG), Endpoint(parse_ip("25.0.0.1"), 2000)),
            (random_id(RNG), Endpoint(parse_ip("26.1.2.3"), 9999)),
        ]
        payload = protocol.encode_peer_entries(entries)
        assert protocol.decode_peer_entries(payload) == entries

    def test_empty_list(self):
        assert protocol.decode_peer_entries(protocol.encode_peer_entries([])) == []

    def test_zero_port_rejected(self):
        payload = bytearray(
            protocol.encode_peer_entries([(random_id(RNG), Endpoint(parse_ip("25.0.0.1"), 2000))])
        )
        payload[-2:] = b"\x00\x00"
        with pytest.raises(ZeusDecodeError):
            protocol.decode_peer_entries(bytes(payload))

    def test_version_reply_roundtrip(self):
        payload = protocol.encode_version_reply(0x00030204, 4321)
        assert protocol.decode_version_reply(payload) == (0x00030204, 4321)

    def test_data_reply_roundtrip(self):
        payload = protocol.encode_data_reply(1, b"config-blob")
        assert protocol.decode_data_reply(payload) == (1, b"config-blob")

    def test_data_reply_length_mismatch(self):
        payload = bytearray(protocol.encode_data_reply(1, b"blob"))
        payload[4] += 1
        with pytest.raises(ZeusDecodeError):
            protocol.decode_data_reply(bytes(payload))


class TestXorMetric:
    def test_distance_symmetric_and_zero_on_self(self):
        a, b = random_id(RNG), random_id(RNG)
        assert xor_distance(a, b) == xor_distance(b, a)
        assert xor_distance(a, a) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_distance(b"ab", b"abc")

    def test_select_closest_orders_by_distance(self):
        key = bytes(20)
        near = bytes(19) + b"\x01"
        far = b"\xff" * 20
        endpoint = Endpoint(parse_ip("25.0.0.1"), 2000)
        selected = select_closest(key, [(far, endpoint), (near, endpoint)], limit=1)
        assert selected == [(near, endpoint)]

    def test_select_closest_limit(self):
        endpoint = Endpoint(parse_ip("25.0.0.1"), 2000)
        candidates = [(random_id(RNG), endpoint) for _ in range(30)]
        assert len(select_closest(bytes(20), candidates, limit=10)) == 10


class TestEncryptedRoundtrip:
    def test_roundtrip(self):
        recipient = random_id(random.Random(9))
        message = fresh_message()
        wire = encrypt_message(message, recipient)
        assert decrypt_message(wire, recipient) == message

    def test_wrong_key_raises_decode_error(self):
        """A wrongly keyed message is undecryptable at the receiver --
        the invalid-encryption defect signal (Section 4.1.3)."""
        recipient = random_id(random.Random(9))
        wrong = random_id(random.Random(10))
        failures = 0
        for i in range(20):
            message = protocol.make_message(
                MessageType.VERSION_REQUEST, SRC, random.Random(i)
            )
            try:
                decrypt_message(encrypt_message(message, wrong), recipient)
            except ZeusDecodeError:
                failures += 1
        assert failures >= 18  # structural checks catch nearly all


def masked_head(wire, key):
    """The pre-check's input: first 4 ciphertext bytes XOR the key's
    keystream prefix."""
    return int.from_bytes(wire[:4], "big") ^ crypto.keystream_prefix(key)


keys = st.binary(min_size=20, max_size=20)


class TestHeaderPreCheck:
    """``plausible_header`` may only reject keys that cannot decrypt:
    the crawler skips those keys, and skipping one that would have
    decoded would change which key wins."""

    @given(payload=st.binary(max_size=160), key=keys)
    @settings(max_examples=300, deadline=None)
    def test_rejected_header_means_decrypt_fails(self, payload, key):
        if not protocol.plausible_header(masked_head(payload, key), len(payload)):
            with pytest.raises(ZeusDecodeError):
                decrypt_message(payload, key)

    @given(
        msg_type=st.sampled_from(list(MessageType)),
        payload=st.binary(max_size=120),
        seed=st.integers(min_value=0, max_value=2**32),
        key=keys,
    )
    @settings(max_examples=200, deadline=None)
    def test_well_formed_message_passes_under_its_own_key(self, msg_type, payload, seed, key):
        message = protocol.make_message(msg_type, SRC, random.Random(seed), payload=payload)
        wire = encrypt_message(message, key)
        assert protocol.plausible_header(masked_head(wire, key), len(wire))

    def test_header_fields_match_decryption(self):
        """The 4-byte shortcut yields the decrypted header bytes."""
        rng = random.Random(4)
        for _ in range(50):
            key = random_id(rng)
            wire = bytes(rng.getrandbits(8) for _ in range(60))
            head = masked_head(wire, key)
            head ^= head >> 8
            head ^= head >> 16
            plain = crypto.zeus_decrypt(key, wire)
            assert head.to_bytes(4, "big") == plain[:4]

    def test_oversized_payload_left_to_decrypt(self):
        """Oversized input is decrypt_message's own ValueError, not a
        decode failure the pre-check may claim."""
        assert protocol.plausible_header(0xFFFFFFFF, crypto.MAX_MESSAGE_LEN + 1)


def plain_decode_peer_entries(payload):
    """The decoder without interning: a fresh id slice and Endpoint per
    entry.  Oracle for ``protocol.decode_peer_entries``."""
    if not payload:
        raise ZeusDecodeError("empty peer entries payload")
    count = payload[0]
    if len(payload) != 1 + count * protocol.PEER_ENTRY_LEN:
        raise ZeusDecodeError("peer entries length mismatch")
    entries = []
    for start in range(1, len(payload), protocol.PEER_ENTRY_LEN):
        raw = payload[start : start + protocol.PEER_ENTRY_LEN]
        port = int.from_bytes(raw[24:26], "big")
        if port == 0:
            raise ZeusDecodeError("zero port in peer entry")
        entries.append((raw[:20], Endpoint(int.from_bytes(raw[20:24], "big"), port)))
    return entries


def _decode(decoder, payload):
    try:
        return decoder(payload)
    except ZeusDecodeError as exc:
        return ("raised", str(exc))


# Few ids, ips and ports (zero included), so entries repeat within and
# across payloads and the intern table both hits and fills.
pool_entries = st.tuples(
    st.sampled_from([bytes([n]) * 20 for n in range(4)]),
    st.sampled_from([1, 0x19000001, 0xFFFFFFFF]),
    st.sampled_from([0, 1, 9999]),
).map(lambda e: e[0] + e[1].to_bytes(4, "big") + e[2].to_bytes(2, "big"))
payloads = st.tuples(
    st.lists(pool_entries, max_size=6),
    st.integers(min_value=-2, max_value=2),  # count-byte error
    st.sampled_from([b"", b"\x00", b"\x01" * 25]),  # trailing bytes
).map(lambda p: bytes([max(0, len(p[0]) + p[1])]) + b"".join(p[0]) + p[2])


class TestEntryInterning:
    """``decode_peer_entries`` shares one tuple per distinct entry; it
    must decode exactly as the plain decoder, across table clears."""

    @given(
        sequence=st.lists(st.one_of(payloads, st.just(b"")), min_size=1, max_size=12),
        bound=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_decoder(self, sequence, bound):
        with mock.patch.object(protocol, "_ENTRY_INTERN_MAX", bound), mock.patch.object(
            protocol, "_entry_intern", {}
        ):
            for payload in sequence:
                got = _decode(protocol.decode_peer_entries, payload)
                assert got == _decode(plain_decode_peer_entries, payload)
                assert len(protocol._entry_intern) <= bound
                if isinstance(got, list):
                    for bot_id, _ in got:
                        assert bot_id is state.intern_id(bot_id)

    def test_errors_match_plain_decoder(self):
        entry = (bytes(20), Endpoint(parse_ip("25.0.0.1"), 2000))
        good = protocol.encode_peer_entries([entry])
        zero_port = good[:-2] + b"\x00\x00"
        for payload in (b"", good[:-1], good + b"\x00", zero_port, zero_port):
            with pytest.raises(ZeusDecodeError) as raised:
                protocol.decode_peer_entries(payload)
            assert _decode(plain_decode_peer_entries, payload) == ("raised", str(raised.value))

    def test_one_object_per_entry(self):
        entry = (random_id(random.Random(3)), Endpoint(parse_ip("25.0.0.7"), 4242))
        payload = protocol.encode_peer_entries([entry, entry])
        first = protocol.decode_peer_entries(payload)
        second = protocol.decode_peer_entries(bytes(payload))
        assert first == second == [entry, entry]
        assert first[0] is first[1] is second[0]

    def test_moved_peer_keeps_its_id_object(self):
        bot_id = random_id(random.Random(4))
        old = protocol.decode_peer_entries(
            protocol.encode_peer_entries([(bot_id, Endpoint(parse_ip("25.0.0.7"), 4242))])
        )
        new = protocol.decode_peer_entries(
            protocol.encode_peer_entries([(bot_id, Endpoint(parse_ip("26.0.0.9"), 4242))])
        )
        assert old[0] is not new[0]
        assert old[0][0] is new[0][0]
