"""Unit tests for GameOver Zeus crypto."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.botnets.zeus.crypto import (
    MAX_MESSAGE_LEN,
    KeystreamCache,
    rc4_keystream,
    visual_decode,
    visual_encode,
    zeus_decrypt,
    zeus_encrypt,
)

KEY = bytes(range(20))
OTHER_KEY = bytes(range(1, 21))


class TestRc4:
    def test_known_vector(self):
        """RFC 6229-style check: RC4("Key") keystream prefix."""
        ks = rc4_keystream(b"Key", 8)
        assert ks.hex() == "eb9f7781b734ca72a719"[:16]

    def test_known_vector_wiki(self):
        # Classic test vector: key "Key", plaintext "Plaintext"
        ks = rc4_keystream(b"Key", 9)
        ct = bytes(k ^ p for k, p in zip(ks, b"Plaintext"))
        assert ct.hex() == "bbf316e8d940af0ad3"

    def test_deterministic(self):
        assert rc4_keystream(KEY, 64) == rc4_keystream(KEY, 64)

    def test_distinct_keys_distinct_streams(self):
        assert rc4_keystream(KEY, 64) != rc4_keystream(OTHER_KEY, 64)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            rc4_keystream(b"", 8)


class TestKeystreamCache:
    def test_xor_roundtrip(self):
        cache = KeystreamCache()
        data = b"The quick brown fox jumps over the lazy dog"
        assert cache.xor(KEY, cache.xor(KEY, data)) == data

    def test_xor_matches_raw_rc4(self):
        cache = KeystreamCache()
        data = b"hello world"
        expected = bytes(k ^ p for k, p in zip(rc4_keystream(KEY, len(data)), data))
        assert cache.xor(KEY, data) == expected

    def test_empty_data(self):
        assert KeystreamCache().xor(KEY, b"") == b""

    def test_oversized_message_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCache().xor(KEY, b"x" * 5000)

    def test_cache_eviction_safe(self):
        cache = KeystreamCache(max_entries=2)
        data = b"payload"
        first = cache.xor(KEY, data)
        cache.xor(OTHER_KEY, data)
        cache.xor(bytes(20), data)  # evicts
        assert cache.xor(KEY, data) == first

    def test_in_flight_key_survives_the_bound(self):
        """At the bound the oldest keys go, not all: a key whose reply
        is still due (the newest) keeps its keystream."""
        cache = KeystreamCache(max_entries=8)
        older = [bytes([n]) * 20 for n in range(1, 8)]
        for key in older:
            cache.xor(key, b"earlier exchange")
        in_flight = b"\xaa" * 20
        request = cache.xor(in_flight, b"request")  # the cache is now full
        cache.xor(b"\xbb" * 20, b"next exchange")  # hits the bound
        assert in_flight in cache._cache
        assert older[0] not in cache._cache and older[-1] in cache._cache
        assert len(cache._cache) <= 8
        assert cache.xor(in_flight, request) == b"request"

    def test_eviction_drops_a_quarter_in_insertion_order(self):
        cache = KeystreamCache(max_entries=16)
        keys = [n.to_bytes(20, "big") for n in range(40)]
        for key in keys:
            cache.xor(key, b"x")
            assert len(cache._cache) <= 16
        # The survivors are always the newest keys, oldest first.
        assert list(cache._cache) == keys[-len(cache._cache):]


class TestVisualLayer:
    def test_roundtrip(self):
        for data in (b"", b"a", b"ab", b"hello world", bytes(range(256))):
            assert visual_decode(visual_encode(data)) == data

    def test_encode_is_chained_xor(self):
        data = b"\x10\x20\x30"
        encoded = visual_encode(data)
        assert encoded[0] == 0x10
        assert encoded[1] == 0x20 ^ 0x10
        assert encoded[2] == 0x30 ^ 0x20

    def test_encode_changes_data(self):
        assert visual_encode(b"hello world") != b"hello world"


class TestZeusEncryption:
    def test_roundtrip(self):
        plaintext = b"x" * 100
        assert zeus_decrypt(KEY, zeus_encrypt(KEY, plaintext)) == plaintext

    def test_wrong_key_garbles(self):
        plaintext = b"x" * 100
        garbled = zeus_decrypt(OTHER_KEY, zeus_encrypt(KEY, plaintext))
        assert garbled != plaintext

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            zeus_encrypt(b"short", b"data")
        with pytest.raises(ValueError):
            zeus_decrypt(b"short", b"data")


class TestKeystreamCacheProperties:
    @given(
        keys=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=4, unique=True),
        needs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.one_of(
                    st.integers(min_value=0, max_value=80),
                    st.integers(min_value=0, max_value=MAX_MESSAGE_LEN),
                ),
            ),
            min_size=1,
            max_size=24,
        ),
        max_entries=st.integers(min_value=1, max_value=3),
    )
    def test_xor_matches_full_keystream(self, keys, needs, max_entries):
        """Whatever order of growing and shrinking needs, and however
        often keys are evicted, ``xor`` masks with the key's RC4
        keystream; resume state is stored as bytes, never a list."""
        cache = KeystreamCache(max_entries=max_entries)
        for which, size in needs:
            key = keys[which % len(keys)]
            data = bytes((7 * n + size) & 0xFF for n in range(size))
            expected = bytes(a ^ b for a, b in zip(data, rc4_keystream(key, size)))
            assert cache.xor(key, data) == expected
            assert len(cache._cache) <= max_entries
            for entry in cache._cache.values():
                assert not any(isinstance(field, list) for field in entry)
                assert isinstance(entry[2], bytes) and len(entry[2]) == 256

    def test_first_chunk_fits_first_need(self):
        cache = KeystreamCache()
        cache.xor(KEY, b"\x00" * 4)
        assert cache._cache[KEY][1] == KeystreamCache.INITIAL_LEN == 32
        cache.xor(OTHER_KEY, b"\x00" * 65)
        assert cache._cache[OTHER_KEY][1] == 128
        cache.xor(KEY, b"\x00" * 33)  # grows by doubling from 32
        assert cache._cache[KEY][1] == 64
