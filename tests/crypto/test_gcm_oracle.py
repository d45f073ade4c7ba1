"""AES-GCM is byte-identical to the frozen per-block reference.

The production class batches the CTR keystream into one byte-sliced AES
pass and upgrades GHASH from a one-table to a 16-table multiply after
``GHASH_UPGRADE_BLOCKS``; the reference (``tests/crypto/gcm_reference.py``)
does neither.  Lengths run from the empty message (a one-block pass) across
the longest batch and the upgrade point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gcm
from repro.crypto.gcm import AesGcm
from repro.errors import InvalidTag
from tests.crypto.gcm_reference import ReferenceAesGcm

KEY = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size))
NONCE = st.binary(min_size=12, max_size=12)
AAD = st.binary(max_size=80)

#: Plaintext lengths in blocks from the shortest passes (0 and 1 payload
#: blocks) up past the GHASH upgrade point and the longest single batch,
#: plus a partial tail of
#: 0, 1 or 15 bytes each.
BLOCK_COUNTS = (0, 1, 3, 4, 15, 16, 17, 63, 64, 65)
LONG_LENGTHS = (16 * 1024, 16 * 1024 + 1, 16 * 1025 + 7, 16 * 2051)
LENGTH = st.one_of(
    st.builds(lambda blocks, tail: max(0, 16 * blocks - tail),
              st.sampled_from(BLOCK_COUNTS), st.sampled_from((0, 1, 15))),
    st.integers(min_value=0, max_value=1100),
)


def _payload(data, length):
    seed = data.draw(st.binary(min_size=16, max_size=16), label="fill")
    return (seed * (length // 16 + 1))[:length]


@given(KEY, NONCE, AAD, st.data())
@settings(max_examples=120, deadline=None)
def test_encrypt_matches_reference(key, nonce, aad, data):
    plaintext = _payload(data, data.draw(LENGTH, label="length"))
    sealed = AesGcm(key).encrypt(nonce, plaintext, aad)
    assert sealed == ReferenceAesGcm(key).encrypt(nonce, plaintext, aad)
    assert AesGcm(key).decrypt(nonce, sealed, aad) == plaintext


@pytest.mark.parametrize("length", LONG_LENGTHS)
def test_long_messages_match_reference(length):
    key, nonce = bytes(range(32)), bytes(range(12))
    plaintext = bytes(i * 7 % 251 for i in range(length))
    sealed = AesGcm(key).encrypt(nonce, plaintext, b"aad")
    assert sealed == ReferenceAesGcm(key).encrypt(nonce, plaintext, b"aad")
    assert AesGcm(key).decrypt(nonce, sealed, b"aad") == plaintext


@given(KEY, st.lists(st.tuples(NONCE, st.integers(0, 40 * 16), AAD),
                     min_size=2, max_size=10), st.data())
@settings(max_examples=25, deadline=None)
def test_one_key_across_the_ghash_upgrade(key, calls, data):
    # One message long enough to cross the upgrade point, somewhere in
    # a run of short ones that are hashed before and after it.
    at = data.draw(st.integers(0, len(calls)), label="at")
    calls.insert(at, (bytes(12), 16 * gcm.GHASH_UPGRADE_BLOCKS, b""))
    aead, reference = AesGcm(key), ReferenceAesGcm(key)
    for nonce, length, aad in calls:
        plaintext = _payload(data, length)
        sealed = aead.encrypt(nonce, plaintext, aad)
        assert sealed == reference.encrypt(nonce, plaintext, aad)
        assert aead.decrypt(nonce, sealed, aad) == plaintext
    assert aead._ghash._position_tables is not None


def test_upgrade_happens_once_past_the_threshold():
    aead, reference = AesGcm(bytes(16)), ReferenceAesGcm(bytes(16))
    ghash = aead._ghash
    message = bytes(16 * 60)  # 60 blocks plus one length block per call
    calls = 0
    while ghash._position_tables is None:
        assert aead.encrypt(bytes(12), message) == reference.encrypt(
            bytes(12), message)
        calls += 1
    assert calls == gcm.GHASH_UPGRADE_BLOCKS // 61 + 1
    tables = ghash._position_tables
    assert aead.encrypt(bytes(12), message) == reference.encrypt(
        bytes(12), message)
    assert ghash._position_tables is tables


@given(KEY, NONCE, st.binary(max_size=300), AAD,
       st.sampled_from(["tag", "ciphertext", "aad"]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_tampering_raises_invalid_tag(key, nonce, plaintext, aad, part,
                                      where):
    aead = AesGcm(key)
    sealed = bytearray(aead.encrypt(nonce, plaintext, aad))
    if part == "tag" or (part == "ciphertext" and not plaintext):
        sealed[len(plaintext) + where % 16] ^= 0x80
    elif part == "ciphertext":
        sealed[where % len(plaintext)] ^= 0x01
    else:
        aad = aad + b"\x00" if not aad else (
            aad[:where % len(aad)] + bytes([aad[where % len(aad)] ^ 1])
            + aad[where % len(aad) + 1:])
    with pytest.raises(InvalidTag):
        aead.decrypt(nonce, bytes(sealed), aad)
