"""SHA-256: FIPS 180-4 known-answer tests, the frozen reference's two
backends, and the hashlib-backed production module against both."""

import pytest

from repro.crypto.sha256 import SHA256, sha256
from tests.crypto import sha256_reference as reference

FIPS_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"a" * 1_000_000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("message,expected", FIPS_VECTORS)
def test_fips_vectors(backend, message, expected):
    assert reference.sha256(message, backend=backend).hex() == expected
    assert sha256(message).hex() == expected
    assert SHA256(message).hexdigest() == expected


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
def test_incremental_equals_oneshot(backend):
    h = reference.SHA256(backend=backend)
    production = SHA256()
    for chunk in (b"hello ", b"", b"world", b"!" * 200):
        h.update(chunk)
        production.update(chunk)
    message = b"hello world" + b"!" * 200
    assert h.digest() == reference.sha256(message, backend=backend)
    assert production.digest() == h.digest() == sha256(message)


def test_digest_does_not_finalize_pure_state():
    for h in (reference.SHA256(b"abc", backend="pure"), SHA256(b"abc")):
        first = h.digest()
        assert h.digest() == first  # repeatable
        h.update(b"def")
        assert h.digest() == reference.sha256(b"abcdef", backend="pure")


def test_copy_is_independent():
    for h in (reference.SHA256(b"prefix", backend="pure"), SHA256(b"prefix")):
        clone = h.copy()
        h.update(b"-left")
        clone.update(b"-right")
        assert h.digest() == reference.sha256(b"prefix-left", backend="pure")
        assert clone.digest() == reference.sha256(b"prefix-right",
                                                  backend="pure")


def test_hexdigest_matches_digest():
    h = SHA256(b"xyz")
    assert h.hexdigest() == h.digest().hex()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        reference.SHA256(backend="md5")


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000])
def test_backend_agreement_at_padding_boundaries(length):
    message = b"\x5a" * length
    expected = reference.sha256(message, backend="pure")
    assert expected == reference.sha256(message, backend="hashlib")
    assert sha256(message) == expected


def test_streaming_buffer_holds_only_the_subblock_tail():
    # The reference's linear-time update keeps at most one partial block
    # buffered: full blocks are compressed straight out of the incoming
    # data, so a long message absorbed in many small updates never
    # accumulates.
    h = reference.SHA256(backend="pure")
    for i in range(300):
        h.update(bytes([i & 0xFF]) * 7)   # 2100 bytes, 7 at a time
        assert len(h._buffer) < reference.SHA256.block_size
    message = b"".join(bytes([i & 0xFF]) * 7 for i in range(300))
    assert h.digest() == reference.sha256(message, backend="pure")
    assert h.digest() == sha256(message)


@pytest.mark.parametrize("chunk_size", [1, 63, 64, 65, 256])
def test_streaming_chunk_sizes_agree(chunk_size):
    message = bytes(range(256)) * 5
    h = reference.SHA256(backend="pure")
    production = SHA256()
    for start in range(0, len(message), chunk_size):
        h.update(message[start:start + chunk_size])
        production.update(message[start:start + chunk_size])
    assert h.digest() == production.digest() == sha256(message)
