"""Frozen reference SHA-256: the pure-Python backend ``repro.crypto.sha256``
once shipped beside its hashlib one.

This is the module as it was before ``repro.crypto.sha256`` became a thin
wrapper over :mod:`hashlib`, kept unchanged as a known-answer oracle: the
full FIPS 180-4 compression function, the round constants and the
``backend`` switch.  ``tests/crypto/test_sha256.py`` pins both backends to
the FIPS vectors and the production functions to this file.  Do not
optimise it.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

DIGEST_SIZE = 32
BLOCK_SIZE = 64

# First 32 bits of the fractional parts of the cube roots of the first 64 primes.
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

# First 32 bits of the fractional parts of the square roots of the first 8 primes.
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _compress(state: Iterable[int], block: bytes) -> tuple:
    """One application of the SHA-256 compression function."""
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (s0 + maj) & _MASK
        h, g, f, e, d, c, b, a = (
            g, f, e, (d + temp1) & _MASK, c, b, a, (temp1 + temp2) & _MASK,
        )

    s = tuple(state)
    return (
        (s[0] + a) & _MASK, (s[1] + b) & _MASK, (s[2] + c) & _MASK,
        (s[3] + d) & _MASK, (s[4] + e) & _MASK, (s[5] + f) & _MASK,
        (s[6] + g) & _MASK, (s[7] + h) & _MASK,
    )


class SHA256:
    """Incremental SHA-256 with a hashlib-compatible interface.

    Args:
        data: optional initial bytes to absorb.
        backend: ``"hashlib"`` (default) or ``"pure"``.
    """

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE

    def __init__(self, data: bytes = b"", backend: str = "hashlib") -> None:
        if backend not in ("hashlib", "pure"):
            raise ValueError(f"unknown SHA-256 backend: {backend!r}")
        self._backend = backend
        if backend == "hashlib":
            self._h = hashlib.sha256()
        else:
            self._state = _H0
            self._buffer = b""
            self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes.

        ``self._buffer`` only ever holds the sub-block tail (< 64 bytes):
        full blocks are compressed straight out of a :class:`memoryview`
        over ``data``, so absorbing a long message in many small updates
        costs O(len) total instead of the old grow-and-reslice O(len**2).
        """
        if self._backend == "hashlib":
            self._h.update(data)
            return
        self._length += len(data)
        offset = 0
        state = self._state
        if self._buffer:
            need = BLOCK_SIZE - len(self._buffer)
            if len(data) < need:
                self._buffer += bytes(data)
                return
            state = _compress(state, self._buffer + bytes(data[:need]))
            offset = need
            self._buffer = b""
        view = memoryview(data)
        end = offset + ((len(data) - offset) // BLOCK_SIZE) * BLOCK_SIZE
        for start in range(offset, end, BLOCK_SIZE):
            state = _compress(state, view[start:start + BLOCK_SIZE])
        self._state = state
        if end < len(data):
            self._buffer = bytes(view[end:])

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything absorbed so far."""
        if self._backend == "hashlib":
            return self._h.digest()
        # Pad a copy so the object remains usable for further updates.
        bit_length = self._length * 8
        padding = b"\x80" + b"\x00" * ((55 - self._length) % 64)
        tail = self._buffer + padding + struct.pack(">Q", bit_length)
        state = self._state
        for i in range(0, len(tail), BLOCK_SIZE):
            state = _compress(state, tail[i:i + BLOCK_SIZE])
        return struct.pack(">8I", *state)

    def hexdigest(self) -> str:
        """Digest as lowercase hex."""
        return self.digest().hex()

    def copy(self) -> "SHA256":
        """Independent copy of the running hash state."""
        clone = SHA256(backend=self._backend)
        if self._backend == "hashlib":
            clone._h = self._h.copy()
        else:
            clone._state = self._state
            clone._buffer = self._buffer
            clone._length = self._length
        return clone


def sha256(data: bytes, backend: str = "hashlib") -> bytes:
    """One-shot SHA-256 of ``data``."""
    return SHA256(data, backend=backend).digest()
