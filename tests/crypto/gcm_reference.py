"""Frozen reference AES-GCM: the original per-block implementation.

This is the AES-GCM that ``repro.crypto.gcm`` shipped before its batched
rewrite, kept unchanged as a byte-identity oracle: AES-CTR runs one block
at a time through ``AES.encrypt_block`` (the T-table cipher), the
keystream is XORed byte by byte, and GHASH uses 16 x 256 per-byte-position
tables built for every key.  ``tests/crypto/test_gcm_oracle.py`` and the
E11 benchmark require the production class to match it byte for byte.
Do not optimise this file.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES
from repro.crypto.constant_time import ct_bytes_eq
from repro.errors import CryptoError, InvalidTag

TAG_SIZE = 16
NONCE_SIZE = 12

_R = 0xE1 << 120  # the GCM reduction polynomial in the reflected convention


def _double(x: int) -> int:
    """Multiply a field element by x in GCM's reflected representation."""
    if x & 1:
        return (x >> 1) ^ _R
    return x >> 1


class _Ghash:
    """GHASH over GF(2^128), keyed by the hash subkey H.

    The spec's bitwise algorithm pairs the i-th bit of the input block
    (most-significant-first) with H*x^i.  In the big-endian integer view,
    integer bit position p therefore pairs with H*x^(127-p); the tables
    below aggregate those products per byte of the input block.
    """

    def __init__(self, h: bytes) -> None:
        h_int = int.from_bytes(h, "big")
        # powers[p] = H * x^(127-p) for integer bit position p (0 = LSB).
        powers = [0] * 128
        powers[127] = h_int
        for p in range(126, -1, -1):
            powers[p] = _double(powers[p + 1])
        # tables[b][v]: contribution of byte value v at byte index b
        # (b = 0 is the most significant byte of the block).
        tables = []
        for b in range(16):
            base = 8 * (15 - b)
            table = [0] * 256
            for v in range(1, 256):
                low = v & -v
                table[v] = table[v ^ low] ^ powers[base + low.bit_length() - 1]
            tables.append(table)
        self._tables = tables

    def mul_h(self, x: int) -> int:
        """Multiply field element ``x`` by the hash subkey H."""
        xb = x.to_bytes(16, "big")
        tables = self._tables
        z = 0
        for b in range(16):
            z ^= tables[b][xb[b]]
        return z

    def __call__(self, data: bytes) -> int:
        """GHASH of ``data``, which must be a multiple of 16 bytes."""
        y = 0
        mul = self.mul_h
        for i in range(0, len(data), 16):
            y = mul(y ^ int.from_bytes(data[i:i + 16], "big"))
        return y


def _pad16(data: bytes) -> bytes:
    """Zero-pad to a multiple of the block size."""
    rem = len(data) % 16
    return data if rem == 0 else data + b"\x00" * (16 - rem)


class ReferenceAesGcm:
    """AES-GCM with a 16/24/32-byte key and 12-byte nonces.

    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self._ghash = _Ghash(self._aes.encrypt_block(b"\x00" * 16))

    def _keystream(self, nonce: bytes, n_blocks: int, start_counter: int) -> bytes:
        """CTR keystream: AES(nonce || counter) for consecutive counters."""
        enc = self._aes.encrypt_block
        parts = []
        for i in range(n_blocks):
            parts.append(enc(nonce + struct.pack(">I", start_counter + i)))
        return b"".join(parts)

    def _auth_tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        ghash_input = (
            _pad16(aad)
            + _pad16(ciphertext)
            + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        )
        s = self._ghash(ghash_input)
        ek_y0 = self._aes.encrypt_block(nonce + struct.pack(">I", 1))
        return (s ^ int.from_bytes(ek_y0, "big")).to_bytes(16, "big")

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        n_blocks = (len(plaintext) + 15) // 16
        stream = self._keystream(nonce, n_blocks, start_counter=2)
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        return ciphertext + self._auth_tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`InvalidTag` on failure."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        if len(data) < TAG_SIZE:
            raise InvalidTag("ciphertext shorter than the GCM tag")
        ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
        expected = self._auth_tag(nonce, ciphertext, aad)
        if not ct_bytes_eq(expected, tag):
            raise InvalidTag("GCM tag verification failed")
        n_blocks = (len(ciphertext) + 15) // 16
        stream = self._keystream(nonce, n_blocks, start_counter=2)
        return bytes(c ^ s for c, s in zip(ciphertext, stream))
