"""AES-GCM authenticated encryption (NIST SP 800-38D).

Every TLS record, sealed blob and provisioning message passes through
here.  Two choices keep that cheap in pure Python:

* **Batched CTR.**  All counter blocks of a message, starting at counter 1
  so that ``E(K, Y0)`` for the tag comes out of the same pass, are packed
  into one big integer and encrypted by a single byte-sliced AES pass (the
  batching idea of Käsper and Schwabe, CHES 2009).  SubBytes and
  MixColumns are three 256-byte ``bytes.translate`` tables (S, 2·S, 3·S);
  ShiftRows and the in-column rotations are masked shifts of the integer;
  AddRoundKey XORs a round key repeated once per block.  The keystream is
  then XORed into the message as one integer, so CTR costs a fixed number
  of Python-level operations whatever the length.
* **Cheap GHASH setup.**  A key starts with one 256-entry table of byte
  multiples of H and a module-level table that reduces a multiply by
  x^8 (Shoup's 8-bit method): one table to build instead of 16.  Once a key has
  hashed more than :data:`GHASH_UPGRADE_BLOCKS` blocks it builds the
  16 x 256 per-byte-position tables, which turn each block multiply into
  16 lookups; long-lived TLS connections amortise that build.

The upgrade threshold is measured, not tuned per workload; see "Symmetric
crypto" in ``docs/PERFORMANCE.md``.  The original per-block implementation
is kept byte-frozen as the test oracle ``tests/crypto/gcm_reference.py``.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES, SBOX, _gf_mul
from repro.crypto.constant_time import ct_bytes_eq
from repro.errors import CryptoError, InvalidTag

TAG_SIZE = 16
NONCE_SIZE = 12

#: Blocks a key hashes with the one-table multiply before it builds the
#: 16 x 256 per-position tables.
GHASH_UPGRADE_BLOCKS = 256

_R = 0xE1 << 120  # the GCM reduction polynomial in the reflected convention


def _double(x: int) -> int:
    """Multiply a field element by x in GCM's reflected representation."""
    if x & 1:
        return (x >> 1) ^ _R
    return x >> 1


def _times_x8(x: int) -> int:
    for _ in range(8):
        x = _double(x)
    return x


#: ``_REDUCE[v]`` is v·x^8 for a field element whose only set bits are the
#: low byte v (x^120..x^127): what falls off the end of ``z >> 8``.
_REDUCE = tuple(_times_x8(v) for v in range(256))


class _Ghash:
    """GHASH over GF(2^128), keyed by the hash subkey H.

    In the big-endian integer view of a block, the most significant byte
    holds the coefficients of x^0..x^7 and each later byte is x^8 further
    along.  ``_byte_table[v]`` is H times byte value ``v`` in the first
    position; a block multiply is a Horner pass over its 16 bytes from the
    last, multiplying by x^8 with ``_REDUCE`` between steps.  The upgraded
    tables fold those x^8 steps in: ``tables[b][v]`` is H times ``v`` at
    byte position ``b``.
    """

    def __init__(self, h: bytes) -> None:
        table = [0] * 256
        table[0x80] = int.from_bytes(h, "big")  # bit 7 of byte 0 is x^0
        bit = 0x40
        while bit:
            table[bit] = _double(table[bit << 1])
            bit >>= 1
        size = 2
        while size < 256:
            table[size + 1:2 * size] = [table[size] ^ t
                                        for t in table[1:size]]
            size <<= 1
        self._byte_table = table
        self._position_tables = None
        self._blocks_hashed = 0

    def _build_position_tables(self) -> list:
        tables = [self._byte_table]
        for _ in range(15):
            tables.append([(z >> 8) ^ _REDUCE[z & 0xFF] for z in tables[-1]])
        return tables

    def __call__(self, data: bytes) -> int:
        """GHASH of ``data``, which must be a multiple of 16 bytes."""
        tables = self._position_tables
        if tables is None:
            # Unlocked on purpose: a lost count only delays the upgrade, and
            # the finished tables are published by one attribute store, so
            # threads sharing a key never see a partial build.
            self._blocks_hashed += len(data) // 16
            if self._blocks_hashed > GHASH_UPGRADE_BLOCKS:
                self._position_tables = tables = self._build_position_tables()
        y = 0
        from_bytes = int.from_bytes
        if tables is None:
            table, reduce = self._byte_table, _REDUCE
            for i in range(0, len(data), 16):
                b = (y ^ from_bytes(data[i:i + 16], "big")).to_bytes(16, "big")
                y = table[b[15]]
                for v in b[14::-1]:
                    y = (y >> 8) ^ reduce[y & 0xFF] ^ table[v]
            return y
        (t0, t1, t2, t3, t4, t5, t6, t7,
         t8, t9, t10, t11, t12, t13, t14, t15) = tables
        for i in range(0, len(data), 16):
            b = (y ^ from_bytes(data[i:i + 16], "big")).to_bytes(16, "big")
            y = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
                 ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]]
                 ^ t8[b[8]] ^ t9[b[9]] ^ t10[b[10]] ^ t11[b[11]]
                 ^ t12[b[12]] ^ t13[b[13]] ^ t14[b[14]] ^ t15[b[15]])
        return y


# ---------------------------------------------------------------- batched CTR
#
# A batch of n blocks is one integer of 128·n bits, the first block in the
# most significant bits.  Byte p of a block (p = row + 4·column, FIPS 197
# order) sits at the same place in every block, so a byte permutation
# inside blocks is a handful of shifts, each masked to the byte positions
# it fills.  The masks repeat per block from the least significant end and
# are built once for the longest batch.  An AND with a shorter integer costs
# only the shorter length, and the bytes a left shift pushes above the first
# block land on positions that shift's mask leaves out, so no mask is
# truncated per message.

#: Longest batch: one full TLS record (16 KiB, 1024 blocks) plus E(K, Y0).
_MAX_BATCH_BLOCKS = 1025


def _block_mask(positions) -> int:
    block = bytearray(16)
    for p in positions:
        block[p] = 0xFF
    return int.from_bytes(bytes(block) * _MAX_BATCH_BLOCKS, "big")


def _shift_masks(source_of) -> dict:
    """Group destination bytes by the byte distance to their source."""
    groups: dict = {}
    for p in range(16):
        groups.setdefault(source_of(p) - p, []).append(p)
    return {d: _block_mask(ps) for d, ps in groups.items()}


# ShiftRows: row r of column c takes the byte of row r, column c + r.
_SR = _shift_masks(lambda p: p % 4 + 4 * ((p // 4 + p % 4) % 4))
_SR_0, _SR_L4, _SR_L8, _SR_L12, _SR_R4, _SR_R8, _SR_R12 = (
    _SR[0], _SR[4], _SR[8], _SR[12], _SR[-4], _SR[-8], _SR[-12])
# Column rotation: row r takes the byte of row r + 1 in its column.
_ROT = _shift_masks(lambda p: p - p % 4 + (p + 1) % 4)
_ROT_L1, _ROT_R3 = _ROT[1], _ROT[-3]
del _SR, _ROT


_SUB1 = bytes(SBOX)
_SUB2 = bytes(_gf_mul(s, 2) for s in SBOX)
_SUB3 = bytes(_gf_mul(s, 3) for s in SBOX)

#: One in the low byte of every block; and each block's distance from the
#: last block (0 in the last, 1 in the one before, ...).
_ONES = int.from_bytes((b"\x00" * 15 + b"\x01") * _MAX_BATCH_BLOCKS, "big")
_RAMP = int.from_bytes(b"".join(
    (_MAX_BATCH_BLOCKS - 1 - i).to_bytes(16, "big")
    for i in range(_MAX_BATCH_BLOCKS)), "big")


def _shift_rows(x: int) -> int:
    return ((x & _SR_0)
            | ((x << 32) & _SR_L4) | ((x << 64) & _SR_L8)
            | ((x << 96) & _SR_L12) | ((x >> 32) & _SR_R4)
            | ((x >> 64) & _SR_R8) | ((x >> 96) & _SR_R12))


def _rotate_columns(x: int) -> int:
    return ((x << 8) & _ROT_L1) | ((x >> 24) & _ROT_R3)


def _encrypt_counters(round_keys: list, nonce: bytes, first: int,
                      count: int) -> int:
    """AES of the blocks ``nonce || first`` .. ``nonce || first+count-1``.

    ``count`` is at most ``_MAX_BATCH_BLOCKS``; the result is the
    ``count`` ciphertext blocks as one integer, first block most
    significant.
    """
    from_bytes = int.from_bytes
    size = 16 * count
    low = (1 << (8 * size)) - 1
    x = (from_bytes((nonce + b"\x00" * 4) * count, "big")
         | ((first + count - 1) * (_ONES & low) - (_RAMP & low)))
    x ^= from_bytes(round_keys[0] * count, "big")
    for round_key in round_keys[1:-1]:
        b = _shift_rows(x).to_bytes(size, "big")
        s1 = from_bytes(b.translate(_SUB1), "big")
        s2 = from_bytes(b.translate(_SUB2), "big")
        s3 = from_bytes(b.translate(_SUB3), "big")
        # MixColumns: row r = 2·s[r] ^ 3·s[r+1] ^ s[r+2] ^ s[r+3].
        t = s3 ^ _rotate_columns(s1 ^ _rotate_columns(s1))
        x = s2 ^ _rotate_columns(t) ^ from_bytes(round_key * count, "big")
    b = _shift_rows(x).to_bytes(size, "big")
    return (from_bytes(b.translate(_SUB1), "big")
            ^ from_bytes(round_keys[-1] * count, "big"))


def _pad16(data: bytes) -> bytes:
    """Zero-pad to a multiple of the block size."""
    rem = len(data) % 16
    return data if rem == 0 else data + b"\x00" * (16 - rem)


class AesGcm:
    """AES-GCM with a 16/24/32-byte key and 12-byte nonces.

    Example:
        >>> aead = AesGcm(bytes(16))
        >>> ct = aead.encrypt(bytes(12), b"hello", b"aad")
        >>> aead.decrypt(bytes(12), ct, b"aad")
        b'hello'
    """

    def __init__(self, key: bytes) -> None:
        aes = AES(key)
        self._round_keys = aes.round_key_blocks()
        self._ghash = _Ghash(aes.encrypt_block(b"\x00" * 16))

    def _counter_mode(self, nonce: bytes, length: int) -> tuple:
        """``(E(K, Y0), keystream)`` for a ``length``-byte message.

        Both are integers: the keystream covers counters 2.. and is cut to
        exactly ``length`` bytes, ready to XOR into the message.
        """
        n_blocks = (length + 15) // 16 + 1
        blocks = 0
        for first in range(1, n_blocks + 1, _MAX_BATCH_BLOCKS):
            count = min(_MAX_BATCH_BLOCKS, n_blocks + 1 - first)
            blocks = (blocks << (128 * count)) | _encrypt_counters(
                self._round_keys, nonce, first, count)
        payload_bits = 128 * (n_blocks - 1)
        stream = (blocks & ((1 << payload_bits) - 1)) >> (payload_bits
                                                          - 8 * length)
        return blocks >> payload_bits, stream

    def _auth_tag(self, ek_y0: int, ciphertext: bytes, aad: bytes) -> bytes:
        ghash_input = (
            _pad16(aad)
            + _pad16(ciphertext)
            + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        )
        return (self._ghash(ghash_input) ^ ek_y0).to_bytes(16, "big")

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        ek_y0, stream = self._counter_mode(nonce, len(plaintext))
        ciphertext = (int.from_bytes(plaintext, "big") ^ stream).to_bytes(
            len(plaintext), "big")
        return ciphertext + self._auth_tag(ek_y0, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`InvalidTag` on failure."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        if len(data) < TAG_SIZE:
            raise InvalidTag("ciphertext shorter than the GCM tag")
        ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
        ek_y0, stream = self._counter_mode(nonce, len(ciphertext))
        expected = self._auth_tag(ek_y0, ciphertext, aad)
        if not ct_bytes_eq(expected, tag):
            raise InvalidTag("GCM tag verification failed")
        return (int.from_bytes(ciphertext, "big") ^ stream).to_bytes(
            len(ciphertext), "big")
