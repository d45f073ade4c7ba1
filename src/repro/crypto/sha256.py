"""SHA-256 (FIPS 180-4), computed by the interpreter's :mod:`hashlib`.

The pure-Python compression function that used to sit beside it as a
second backend had no caller in the library; it is kept byte-frozen as
the test oracle ``tests/crypto/sha256_reference.py``, which the
known-answer tests check this module against.
"""

from __future__ import annotations

import hashlib

DIGEST_SIZE = 32
BLOCK_SIZE = 64


class SHA256:
    """Incremental SHA-256 with a hashlib-compatible interface.

    Args:
        data: optional initial bytes to absorb.
    """

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE

    def __init__(self, data: bytes = b"") -> None:
        self._h = hashlib.sha256()
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        self._h.update(data)

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything absorbed so far."""
        return self._h.digest()

    def hexdigest(self) -> str:
        """Digest as lowercase hex."""
        return self.digest().hex()

    def copy(self) -> "SHA256":
        """Independent copy of the running hash state."""
        clone = SHA256()
        clone._h = self._h.copy()
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()
