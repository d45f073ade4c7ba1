"""ECDSA over P-256 with RFC 6979 deterministic nonces.

Deterministic nonces remove the catastrophic nonce-reuse failure mode and —
just as importantly for this library — make signatures reproducible across
simulation runs with the same keys and messages.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.ec import P256, Point, _Curve
from repro.crypto.hmac import hmac_sha256
from repro.crypto.sha256 import sha256
from repro.errors import InvalidKey, InvalidSignature


def _bits2int(data: bytes, order: int) -> int:
    """Leftmost-bits conversion from RFC 6979 section 2.3.2."""
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - order.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(private_key: int, digest: bytes, order: int) -> int:
    """Derive the per-signature nonce k deterministically (RFC 6979)."""
    qlen_bytes = (order.bit_length() + 7) // 8
    x = private_key.to_bytes(qlen_bytes, "big")
    h1 = _bits2int(digest, order) % order
    h1_bytes = h1.to_bytes(qlen_bytes, "big")

    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac_sha256(k, v + b"\x00" + x + h1_bytes)
    v = hmac_sha256(k, v)
    k = hmac_sha256(k, v + b"\x01" + x + h1_bytes)
    v = hmac_sha256(k, v)

    while True:
        t = b""
        while len(t) < qlen_bytes:
            v = hmac_sha256(k, v)
            t += v
        candidate = _bits2int(t[:qlen_bytes], order)
        if 1 <= candidate < order:
            return candidate
        k = hmac_sha256(k, v + b"\x00")
        v = hmac_sha256(k, v)


def ecdsa_sign(private_key: int, message: bytes,
               curve: _Curve = P256) -> Tuple[int, int]:
    """Sign ``message`` (hashed with SHA-256 internally); returns ``(r, s)``."""
    n = curve.n
    if not 1 <= private_key < n:
        raise InvalidKey("private scalar out of range")
    digest = sha256(message)
    z = _bits2int(digest, n) % n
    while True:
        k = _rfc6979_nonce(private_key, digest, n)
        point = curve.multiply_generator(k)
        assert point is not None  # k in [1, n) never yields infinity
        r = point.x % n
        if r == 0:
            digest = sha256(digest)  # degenerate case: re-derive (never hit)
            continue
        k_inv = pow(k, -1, n)  # extended-gcd inverse: ~7x cheaper than k**(n-2)
        s = k_inv * (z + r * private_key) % n
        if s == 0:
            digest = sha256(digest)
            continue
        return (r, s)


def ecdsa_verify(public_key: Point, message: bytes, signature: Tuple[int, int],
                 curve: _Curve = P256) -> None:
    """Verify ``signature`` over ``message``.

    Signature memo: a signature that verified once is remembered on the
    curve under ``(Q, SHA-256(message), r, s)``, and a repeat
    returns after one dict lookup.  The digest is all ECDSA ever sees of
    the message, so the memo accepts exactly what the full check would.
    A miss runs every check below and inserts the key only after the
    ladder accepted; rejections are never remembered, and
    :meth:`~repro.crypto.ec._Curve.reset_validation_cache` empties the
    memo.  Validity periods, CRL status, key usage and revocation are the
    callers' checks and are never memoised.

    Hot path: key validation hits the curve's validated-point LRU for
    repeat verifies against the same key, ``s`` is inverted with the
    extended-gcd ``pow(s, -1, n)`` (~7x cheaper than the Fermat power for
    256-bit moduli, identical result), and ``u1*G + u2*Q`` is computed in
    a single Shamir/Strauss wNAF ladder
    (:meth:`~repro.crypto.ec._Curve.multiply_dual`) instead of two full
    scalar multiplications plus an addition.  The accept/reject verdict is
    bit-identical to :func:`ecdsa_verify_reference`.

    Raises:
        InvalidSignature: if the signature does not verify.
    """
    r, s = signature
    digest = sha256(message)
    memo_key = (public_key, digest, r, s)
    if curve.signature_memo_hit(memo_key):
        return
    curve.validate_public(public_key)
    n = curve.n
    if not (1 <= r < n and 1 <= s < n):
        raise InvalidSignature("signature component out of range")
    z = _bits2int(digest, n) % n
    s_inv = pow(s, -1, n)
    u1 = z * s_inv % n
    u2 = r * s_inv % n
    point: Optional[Point] = curve.multiply_dual(u1, u2, public_key)
    if point is None or point.x % n != r:
        raise InvalidSignature("ECDSA verification failed")
    curve.remember_signature(memo_key)


def ecdsa_verify_reference(public_key: Point, message: bytes,
                           signature: Tuple[int, int],
                           curve: _Curve = P256) -> None:
    """The seed verification path, kept as the cross-check oracle.

    Uncached full-order key validation plus two reference double-and-add
    ladders and a final addition — exactly what :func:`ecdsa_verify` did
    before the fast engine.  The E11 benchmark and the property suite pin
    :func:`ecdsa_verify` against this implementation.

    Raises:
        InvalidSignature: if the signature does not verify.
    """
    curve.validate_public_uncached(public_key)
    r, s = signature
    n = curve.n
    if not (1 <= r < n and 1 <= s < n):
        raise InvalidSignature("signature component out of range")
    z = _bits2int(sha256(message), n) % n
    s_inv = pow(s, n - 2, n)
    u1 = z * s_inv % n
    u2 = r * s_inv % n
    point: Optional[Point] = curve.add(
        curve.multiply(u1, curve.generator), curve.multiply(u2, public_key)
    )
    if point is None or point.x % n != r:
        raise InvalidSignature("ECDSA verification failed")


def signature_to_bytes(signature: Tuple[int, int], curve: _Curve = P256) -> bytes:
    """Fixed-width ``r || s`` encoding (64 bytes for P-256)."""
    size = curve.coordinate_size
    r, s = signature
    return r.to_bytes(size, "big") + s.to_bytes(size, "big")


def signature_from_bytes(data: bytes, curve: _Curve = P256) -> Tuple[int, int]:
    """Parse a fixed-width ``r || s`` signature."""
    size = curve.coordinate_size
    if len(data) != 2 * size:
        raise InvalidSignature(f"signature must be {2 * size} bytes")
    return (
        int.from_bytes(data[:size], "big"),
        int.from_bytes(data[size:], "big"),
    )
