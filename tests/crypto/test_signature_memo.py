"""The signature memo behind ``ecdsa_verify``.

A signature that verified once is remembered on the curve, keyed by
``(Q, SHA-256(message), r, s)``; a repeat verify is one dict hit and runs
no ladder.  These tests pin the three rules that keep the memo exactly as
strong as the full check:

- only accepted signatures are remembered, so a rejection is re-checked
  (and re-rejected) every time;
- any change to the key, message, ``r`` or ``s`` misses the memo and is
  judged by the full check;
- the callers' own checks (validity windows, CRL membership, key usage,
  truststore membership, RA-TLS revocation) run on every call, memo hit
  or not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ec import P256, SIGNATURE_MEMO_CAPACITY, Point
from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify, ecdsa_verify_reference
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import (
    CertificateError,
    CertificateExpired,
    CertificateRevoked,
    InvalidPoint,
    InvalidSignature,
    RatlsError,
    UntrustedCertificate,
)
from repro.pki.certificate import KEY_USAGE_CLIENT_AUTH
from repro.pki.chain import validate_chain
from repro.pki.truststore import Truststore
from tests.tls.test_ratls import make_cert, make_verifier

_rng = HmacDrbg(b"signature-memo")
KEYS = [generate_keypair(_rng) for _ in range(3)]
MESSAGES = [b"ca certificate", b"crl", b"sigstruct", b"avr", b"quote"]
# (key index, message, signature): a small pool so random draws repeat.
TRIPLES = [
    (i % len(KEYS), message, ecdsa_sign(KEYS[i % len(KEYS)].scalar, message))
    for i, message in enumerate(MESSAGES)
]


@pytest.fixture(autouse=True)
def _cold_memo():
    """P256 is a module singleton: start and end every test cold."""
    P256.reset_validation_cache()
    P256.stats.reset()
    yield
    P256.reset_validation_cache()


def _triple(index=0):
    key_index, message, signature = TRIPLES[index]
    return KEYS[key_index].public.point, message, signature


def _stat(name):
    return P256.stats.snapshot()[name]


def test_repeat_verify_is_a_hit_and_runs_no_ladder():
    point, message, signature = _triple()
    ecdsa_verify(point, message, signature)
    assert _stat("signature_memo_misses") == 1
    assert P256.signature_memo_size == 1
    ladders = _stat("dual_mults")
    validations = _stat("validation_cache_hits") + _stat(
        "validation_cache_misses")
    for _ in range(3):
        ecdsa_verify(point, message, signature)
    assert _stat("signature_memo_hits") == 3
    assert _stat("dual_mults") == ladders
    # A hit skips key validation too: it is a pure function of the key.
    assert _stat("validation_cache_hits") + _stat(
        "validation_cache_misses") == validations


def test_bad_signature_raises_every_time_and_is_never_remembered():
    point, message, (r, s) = _triple()
    bad = (r, s ^ 1)
    for attempt in range(1, 4):
        with pytest.raises(InvalidSignature):
            ecdsa_verify(point, message, bad)
        assert _stat("dual_mults") == attempt
        assert _stat("signature_memo_misses") == attempt
    assert _stat("signature_memo_hits") == 0
    assert P256.signature_memo_size == 0


def test_out_of_range_and_bad_key_are_never_remembered():
    point, message, (r, s) = _triple()
    with pytest.raises(InvalidSignature):
        ecdsa_verify(point, message, (r, P256.n))
    with pytest.raises(InvalidPoint):
        ecdsa_verify(Point(point.x ^ 1, point.y), message, (r, s))
    with pytest.raises(InvalidPoint):
        ecdsa_verify(None, message, (r, s))
    assert P256.signature_memo_size == 0


def _flip(value: int, bit: int) -> int:
    return value ^ (1 << bit)


def _flip_bit(message: bytes, bit: int) -> bytes:
    tampered = bytearray(message)
    tampered[(bit // 8) % len(tampered)] ^= 1 << (bit % 8)
    return bytes(tampered)


@pytest.mark.parametrize("bit", [0, 7, 128, 255])
def test_one_bit_change_after_a_good_verify_still_raises(bit):
    point, message, (r, s) = _triple()
    ecdsa_verify(point, message, (r, s))
    assert P256.signature_memo_size == 1

    with pytest.raises(InvalidSignature):
        ecdsa_verify(point, _flip_bit(message, bit), (r, s))
    with pytest.raises(InvalidSignature):
        ecdsa_verify(point, message, (_flip(r, bit), s))
    with pytest.raises(InvalidSignature):
        ecdsa_verify(point, message, (r, _flip(s, bit)))
    # A flipped coordinate leaves the curve; the negated point is a valid
    # key that did not sign.
    with pytest.raises(InvalidPoint):
        ecdsa_verify(Point(_flip(point.x, bit), point.y), message, (r, s))
    with pytest.raises(InvalidSignature):
        ecdsa_verify(P256.negate(point), message, (r, s))
    assert P256.signature_memo_size == 1
    assert _stat("signature_memo_hits") == 0


def test_lru_evicts_the_oldest_entry_at_capacity(monkeypatch):
    assert P256.signature_memo_capacity == SIGNATURE_MEMO_CAPACITY
    monkeypatch.setattr(P256, "signature_memo_capacity", 3)
    triples = [_triple(i) for i in range(4)]
    for triple in triples[:3]:
        ecdsa_verify(*triple)
    ecdsa_verify(*triples[0])  # refresh: triples[1] is now the oldest
    assert _stat("signature_memo_hits") == 1
    ecdsa_verify(*triples[3])
    assert P256.signature_memo_size == 3

    ladders = _stat("dual_mults")
    for index in (0, 2, 3):
        ecdsa_verify(*triples[index])
    assert _stat("dual_mults") == ladders
    ecdsa_verify(*triples[1])  # evicted: the full check runs again
    assert _stat("dual_mults") == ladders + 1
    assert P256.signature_memo_size == 3


def test_reset_validation_cache_empties_the_memo():
    point, message, signature = _triple()
    ecdsa_verify(point, message, signature)
    assert P256.signature_memo_size == 1
    P256.reset_validation_cache()
    assert P256.signature_memo_size == 0
    ecdsa_verify(point, message, signature)
    assert _stat("signature_memo_hits") == 0
    assert _stat("signature_memo_misses") == 2


MUTATIONS = ("none", "message", "r", "s", "key")


@given(st.lists(
    st.tuples(st.integers(0, len(TRIPLES) - 1), st.sampled_from(MUTATIONS),
              st.integers(0, 255)),
    min_size=1, max_size=6,
))
@settings(max_examples=25, deadline=None)
def test_memoised_verdict_equals_the_reference(steps):
    for index, mutation, bit in steps:
        point, message, (r, s) = _triple(index)
        if mutation == "message":
            message = _flip_bit(message, bit)
        elif mutation == "r":
            r = _flip(r, bit)
        elif mutation == "s":
            s = _flip(s, bit)
        elif mutation == "key":
            point = KEYS[(TRIPLES[index][0] + 1) % len(KEYS)].public.point
        verdicts = []
        for verify in (ecdsa_verify_reference, ecdsa_verify):
            try:
                verify(point, message, (r, s))
                verdicts.append(True)
            except InvalidSignature:
                verdicts.append(False)
        assert verdicts[0] == verdicts[1], (index, mutation, bit)
        assert verdicts[0] == (mutation == "none")
    assert P256.signature_memo_size <= P256.signature_memo_capacity


# ------------------------------------------------ the callers' own checks


def test_memo_hit_never_skips_the_chain_checks(pki):
    crl = pki.ca.current_crl(now=1)
    validate_chain(pki.client_cert, pki.truststore, now=10, crl=crl,
                   required_usage=KEY_USAGE_CLIENT_AUTH)
    validate_chain(pki.client_cert, pki.truststore, now=10, crl=crl,
                   required_usage=KEY_USAGE_CLIENT_AUTH)
    assert _stat("signature_memo_hits") > 0  # every signature is now a hit

    with pytest.raises(CertificateExpired):
        validate_chain(pki.client_cert, pki.truststore,
                       now=pki.client_cert.not_after + 1, crl=crl)
    with pytest.raises(CertificateError):
        validate_chain(pki.client_cert, pki.truststore, now=10, crl=crl,
                       required_usage="server-auth")
    with pytest.raises(UntrustedCertificate):
        validate_chain(pki.client_cert, Truststore(), now=10)
    pki.ca.revoke(pki.client_cert.serial, now=5)
    with pytest.raises(CertificateRevoked):
        validate_chain(pki.client_cert, pki.truststore, now=10,
                       crl=pki.ca.current_crl(now=6))


def test_memo_hit_never_skips_ratls_revocation_or_validity(rng):
    verifier, calls = make_verifier()
    _, cert = make_cert(rng)
    verifier.validate(cert)
    verifier.validate(cert)
    assert _stat("signature_memo_hits") == 1
    verifier.revoke_subject("vnf-ratls")
    with pytest.raises(RatlsError, match="revoked"):
        verifier.validate(cert)
    assert _stat("signature_memo_hits") == 2

    late, _ = make_verifier(now=lambda: cert.not_after + 1)
    with pytest.raises(CertificateExpired):
        late.validate(cert)
    assert _stat("signature_memo_hits") == 3
    assert calls["evidence"] == ["vnf-ratls", "vnf-ratls"]
