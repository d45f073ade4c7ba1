"""The IAS core: verdicts, revocation order, AVR integrity."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IasError, QuoteError
from repro.ias.report import AttestationVerificationReport
from repro.ias.service import QuoteStatus
from repro.pki import der
from repro.sgx.quote import Quote


def test_good_quote_gets_ok(ias, quote):
    avr = ias.verify_quote(quote.to_bytes(), nonce="n-1")
    assert avr.ok
    assert avr.quote_status == QuoteStatus.OK
    assert avr.nonce == "n-1"
    assert avr.isv_enclave_quote_body == quote.body_bytes().hex()


def test_avr_signature_verifies(ias, quote):
    avr = ias.verify_quote(quote.to_bytes())
    avr.verify(ias.report_signing_public_key)


def test_avr_tamper_detected(ias, quote, rng):
    avr = ias.verify_quote(quote.to_bytes())
    import dataclasses

    forged = dataclasses.replace(avr, quote_status="OK",
                                 nonce="injected")
    from repro.errors import InvalidSignature

    with pytest.raises(InvalidSignature):
        forged.verify(ias.report_signing_public_key)


def test_avr_json_roundtrip(ias, quote):
    avr = ias.verify_quote(quote.to_bytes(), nonce="x")
    restored = AttestationVerificationReport.from_json(avr.to_json())
    assert restored == avr
    restored.verify(ias.report_signing_public_key)


def test_malformed_avr_json_rejected():
    with pytest.raises(IasError):
        AttestationVerificationReport.from_json(b"{not json")
    with pytest.raises(IasError):
        AttestationVerificationReport.from_json(b"{}")


def test_forged_quote_signature_invalid(ias, quote):
    raw = bytearray(quote.to_bytes())
    raw[-1] ^= 1
    avr = ias.verify_quote(bytes(raw))
    assert avr.quote_status == QuoteStatus.SIGNATURE_INVALID


def test_tampered_quote_body_signature_invalid(ias, quote):
    import dataclasses

    forged = dataclasses.replace(quote, mrenclave=b"\x99" * 32)
    avr = ias.verify_quote(forged.to_bytes())
    assert avr.quote_status == QuoteStatus.SIGNATURE_INVALID


def test_key_revocation(ias, quote, platform):
    ias.revoke_platform(platform.name)
    avr = ias.verify_quote(quote.to_bytes())
    assert avr.quote_status == QuoteStatus.KEY_REVOKED


def test_revoke_unknown_platform_raises(ias):
    with pytest.raises(IasError):
        ias.revoke_platform("ghost-host")
    with pytest.raises(IasError):
        ias.revoke_member(b"unknown-member")


def test_signature_revocation_same_basename(ias, quote, platform, enclave):
    ias.revoke_quote_signature(quote)
    # A *fresh* quote from the same platform under the same basename links
    # to the revoked signature.
    from repro.sgx.report import Report

    qe = platform.quoting_enclave
    report = Report.from_bytes(
        enclave.ecall("get_report", qe.target_info(), b"\x0b" * 64)
    )
    fresh = qe.generate(report, b"test-deployment")
    avr = ias.verify_quote(fresh.to_bytes())
    assert avr.quote_status == QuoteStatus.SIGNATURE_REVOKED


def test_signature_revocation_other_basename_unlinkable(ias, quote, platform,
                                                        enclave):
    ias.revoke_quote_signature(quote)
    from repro.sgx.report import Report

    qe = platform.quoting_enclave
    report = Report.from_bytes(
        enclave.ecall("get_report", qe.target_info(), b"\x0c" * 64)
    )
    other = qe.generate(report, b"another-deployment")
    avr = ias.verify_quote(other.to_bytes())
    assert avr.quote_status == QuoteStatus.OK  # EPID unlinkability


def test_group_revocation_dominates(ias, quote):
    ias.revoke_group()
    avr = ias.verify_quote(quote.to_bytes())
    assert avr.quote_status == QuoteStatus.GROUP_REVOKED


def test_platform_name_lookup(ias, platform, quote):
    member_id = ias.group.verify(quote.signature(), quote.body_bytes())
    assert ias.platform_name(member_id) == platform.name


def test_quotes_verified_counter(ias, quote):
    before = ias.quotes_verified
    ias.verify_quote(quote.to_bytes())
    assert ias.quotes_verified == before + 1


def test_tcb_floor_raises_group_out_of_date(ias, quote):
    from repro.sgx.quote import QE_SVN

    ias.raise_tcb_floor(QE_SVN + 1)
    avr = ias.verify_quote(quote.to_bytes())
    assert avr.quote_status == QuoteStatus.GROUP_OUT_OF_DATE
    # Lowering the floor restores service.
    ias.raise_tcb_floor(QE_SVN)
    assert ias.verify_quote(quote.to_bytes()).quote_status == QuoteStatus.OK


def test_tcb_floor_blocks_enrollment_end_to_end():
    from repro.core import Deployment
    from repro.errors import AttestationFailed
    from repro.sgx.quote import QE_SVN

    import pytest as _pytest

    deployment = Deployment(seed=b"tcb-floor", vnf_count=1)
    deployment.ias.raise_tcb_floor(QE_SVN + 1)
    with _pytest.raises(AttestationFailed) as excinfo:
        deployment.vm.attest_host(deployment.agent_client,
                                  deployment.host.name)
    assert "GROUP_OUT_OF_DATE" in str(excinfo.value)


# --------------------------------------------------------------------------
# One verdict, two revocation indexes: batched == sequential
# --------------------------------------------------------------------------


def _ias_world(seed):
    """A fresh IAS with one registered platform and one quote from it."""
    from repro.crypto.keys import generate_keypair
    from repro.crypto.rng import HmacDrbg
    from repro.ias.service import IasService
    from repro.net.clock import VirtualClock
    from repro.sgx.enclave import EnclaveImage
    from repro.sgx.platform import SgxPlatform
    from repro.sgx.report import Report
    from repro.sgx.sigstruct import sign_image

    from tests.ias.conftest import EchoBehavior

    rng = HmacDrbg(seed)
    clock = VirtualClock()
    ias = IasService(rng=rng, now=clock.now_seconds)
    platform = SgxPlatform("host", clock=clock, rng=rng)
    ias.register_platform(platform)
    image = EnclaveImage.from_behavior_class(EchoBehavior, "echo")
    enclave = platform.create_enclave(
        image, sign_image(generate_keypair(rng), image.code, "v"))
    qe = platform.quoting_enclave
    report = Report.from_bytes(
        enclave.ecall("get_report", qe.target_info(), b"\x01" * 64))
    return rng, ias, qe.generate(report, b"deployment")


def _fill_sigrl(ias, rng, count):
    ias.sig_rl.entries = [
        (b"deployment", rng.random_bytes(32)) for _ in range(count)
    ]
    ias.sig_rl.version = count


BATCH = 4


@settings(max_examples=12, deadline=None)
@given(
    nonce=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                  max_size=16),
    sigrl_size=st.integers(min_value=0, max_value=32),
    revoke_signature=st.booleans(),
    revoke_key=st.booleans(),
    tcb_floor=st.integers(min_value=0, max_value=3),
)
def test_verify_quotes_equals_sequential_verify_quote(
        nonce, sigrl_size, revoke_signature, revoke_key, tcb_floor):
    twins = []
    for _ in range(2):  # same seed: same group, keys, quote and SigRL
        rng, ias, quote = _ias_world(b"verdict-prop")
        _fill_sigrl(ias, rng, sigrl_size)
        if revoke_signature:
            ias.revoke_quote_signature(quote)
        if revoke_key:
            ias.revoke_platform("host")
        ias.raise_tcb_floor(tcb_floor)
        twins.append((ias, quote))
    batch = [(twins[0][1].to_bytes(), f"{nonce}-{i}") for i in range(BATCH)]

    sequential, batched = twins[0][0], twins[1][0]
    expected = [sequential.verify_quote(q, nonce=n) for q, n in batch]
    reports = batched.verify_quotes(batch)

    assert [r.to_json() for r in reports] == [r.to_json() for r in expected]
    assert batched.quotes_verified == sequential.quotes_verified == BATCH
    # Amortized cost: each list is scanned once for the whole batch, then
    # every check is one probe.
    rl_size = len(batched.priv_rl) + len(batched.sig_rl)
    assert batched.rl_entries_scanned <= rl_size + 2 * BATCH
    if not revoke_key and rl_size >= 3:
        # Sequential verifies pay the full lists per quote.
        assert batched.rl_entries_scanned < sequential.rl_entries_scanned


def test_verify_quotes_empty_batch(ias):
    assert ias.verify_quotes([]) == []
    assert ias.rl_entries_scanned == 0


# --------------------------------------------------------------------------
# Hostile quote bytes fail with a typed error
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _real_quote_bytes():
    _, ias, quote = _ias_world(b"hostile-quote")
    return ias, quote.to_bytes()


@st.composite
def _mutated_quote(draw):
    _, data = _real_quote_bytes()
    data = bytearray(data)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(data)))
        action = draw(st.sampled_from(("truncate", "flip", "insert")))
        if action == "truncate":
            del data[position:]
        elif action == "flip" and position < len(data):
            data[position] ^= draw(st.integers(min_value=1, max_value=255))
        else:
            data[position:position] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=_mutated_quote())
def test_mutated_quote_bytes_raise_only_quote_error(data):
    ias, _ = _real_quote_bytes()
    try:
        Quote.from_bytes(data)
    except QuoteError:
        with pytest.raises(QuoteError):
            ias.verify_quote(data)
        return
    # Decodable: IAS answers with a verdict, never an untyped error.
    avr = ias.verify_quote(data)
    assert avr.quote_status in vars(QuoteStatus).values()


@pytest.mark.parametrize("data", [
    b"",
    b"\x00" * 8,                              # unknown tag
    der.encode(5),                            # not a sequence
    der.encode([b"a", b"b"]),                 # too few fields
    der.encode([b"x"] * 10),                  # too many fields
    der.encode([b"m", b"s", "1", 0, b"r", 2, b"b", 0, b""]),  # wrong type
])
def test_malformed_quote_raises_quote_error(data):
    with pytest.raises(QuoteError):
        Quote.from_bytes(data)


@pytest.mark.parametrize("signature", [
    b"\x00" * 5,                              # unknown tag
    der.encode([b"g", b"b"]),                 # too few fields
    der.encode([b"g", b"b", b"p", b"s", b"n", 7]),  # wrong type
])
def test_malformed_epid_signature_is_signature_invalid(ias, signature):
    quote = Quote(b"m", b"s", 1, 0, b"r", 2, b"b", 0, signature)
    with pytest.raises(QuoteError):
        quote.signature()
    avr = ias.verify_quote(quote.to_bytes())
    assert avr.quote_status == QuoteStatus.SIGNATURE_INVALID
