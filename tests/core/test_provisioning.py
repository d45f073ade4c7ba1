"""The encrypted credential-delivery protocol."""

import pytest

from repro.core.provisioning import (
    CredentialBundle,
    ProvisioningMessage,
    binding_hash,
    decrypt_bundle,
    encrypt_bundle,
)
from repro.crypto.keys import generate_keypair
from repro.errors import ProvisioningError
from repro.pki import der


@pytest.fixture
def bundle(pki):
    return CredentialBundle(
        private_key_bytes=pki.client_key.to_bytes(),
        certificate_chain=(pki.client_cert.to_bytes(),),
        controller_anchors=(pki.ca.certificate.to_bytes(),),
        controller_address="controller:9443",
    )


def test_bundle_roundtrip(bundle):
    restored = CredentialBundle.from_bytes(bundle.to_bytes())
    assert restored == bundle
    assert restored.leaf_certificate().subject.common_name == "client"


def test_empty_bundle_has_no_leaf():
    empty = CredentialBundle(b"", (), (), "x:1")
    with pytest.raises(ProvisioningError):
        empty.leaf_certificate()


def test_encrypt_decrypt(bundle, rng):
    enclave_key = generate_keypair(rng)
    message = encrypt_bundle(enclave_key.public.to_bytes(), bundle, rng)
    recovered = decrypt_bundle(enclave_key.scalar,
                               enclave_key.public.to_bytes(), message)
    assert recovered == bundle


def test_message_serialization(bundle, rng):
    enclave_key = generate_keypair(rng)
    message = encrypt_bundle(enclave_key.public.to_bytes(), bundle, rng)
    restored = ProvisioningMessage.from_bytes(message.to_bytes())
    assert decrypt_bundle(enclave_key.scalar,
                          enclave_key.public.to_bytes(), restored) == bundle


def test_wrong_enclave_key_cannot_decrypt(bundle, rng):
    right = generate_keypair(rng)
    wrong = generate_keypair(rng)
    message = encrypt_bundle(right.public.to_bytes(), bundle, rng)
    with pytest.raises(ProvisioningError):
        decrypt_bundle(wrong.scalar, wrong.public.to_bytes(), message)


def test_tampered_message_rejected(bundle, rng):
    key = generate_keypair(rng)
    message = encrypt_bundle(key.public.to_bytes(), bundle, rng)
    import dataclasses

    tampered = dataclasses.replace(
        message, ciphertext=message.ciphertext[:-1] + b"\x00"
    )
    with pytest.raises(ProvisioningError):
        decrypt_bundle(key.scalar, key.public.to_bytes(), tampered)


def test_bundle_confidential_on_the_wire(bundle, rng):
    key = generate_keypair(rng)
    message = encrypt_bundle(key.public.to_bytes(), bundle, rng)
    assert bundle.private_key_bytes not in message.to_bytes()


def test_binding_hash_properties(rng):
    key = generate_keypair(rng)
    pub = key.public.to_bytes()
    assert len(binding_hash(pub, b"nonce")) == 64
    assert binding_hash(pub, b"nonce") == binding_hash(pub, b"nonce")
    assert binding_hash(pub, b"nonce") != binding_hash(pub, b"other")
    other = generate_keypair(rng).public.to_bytes()
    assert binding_hash(pub, b"nonce") != binding_hash(other, b"nonce")


def _valid_wire(bundle):
    message = ProvisioningMessage(b"\x04" + b"p" * 64, b"n" * 12, b"c" * 48)
    return {ProvisioningMessage: message.to_bytes(),
            CredentialBundle: bundle.to_bytes()}


MALFORMED = {
    "empty": lambda wire: b"",
    "truncated-header": lambda wire: wire[:3],
    "truncated-body": lambda wire: wire[:-1],
    "trailing-bytes": lambda wire: wire + b"\x00",
    "not-a-sequence": lambda wire: der.encode(b"bytes"),
    "one-field-short": lambda wire: der.encode(der.decode(wire)[:-1]),
    "one-field-long": lambda wire: der.encode(der.decode(wire) + [b"x"]),
    "int-field": lambda wire: der.encode([7] + der.decode(wire)[1:]),
    "int-last-field": lambda wire: der.encode(der.decode(wire)[:-1] + [7]),
    "bool-field": lambda wire: der.encode([True] + der.decode(wire)[1:]),
    "not-bytes": lambda wire: 7,
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("cls", [ProvisioningMessage, CredentialBundle],
                         ids=lambda cls: cls.__name__)
def test_malformed_wire_raises_provisioning_error(cls, kind, bundle):
    """Both provisioning wire types reject bad bytes with the typed
    ProvisioningError, never a bare ValueError or TypeError."""
    data = MALFORMED[kind](_valid_wire(bundle)[cls])
    with pytest.raises(ProvisioningError, match="malformed"):
        cls.from_bytes(data)


@pytest.mark.parametrize("chain", [[7], [b"leaf", 7]])
def test_bundle_rejects_non_bytes_chain_entries(bundle, chain):
    fields = der.decode(bundle.to_bytes())
    for index in (1, 2):   # certificate chain, controller anchors
        bad = list(fields)
        bad[index] = chain
        with pytest.raises(ProvisioningError, match="wrong field layout"):
            CredentialBundle.from_bytes(der.encode(bad))


def test_deeply_nested_sequence_is_typed():
    data = b""
    for _ in range(5000):
        data = bytes([der.TAG_SEQ]) + len(data).to_bytes(4, "big") + data
    with pytest.raises(ProvisioningError, match="nested too deeply"):
        ProvisioningMessage.from_bytes(data)


def test_host_agent_answers_malformed_message_with_typed_error():
    """The network edge: a malformed provisioning message sent to the
    host agent comes back as a ProvisioningError verdict."""
    from repro.core import Deployment
    from repro.errors import VnfSgxError

    deployment = Deployment(seed=b"malformed-provisioning", vnf_count=1)
    with pytest.raises(VnfSgxError, match="ProvisioningError: malformed"):
        deployment.agent_client.complete_provisioning("vnf-1", b"\x30\x00")
