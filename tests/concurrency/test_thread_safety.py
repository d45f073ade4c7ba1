"""Concurrency stress tests: no torn state under a worker pool.

Every shared structure the fleet scheduler leans on is hammered from
many threads and then checked against exact, deterministic invariants —
counts that must add up, serials that must be unique, caches that must
stay within capacity.  CPython's GIL hides most races most of the time,
so each test does *many* small operations per thread to maximise
interleaving, and CI runs this module repeatedly (see the ``concurrency``
job in ``.github/workflows/ci.yml``).

The lock rules these tests enforce are documented in
``docs/CONCURRENCY.md``.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

THREADS = 8
ROUNDS = 200


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on ``threads`` threads; re-raise failures."""
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()  # maximise overlap
        return worker(index)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [f for f in pool.map(run, range(threads))]


# ---------------------------------------------------------------- clock


def test_virtual_clock_concurrent_advances_add_up():
    from repro.net.clock import VirtualClock

    clock = VirtualClock()
    locals_seen = {}

    def worker(index):
        for _ in range(ROUNDS):
            clock.advance(0.001, account=f"acct-{index % 2}")
        locals_seen[index] = clock.local_seconds()

    _hammer(worker)
    total = THREADS * ROUNDS * 0.001
    assert clock.now() == pytest.approx(total)
    assert sum(clock.charges().values()) == pytest.approx(total)
    # Per-thread accounting: each worker saw exactly its own advances.
    for elapsed in locals_seen.values():
        assert elapsed == pytest.approx(ROUNDS * 0.001)


# ------------------------------------------------------------------ CA


def test_ca_concurrent_issuance_unique_serials():
    from repro.crypto.rng import HmacDrbg
    from repro.pki.ca import CertificateAuthority
    from repro.pki.name import DistinguishedName

    ca = CertificateAuthority(DistinguishedName("stress-ca", "tests"),
                              rng=HmacDrbg(b"ca-stress"))
    key_bytes = ca.certificate.public_key_bytes  # any valid point
    issued = []
    lock = threading.Lock()

    def worker(index):
        mine = []
        for i in range(25):
            cert = ca.issue(
                subject=DistinguishedName(f"leaf-{index}-{i}", "tests"),
                public_key_bytes=key_bytes, now=0,
            )
            mine.append(cert.serial)
        with lock:
            issued.extend(mine)

    _hammer(worker)
    assert len(issued) == THREADS * 25
    assert len(set(issued)) == len(issued)  # no double-issued serial
    assert ca.issued_count == len(issued) + 1  # + the root


def test_ca_reserved_serials_are_disjoint():
    from repro.crypto.rng import HmacDrbg
    from repro.pki.ca import CertificateAuthority
    from repro.pki.name import DistinguishedName

    ca = CertificateAuthority(DistinguishedName("reserve-ca", "tests"),
                              rng=HmacDrbg(b"reserve-stress"))
    results = _hammer(
        lambda index: [ca.reserve_serial() for _ in range(50)]
    )
    flat = [serial for chunk in results for serial in chunk]
    assert len(set(flat)) == len(flat)


# -------------------------------------------------------------- caches


def test_verification_cache_concurrent_accounting():
    from repro.core.verification_cache import VerificationCache

    class FakeAvr:
        pass

    cache = VerificationCache(capacity=64)
    avr = FakeAvr()

    def worker(index):
        for i in range(ROUNDS):
            quote = b"quote-%d-%d" % (index, i % 100)
            cache.lookup(quote, "nonce")
            cache.store(quote, "nonce", f"subject-{index}", avr)
            # Concurrent stores may LRU-evict the entry before the
            # readback (capacity 64 < live keyspace) — the cache promises
            # "the stored verdict or a miss", never a foreign object.
            got = cache.lookup(quote, "nonce")
            assert got is avr or got is None

    _hammer(worker)
    assert len(cache) <= 64
    assert cache.hits + cache.misses == THREADS * ROUNDS * 2
    # Predicate sweeps are exhaustive: a second sweep finds nothing.
    cache.invalidate_subject("subject-0")
    assert cache.invalidate_subject("subject-0") == 0


def test_session_cache_concurrent_store_and_sweep():
    from repro.tls.ciphersuites import SUPPORTED_SUITES
    from repro.tls.session import SessionCache, TlsSession

    cache = SessionCache(capacity=128)
    suite = next(iter(SUPPORTED_SUITES.values()))

    def worker(index):
        for i in range(ROUNDS):
            sid = b"%d:%d" % (index, i % 64)
            cache.store(TlsSession(sid, b"\x00" * 48, suite))
            cache.lookup(sid)
            if i % 16 == 0:
                cache.invalidate_where(
                    lambda s, prefix=b"%d:" % index:
                    s.session_id.startswith(prefix) and False
                )

    _hammer(worker)
    assert len(cache) <= 128


# --------------------------------------------------------------- crypto


def test_ec_validation_cache_concurrent():
    from repro.crypto.ec import P256
    from repro.crypto.keys import generate_keypair
    from repro.crypto.rng import HmacDrbg

    rng = HmacDrbg(b"ec-stress")
    points = [generate_keypair(rng).public.point for _ in range(16)]
    P256.reset_validation_cache()

    def worker(index):
        for i in range(ROUNDS):
            assert P256.validate_public(points[(index + i) % len(points)])

    _hammer(worker)
    stats = P256.stats.snapshot()
    assert (stats["validation_cache_hits"]
            + stats["validation_cache_misses"]) > 0
    assert P256.validation_cache_size <= P256.validation_cache_capacity


def test_signature_memo_concurrent_verdicts(monkeypatch):
    """Threads share good and bad signatures at a tiny switch interval:
    no good one is rejected, no bad one accepted, the memo stays bounded."""
    import sys

    from repro.crypto.ec import P256
    from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify
    from repro.crypto.keys import generate_keypair
    from repro.crypto.rng import HmacDrbg
    from repro.errors import InvalidSignature

    rng = HmacDrbg(b"memo-stress")
    keys = [generate_keypair(rng) for _ in range(2)]
    good, bad = [], []
    for i in range(6):
        key = keys[i % len(keys)]
        message = b"memo %d" % i
        r, s = ecdsa_sign(key.scalar, message)
        good.append((key.public.point, message, (r, s)))
        bad.append((key.public.point, message, (r, s ^ 1)))
    # Below the number of distinct good triples, so threads also race
    # evictions and re-inserts.
    monkeypatch.setattr(P256, "signature_memo_capacity", 4)
    P256.reset_validation_cache()

    def worker(index):
        for i in range(12):
            triple = good[(index + i) % len(good)]
            ecdsa_verify(*triple)
            with pytest.raises(InvalidSignature):
                ecdsa_verify(*bad[(index + i) % len(bad)])
            assert P256.signature_memo_size <= 4

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(worker)
    finally:
        sys.setswitchinterval(interval)
        P256.reset_validation_cache()
    stats = P256.stats.snapshot()
    assert stats["signature_memo_hits"] + stats["signature_memo_misses"] > 0


# ------------------------------------------------------------ telemetry


def test_metrics_registry_concurrent_get_or_create_and_inc():
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()

    def worker(index):
        for i in range(ROUNDS):
            # Same family + child from every thread: the get-or-create
            # race, if present, loses increments to orphaned children.
            registry.counter("stress_total", "stress",
                             labelnames=("worker",)).labels(
                worker="shared"
            ).inc()
            registry.histogram("stress_seconds", "stress",
                               labelnames=("worker",)).labels(
                worker=str(index)
            ).observe(0.001 * i)

    _hammer(worker)
    counter = registry.counter("stress_total", "stress",
                               labelnames=("worker",)).labels(
        worker="shared"
    )
    assert counter.value == THREADS * ROUNDS


def test_tracer_concurrent_span_stacks_are_thread_local():
    from repro.obs.tracing import Tracer

    tracer = Tracer(now=lambda: 0.0)

    def worker(index):
        for i in range(50):
            with tracer.span(f"outer-{index}"):
                with tracer.span(f"inner-{index}", iteration=i):
                    pass

    _hammer(worker)
    assert tracer.open_depth() == 0
    roots = tracer.roots()
    assert len(roots) == THREADS * 50
    for root in roots:
        assert len(root.children) == 1  # nesting never crossed threads


def test_audit_log_concurrent_records():
    from repro.core.events import AuditLog

    log = AuditLog()

    def worker(index):
        for i in range(ROUNDS):
            log.record("stress", f"subject-{index}", details=str(i))

    _hammer(worker)
    assert len(log) == THREADS * ROUNDS
    assert log.counts() == {"stress": THREADS * ROUNDS}
    for index in range(THREADS):
        assert len(log.events(subject=f"subject-{index}")) == ROUNDS


# ----------------------------------------------------------- end to end


def test_fleet_enrollment_repeated_runs_are_stable():
    """Two pooled runs from the same seed produce identical certificate
    bytes — worker interleaving never leaks into issued credentials."""
    from repro.core import Deployment

    def run_once():
        dep = Deployment(seed=b"stress-fleet", vnf_count=4)
        report = dep.enroll_fleet(workers=4)
        assert report.fully_succeeded, report.failed
        return {name: dep.vm.issued_certificate(name).to_bytes()
                for name in dep.vnf_names}

    assert run_once() == run_once()


# ---------------------------------------------------------- lazy key state


def test_shared_cipher_lazy_tables_race_is_harmless():
    """Threads sharing one key race the GHASH upgrade and the lazy AES
    decrypt schedule; every output still matches the per-block oracle."""
    import sys

    from repro.crypto.aes import AES
    from repro.crypto.gcm import GHASH_UPGRADE_BLOCKS, AesGcm
    from tests.crypto.gcm_reference import ReferenceAesGcm

    key, nonce = bytes(range(16)), bytes(12)
    aead, cipher = AesGcm(key), AES(key)
    reference = ReferenceAesGcm(key)
    # Each thread alone takes a few calls to cross the upgrade point.
    messages = [bytes([i]) * (16 * GHASH_UPGRADE_BLOCKS // 3 + i)
                for i in range(THREADS)]
    expected = [reference.encrypt(nonce, m, b"aad") for m in messages]
    block = cipher.encrypt_block(bytes(16))

    def worker(index):
        for _ in range(4):
            sealed = aead.encrypt(nonce, messages[index], b"aad")
            assert sealed == expected[index]
            assert aead.decrypt(nonce, sealed, b"aad") == messages[index]
            assert cipher.decrypt_block(block) == bytes(16)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(worker)
    finally:
        sys.setswitchinterval(interval)
    assert aead._ghash._position_tables is not None
