"""E11 — crypto hot path: fast-path EC engine vs. the reference ladder.

The enrollment pipeline is ECDSA-bound: every certificate issuance signs,
every chain validation and handshake verifies.  This experiment measures
the three fast paths the EC engine grew —

* fixed-base comb for ``k*G`` (signing, key generation),
* Strauss/wNAF dual-scalar ``u1*G + u2*Q`` (verification), and
* the validated-point LRU that retires the redundant full-order check —

against the untouched reference double-and-add ladder, and cross-checks
every fast-path result byte-for-byte against the reference output.  The
acceptance gate is a >=3x wall-time speedup on both generator
multiplication and full ``ecdsa_verify``.  ``ecdsa_verify`` remembers
signatures that verified, so its timed rounds each start with an empty
signature memo: every timed call is a miss and runs the ladder.  A
separate ``ecdsa_verify_memo_hit`` row times the repeat verifies the memo
serves (its ``ref`` column is the miss time).

A fourth table tracks the streaming SHA-256 fix: doubling the message
size must roughly double (not quadruple) chunked-update time.

The symmetric table times AES-GCM key setup and encryption at 64 B,
1 KiB and 16 KiB against the frozen per-block reference
(``tests/crypto/gcm_reference.py``), asserting byte-identical output, and
gates the 16 KiB speedup at >=3x; an HMAC-SHA256 key-setup row rides
along.
"""

import time

import pytest

from repro.bench.harness import BenchReport, Table, smoke_mode, summarize
from repro.crypto.ec import P256
from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify, ecdsa_verify_reference
from repro.crypto.gcm import AesGcm
from repro.crypto.hmac import HmacSha256
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import SHA256
from repro.errors import InvalidSignature
from tests.crypto.gcm_reference import ReferenceAesGcm

# Smoke mode shrinks iteration counts; the assertions on speedup and
# byte-identity are the same either way.
ITERS = 6 if smoke_mode() else 25
ROUNDS = 5
SPEEDUP_GATE = 3.0
GCM_SIZES = (64, 1024, 16 * 1024)


def _timed_batch(fn, args_list, before_round=None):
    """Best-of-ROUNDS wall time for running ``fn`` over ``args_list``;
    ``before_round`` runs untimed before each round."""
    best = float("inf")
    for _ in range(ROUNDS):
        if before_round is not None:
            before_round()
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _scalars(label, count):
    rng = HmacDrbg(seed=f"e11-{label}".encode())
    return [rng.random_scalar(P256.n) for _ in range(count)]


@pytest.mark.experiment("E11")
def test_e11_crypto_hotpath():
    report = BenchReport("E11")
    curve = P256
    curve.reset_validation_cache()
    curve.stats.reset()

    # ------------------------------------------------ generator multiply
    scalars = _scalars("genmult", ITERS)
    # Cross-check first (also warms the comb table outside the timed run).
    for k in scalars:
        fast = curve.multiply_generator(k)
        ref = curve.multiply(k, curve.generator)
        assert curve.encode_point(fast) == curve.encode_point(ref)

    ref_s = _timed_batch(lambda k: curve.multiply(k, curve.generator),
                        [(k,) for k in scalars])
    fast_s = _timed_batch(curve.multiply_generator, [(k,) for k in scalars])
    gen_speedup = ref_s / fast_s

    # ------------------------------------------------ ecdsa verify
    rng = HmacDrbg(seed=b"e11-verify")
    key = generate_keypair(rng)
    cases = []
    for i in range(ITERS):
        message = b"e11 message %d" % i + rng.random_bytes(24)
        signature = ecdsa_sign(key.scalar, message)
        cases.append((key.public.point, message, signature))
    # Cross-check: fast and reference verifiers agree on good and bad input.
    for point, message, (r, s) in cases:
        ecdsa_verify(point, message, (r, s))
        ecdsa_verify_reference(point, message, (r, s))
        bad = ((r ^ 1) or 1, s)
        with pytest.raises(InvalidSignature):
            ecdsa_verify(point, message, bad)
        with pytest.raises(InvalidSignature):
            ecdsa_verify_reference(point, message, bad)

    ref_s2 = _timed_batch(ecdsa_verify_reference, cases)
    # Empty the memo before each round so every timed verify is a miss:
    # the gate measures the ladder, not a dict lookup.
    memo_before = curve.stats.snapshot()
    fast_s2 = _timed_batch(ecdsa_verify, cases,
                           before_round=curve.reset_validation_cache)
    memo_after = curve.stats.snapshot()
    verify_speedup = ref_s2 / fast_s2
    timed_calls = ROUNDS * len(cases)
    assert (memo_after["signature_memo_misses"]
            - memo_before["signature_memo_misses"]) == timed_calls

    # The memo now holds every case: these rounds are all hits.
    hit_s = _timed_batch(ecdsa_verify, cases)
    assert (curve.stats.snapshot()["signature_memo_hits"]
            - memo_after["signature_memo_hits"]) == timed_calls
    hit_speedup = fast_s2 / hit_s

    table = Table(
        "E11: EC fast paths vs. reference ladder",
        ["op", "iters", "ref_ms", "fast_ms", "speedup"],
    )
    table.add_row("multiply_generator", ITERS,
                  ref_s * 1000, fast_s * 1000, gen_speedup)
    table.add_row("ecdsa_verify", ITERS,
                  ref_s2 * 1000, fast_s2 * 1000, verify_speedup)
    table.add_row("ecdsa_verify_memo_hit", ITERS,
                  fast_s2 * 1000, hit_s * 1000, hit_speedup)
    table.show()

    report.add("multiply_generator", iterations=ITERS,
               reference_seconds=ref_s, fast_seconds=fast_s,
               speedup=gen_speedup)
    report.add("ecdsa_verify", iterations=ITERS,
               reference_seconds=ref_s2, fast_seconds=fast_s2,
               speedup=verify_speedup)
    report.add("ecdsa_verify_memo_hit", iterations=ITERS,
               miss_seconds=fast_s2, hit_seconds=hit_s, speedup=hit_speedup)
    report.add_table(table)

    # Acceptance gate: the paper-scale experiments only get faster if
    # both hot operations beat the reference ladder by 3x.
    assert gen_speedup >= SPEEDUP_GATE, (
        f"generator multiply speedup {gen_speedup:.2f}x < {SPEEDUP_GATE}x"
    )
    assert verify_speedup >= SPEEDUP_GATE, (
        f"ecdsa_verify speedup {verify_speedup:.2f}x < {SPEEDUP_GATE}x"
    )

    # ------------------------------------------------ validation cache
    stats = curve.stats.snapshot()
    cache_table = Table(
        "E11: point-validation LRU and signature memo "
        "(same key verified repeatedly)",
        ["metric", "value"],
    )
    for name in ("validation_cache_hits", "validation_cache_misses",
                 "order_checks_skipped", "signature_memo_hits",
                 "signature_memo_misses", "dual_mults", "generator_mults"):
        cache_table.add_row(name, stats[name])
    cache_table.show()
    report.add_table(cache_table)

    # The repeated verifies above hit the same public key: exactly one
    # miss for it, everything after is a hit, and cofactor-1 P-256 never
    # pays the full-order multiply.
    assert stats["validation_cache_hits"] > stats["validation_cache_misses"]
    assert stats["order_checks_skipped"] >= 1
    assert stats["dual_mults"] >= ITERS

    report.add("validation_cache", **{k: stats[k] for k in stats})
    report.write()


@pytest.mark.experiment("E11")
def test_e11_sha256_streaming_linear():
    """Chunked hashing is linear in input size after the buffering fix."""
    chunk = b"\xab" * 1024
    sizes = [64, 128] if smoke_mode() else [128, 256]  # in chunks

    def stream(n_chunks):
        h = SHA256()
        for _ in range(n_chunks):
            h.update(chunk)
        return h.digest()

    # Correctness against one-shot hashing.
    one_shot = SHA256()
    one_shot.update(chunk * sizes[0])
    assert stream(sizes[0]) == one_shot.digest()

    samples = {n: [] for n in sizes}
    for _ in range(ROUNDS):
        for n in sizes:
            start = time.perf_counter()
            stream(n)
            samples[n].append(time.perf_counter() - start)

    small = min(samples[sizes[0]])
    large = min(samples[sizes[1]])
    ratio = large / small

    table = Table(
        "E11: streaming SHA-256 scaling (2x input)",
        ["chunks_small", "chunks_large", "t_small_ms", "t_large_ms", "ratio"],
    )
    table.add_row(sizes[0], sizes[1], small * 1000, large * 1000, ratio)
    table.show()

    report = BenchReport("E11_SHA256")
    report.add("sha256_streaming", chunks_small=sizes[0],
               chunks_large=sizes[1],
               wall=summarize(samples[sizes[1]]), ratio=ratio)
    report.add_table(table)
    report.write()

    # O(n^2) buffering made doubling the input ~4x the time; linear
    # hashing keeps the ratio near 2 (generous bound for noisy CI).
    assert ratio < 3.2, f"doubling input scaled time by {ratio:.2f}x"


@pytest.mark.experiment("E11")
def test_e11_symmetric_hotpath():
    """AES-GCM setup and bulk encryption vs. the frozen per-block code."""
    rng = HmacDrbg(seed=b"e11-gcm")
    keys = [rng.random_bytes(16) for _ in range(ITERS)]
    nonce = rng.random_bytes(12)
    aad = rng.random_bytes(13)
    table = Table(
        "E11: AES-GCM batched CTR + Shoup GHASH vs. per-block reference",
        ["op", "iters", "ref_ms", "fast_ms", "speedup"],
    )
    report = BenchReport("E11_GCM")

    def row(name, iterations, ref_s, fast_s):
        table.add_row(name, iterations, ref_s * 1000, fast_s * 1000,
                      ref_s / fast_s)
        report.add(name, iterations=iterations, reference_seconds=ref_s,
                   fast_seconds=fast_s, speedup=ref_s / fast_s)
        return ref_s / fast_s

    key_args = [(k,) for k in keys]
    row("gcm_key_setup", ITERS, _timed_batch(ReferenceAesGcm, key_args),
        _timed_batch(AesGcm, key_args))

    # Steady state of one TLS connection: a key that has already hashed
    # past the GHASH upgrade point.
    fast, ref = AesGcm(keys[0]), ReferenceAesGcm(keys[0])
    fast.encrypt(nonce, bytes(16 * 1024), aad)
    speedups = {}
    for size in GCM_SIZES:
        plaintext = rng.random_bytes(size)
        assert fast.encrypt(nonce, plaintext, aad) == ref.encrypt(
            nonce, plaintext, aad)
        iterations = ITERS if size <= 1024 else 3
        args = [(nonce, plaintext, aad)] * iterations
        speedups[size] = row(f"gcm_encrypt_{size}B", iterations,
                             _timed_batch(ref.encrypt, args),
                             _timed_batch(fast.encrypt, args))

    hmac_keys = [(rng.random_bytes(32),) for _ in range(ITERS)]
    hmac_s = _timed_batch(HmacSha256, hmac_keys)
    table.add_row("hmac_key_setup", ITERS, "-", hmac_s * 1000, "-")
    report.add("hmac_key_setup", iterations=ITERS, fast_seconds=hmac_s)
    table.show()
    report.add_table(table)
    report.write()

    big = GCM_SIZES[-1]
    assert speedups[big] >= SPEEDUP_GATE, (
        f"{big} B AES-GCM encrypt speedup {speedups[big]:.2f}x "
        f"< {SPEEDUP_GATE}x"
    )
