"""NIST P-256 (secp256r1) group arithmetic, with a fast-path engine.

Two layers coexist deliberately:

- **Reference ladder** — :meth:`_Curve.multiply` is the simple left-to-right
  Jacobian double-and-add from the seed implementation.  It is kept byte-
  for-byte unchanged in behaviour and serves as the *oracle* every fast
  path is cross-checked against (``tests/crypto/test_ec_fast.py``).
- **Fast engine** — the hot paths the enrollment pipeline actually runs:

  * :meth:`_Curve.multiply_generator` uses a **fixed-base comb**: radix-16
    window tables over the generator, built once per curve (64 windows of
    15 odd/even multiples each, stored affine so every ladder step is one
    mixed Jacobian+affine addition and there are *no* doublings at all).
  * :meth:`_Curve.multiply_dual` computes ``u1*G + u2*Q`` with
    Shamir/Strauss interleaving over **wNAF** digit expansions — one shared
    doubling ladder instead of two full multiplies plus an add.  The
    generator side reads from a precomputed affine odd-multiples table.
  * :meth:`_Curve.multiply_point` is the single-scalar wNAF ladder used by
    ECDH, where the base point is the peer's (not the generator).
  * :meth:`_Curve.validate_public` is **cofactor-aware**: for a cofactor-1
    curve the full-order ``n * P`` check is mathematically redundant (the
    whole curve has prime order ``n``, so every on-curve point other than
    infinity already has order ``n``) and is skipped; an LRU of already-
    validated points turns repeated validations of the same VM/CA/VNF key
    into one dict hit.  :meth:`_Curve.validate_public_uncached` keeps the
    original full-order check as the reference/oracle path.

The curve also holds the **signature memo** that
:func:`repro.crypto.ecdsa.ecdsa_verify` consults: a bounded LRU of
``(Q, SHA-256(message), r, s)`` tuples that already verified, so the
re-checks of one CA certificate, CRL or SIGSTRUCT cost one dict hit.
Only accepted signatures are remembered.

Every fast-path invocation, table build and cache hit/miss is counted in
:class:`EcEngineStats` (lock-guarded :meth:`EcEngineStats.bump` calls,
~100 ns each); :meth:`repro.obs.Telemetry.sync_ec_stats` mirrors the
counters into the metrics registry so they show up on the VM's
``/metrics`` endpoint.  See ``docs/PERFORMANCE.md`` for the design
discussion and the E11 benchmark tables proving the speedups.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, NamedTuple, Optional, Tuple

from repro.analysis.sanitizer import make_lock, make_rlock
from repro.errors import InvalidPoint

#: Window width (bits) of the fixed-base comb used by multiply_generator.
FIXED_BASE_WINDOW = 4

#: wNAF width for the precomputed generator table in multiply_dual.
GENERATOR_WNAF_WIDTH = 8

#: wNAF width for per-call points (the ECDH peer side): the table is
#: built fresh each call, so a narrow window keeps the build cheap.
POINT_WNAF_WIDTH = 5

#: wNAF width for the public-key side of the dual ladder: its tables are
#: cached in a per-point LRU, so a wider window (fewer ladder additions)
#: pays off once a key is seen more than once — which chain validation
#: and per-peer handshakes guarantee.
DUAL_POINT_WNAF_WIDTH = 6

#: Bound on the validated-point LRU (per curve).
VALIDATION_CACHE_CAPACITY = 512

#: Bound on the per-point odd-multiples table LRU (per curve).  Entries
#: are small (2**(POINT_WNAF_WIDTH-2) affine points) and the hit pattern
#: is highly repetitive: chain validation always verifies against the same
#: CA key, and every handshake against a given peer reuses its key.
POINT_TABLE_CACHE_CAPACITY = 128

#: Bound on the memo of successfully verified ECDSA signatures (per
#: curve).  An entry is a point, a 32-byte digest and two scalars; a full
#: memo holds at most about 0.55 MB (measured with tracemalloc, nothing
#: shared with callers).
SIGNATURE_MEMO_CAPACITY = 1024


class Point(NamedTuple):
    """An affine curve point; ``None`` coordinates never appear here —
    the point at infinity is represented by Python ``None`` at call sites."""

    x: int
    y: int


class EcEngineStats:
    """Operation counters for the fast-path engine (one instance per curve).

    Counters are bumped through :meth:`bump`, which holds a private lock:
    a bare ``+= 1`` is a read-modify-write that loses increments when
    concurrent fleet enrollments (:mod:`repro.core.fleet`) hammer the
    engine from many threads.  The lock costs ~100 ns against scalar
    multiplications measured in hundreds of microseconds, so the E11
    speedup gates are unaffected.  The telemetry layer snapshots the
    counters on scrape rather than the crypto layer pushing into a
    registry.
    """

    _COUNTERS = (
        "reference_mults",
        "generator_mults",
        "dual_mults",
        "wnaf_mults",
        "table_builds",
        "validation_cache_hits",
        "validation_cache_misses",
        "order_checks_skipped",
        "point_table_hits",
        "point_table_misses",
        "signature_memo_hits",
        "signature_memo_misses",
    )

    __slots__ = _COUNTERS + ("_lock",)

    def __init__(self) -> None:
        self._lock = make_lock("ec_stats")
        self.reset()

    def bump(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the counter called ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            for name in self._COUNTERS:
                setattr(self, name, 0)

    def snapshot(self) -> dict:
        """Current counters as a plain dict (telemetry sync + tests)."""
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS}


def _wnaf(k: int, width: int) -> List[int]:
    """Width-``width`` non-adjacent form of ``k`` (least significant first).

    Digits are zero or odd in ``[-(2**(width-1) - 1), 2**(width-1) - 1]``;
    at most one in every ``width`` consecutive digits is non-zero, so the
    expected add-count of a wNAF ladder is ``len/(width + 1)``.
    """
    digits: List[int] = []
    modulus = 1 << width
    half = 1 << (width - 1)
    while k:
        if k & 1:
            digit = k & (modulus - 1)
            if digit >= half:
                digit -= modulus
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


class _Curve:
    """Short-Weierstrass curve y^2 = x^3 + ax + b over GF(p)."""

    def __init__(self, name: str, p: int, a: int, b: int,
                 gx: int, gy: int, n: int, h: int = 1) -> None:
        self.name = name
        self.p = p
        self.a = a
        self.b = b
        self.generator = Point(gx, gy)
        self.n = n  # group order
        self.h = h  # cofactor (1 for all NIST prime curves)
        self.coordinate_size = (p.bit_length() + 7) // 8
        self.stats = EcEngineStats()
        # Guards the validated-point LRU, the per-point table LRU, the
        # signature memo and the lazy one-shot table builds below.  RLock
        # because validation may nest inside a locked table build on
        # cofactor>1 curves.  Leaf
        # domain of its own ("ec_curves", not the core "cache" chain):
        # point validation runs under TLS handshakes that the fleet
        # drives while holding per-host leaf locks, and a chain-ranked
        # domain there would (and, before the runtime sanitizer, did)
        # read as a leaf-lock order violation.
        self._lock = make_rlock("ec_curves")
        # Lazily built fast-path tables (once per curve, never mutated).
        self._fixed_base: Optional[List[List[Point]]] = None
        self._generator_odd: Optional[Tuple[List[Point], List[Point]]] = None
        # Scalar split point for the dual ladder (128 for P-256): scalars
        # are split as ``k = k_lo + 2**half_bits * k_hi`` so the shared
        # doubling ladder only runs half the bit length.
        self._half_bits = (n.bit_length() + 1) // 2
        # LRU of already-validated public points: (x, y) -> True.
        self._validated: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.validation_cache_capacity = VALIDATION_CACHE_CAPACITY
        # LRU of per-point affine odd-multiples table pairs for the dual
        # ladder: (x, y) -> ([1Q, 3Q, ...], [1R, 3R, ...]) with
        # R = 2**half_bits * Q.
        self._point_tables: "OrderedDict[Tuple[int, int], Tuple[List[Point], List[Point]]]" = \
            OrderedDict()
        self.point_table_cache_capacity = POINT_TABLE_CACHE_CAPACITY
        # LRU of signatures that verified: (Q, digest, r, s) -> True.
        self._signatures: "OrderedDict[Tuple[Point, bytes, int, int], bool]" = \
            OrderedDict()
        self.signature_memo_capacity = SIGNATURE_MEMO_CAPACITY

    # ------------------------------------------------------------- checks

    def contains(self, point: Optional[Point]) -> bool:
        """True if ``point`` is on the curve (infinity counts as on-curve)."""
        if point is None:
            return True
        x, y = point
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def validate_public(self, point: Optional[Point]) -> Point:
        """Validate a public-key point: on-curve, not infinity, right order.

        Fast path: a bounded LRU remembers already-validated points, so the
        pipeline's repeated verifications against the same CA / VM / VNF
        key cost one dict lookup.  For cofactor-1 curves the full-order
        scalar multiplication is skipped entirely — with ``h == 1`` the
        curve's whole point group has prime order ``n``, so *every*
        on-curve point except infinity has order exactly ``n`` and the
        ``n * P == O`` check can never fail once ``contains`` passed.
        Invalid points are never cached.
        """
        if point is None:
            raise InvalidPoint("public key is the point at infinity")
        key = (point.x, point.y)
        cache = self._validated
        with self._lock:
            if key in cache:
                cache.move_to_end(key)
                self.stats.bump("validation_cache_hits")
                return point
        self.stats.bump("validation_cache_misses")
        if not self.contains(point):
            raise InvalidPoint(f"point {point} is not on {self.name}")
        if self.h == 1:
            self.stats.bump("order_checks_skipped")
        elif self.multiply(self.n, point) is not None:
            raise InvalidPoint("point has wrong order")
        with self._lock:
            cache[key] = True
            if len(cache) > self.validation_cache_capacity:
                cache.popitem(last=False)
        return point

    def validate_public_uncached(self, point: Optional[Point]) -> Point:
        """The original (reference) validation: on-curve, non-infinity and
        an explicit full-order ``n * P == O`` check, with no caching.  Kept
        as the oracle the fast path is cross-checked against."""
        if point is None:
            raise InvalidPoint("public key is the point at infinity")
        if not self.contains(point):
            raise InvalidPoint(f"point {point} is not on {self.name}")
        if self.multiply(self.n, point) is not None:
            raise InvalidPoint("point has wrong order")
        return point

    def reset_validation_cache(self) -> None:
        """Drop every cached validation verdict and remembered signature
        (tests / key rotation)."""
        with self._lock:
            self._validated.clear()
            self._signatures.clear()

    def signature_memo_hit(self, key: Tuple[Point, bytes, int, int]) -> bool:
        """True if ``key`` (see :func:`repro.crypto.ecdsa.ecdsa_verify`)
        already verified; a hit refreshes its LRU position."""
        memo = self._signatures
        with self._lock:
            if key in memo:
                memo.move_to_end(key)
                self.stats.bump("signature_memo_hits")
                return True
        self.stats.bump("signature_memo_misses")
        return False

    def remember_signature(self, key: Tuple[Point, bytes, int, int]) -> None:
        """Record a signature that just verified, evicting the oldest
        entry beyond :data:`SIGNATURE_MEMO_CAPACITY`.  Callers insert
        only after the full check accepted."""
        memo = self._signatures
        with self._lock:
            memo[key] = True
            if len(memo) > self.signature_memo_capacity:
                memo.popitem(last=False)

    def reset_point_tables(self) -> None:
        """Drop every cached odd-multiples table (tests).  Safe at any
        time: tables are pure functions of the point coordinates."""
        with self._lock:
            self._point_tables.clear()

    @property
    def validation_cache_size(self) -> int:
        """Number of points currently remembered as valid."""
        with self._lock:
            return len(self._validated)

    @property
    def signature_memo_size(self) -> int:
        """Number of signatures currently remembered as valid."""
        with self._lock:
            return len(self._signatures)

    # ------------------------------------------------------- group arithmetic

    def _to_jacobian(self, point: Optional[Point]):
        if point is None:
            return (0, 1, 0)
        return (point.x, point.y, 1)

    def _from_jacobian(self, jac) -> Optional[Point]:
        x, y, z = jac
        if z == 0:
            return None
        p = self.p
        z_inv = pow(z, p - 2, p)
        z2 = z_inv * z_inv % p
        return Point(x * z2 % p, y * z2 * z_inv % p)

    def _from_jacobian_fast(self, jac) -> Optional[Point]:
        """Jacobian→affine using the extended-gcd inverse (``pow(z, -1, p)``).

        CPython computes negative-exponent ``pow`` with a binary extended
        GCD, ~7x faster than the Fermat ``z**(p-2)`` power for 256-bit
        moduli.  Identical output; the reference :meth:`_from_jacobian`
        keeps the Fermat form so the oracle path stays byte-frozen.
        """
        x, y, z = jac
        if z == 0:
            return None
        p = self.p
        z_inv = pow(z, -1, p)
        z2 = z_inv * z_inv % p
        return Point(x * z2 % p, y * z2 * z_inv % p)

    def _jac_double(self, jac):
        x1, y1, z1 = jac
        p = self.p
        if z1 == 0 or y1 == 0:
            return (0, 1, 0)
        ysq = y1 * y1 % p
        s = 4 * x1 * ysq % p
        m = (3 * x1 * x1 + self.a * pow(z1, 4, p)) % p
        x3 = (m * m - 2 * s) % p
        y3 = (m * (s - x3) - 8 * ysq * ysq) % p
        z3 = 2 * y1 * z1 % p
        return (x3, y3, z3)

    def _jac_add(self, jac1, jac2):
        p = self.p
        x1, y1, z1 = jac1
        x2, y2, z2 = jac2
        if z1 == 0:
            return jac2
        if z2 == 0:
            return jac1
        z1z1 = z1 * z1 % p
        z2z2 = z2 * z2 % p
        u1 = x1 * z2z2 % p
        u2 = x2 * z1z1 % p
        s1 = y1 * z2z2 * z2 % p
        s2 = y2 * z1z1 * z1 % p
        if u1 == u2:
            if s1 != s2:
                return (0, 1, 0)  # inverses: P + (-P) = O
            return self._jac_double(jac1)
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        h2 = h * h % p
        h3 = h2 * h % p
        u1h2 = u1 * h2 % p
        x3 = (r * r - h3 - 2 * u1h2) % p
        y3 = (r * (u1h2 - x3) - s1 * h3) % p
        z3 = h * z1 * z2 % p
        return (x3, y3, z3)

    def _jac_add_mixed(self, jac1, x2: int, y2: int):
        """Mixed addition: Jacobian ``jac1`` + affine ``(x2, y2)``.

        The affine operand's ``Z == 1`` removes four field multiplications
        and one squaring versus the general formula — this is why the
        fixed-base tables store affine points.
        """
        x1, y1, z1 = jac1
        if z1 == 0:
            return (x2, y2, 1)
        p = self.p
        z1z1 = z1 * z1 % p
        u2 = x2 * z1z1 % p
        s2 = y2 * z1z1 * z1 % p
        if x1 == u2:
            if y1 != s2:
                return (0, 1, 0)
            return self._jac_double(jac1)
        h = (u2 - x1) % p
        r = (s2 - y1) % p
        h2 = h * h % p
        h3 = h2 * h % p
        u1h2 = x1 * h2 % p
        x3 = (r * r - h3 - 2 * u1h2) % p
        y3 = (r * (u1h2 - x3) - y1 * h3) % p
        z3 = h * z1 % p
        return (x3, y3, z3)

    def add(self, p1: Optional[Point], p2: Optional[Point]) -> Optional[Point]:
        """Group addition in affine terms."""
        return self._from_jacobian(
            self._jac_add(self._to_jacobian(p1), self._to_jacobian(p2))
        )

    def double(self, point: Optional[Point]) -> Optional[Point]:
        """Point doubling in affine terms."""
        return self._from_jacobian(self._jac_double(self._to_jacobian(point)))

    def negate(self, point: Optional[Point]) -> Optional[Point]:
        """Additive inverse of a point."""
        if point is None:
            return None
        return Point(point.x, (-point.y) % self.p)

    def multiply(self, k: int, point: Optional[Point]) -> Optional[Point]:
        """Scalar multiplication ``k * point`` — the **reference ladder**.

        Simple right-to-left double-and-add in Jacobian coordinates.  This
        is deliberately left untouched: it is the oracle the comb / wNAF /
        dual-scalar fast paths are cross-checked against.
        """
        self.stats.bump("reference_mults")
        k %= self.n
        if k == 0 or point is None:
            return None
        acc = (0, 1, 0)
        addend = self._to_jacobian(point)
        while k:
            if k & 1:
                acc = self._jac_add(acc, addend)
            addend = self._jac_double(addend)
            k >>= 1
        return self._from_jacobian(acc)

    # --------------------------------------------------- fast-path tables

    def _fixed_base_table(self) -> List[List[Point]]:
        """``table[i][j-1] = j * 16**i * G`` as affine points.

        Built lazily, once per curve: 64 windows (for a 256-bit order) of
        15 entries each.  With the table in hand, ``k * G`` is at most one
        mixed addition per 4-bit window of ``k`` — no doublings.
        """
        table_ref = self._fixed_base
        if table_ref is None:
            with self._lock:
                if self._fixed_base is None:  # double-checked: build once
                    self.stats.bump("table_builds")
                    windows = (self.n.bit_length() + FIXED_BASE_WINDOW - 1) \
                        // FIXED_BASE_WINDOW
                    table: List[List[Point]] = []
                    base = self._to_jacobian(self.generator)
                    for _ in range(windows):
                        row: List[Point] = []
                        acc = (0, 1, 0)
                        for _ in range((1 << FIXED_BASE_WINDOW) - 1):
                            acc = self._jac_add(acc, base)
                            affine = self._from_jacobian(acc)
                            # j*2^(4i) < n: never infinity
                            assert affine is not None
                            row.append(affine)
                        table.append(row)
                        for _ in range(FIXED_BASE_WINDOW):
                            base = self._jac_double(base)
                    self._fixed_base = table
                table_ref = self._fixed_base
        return table_ref

    def _generator_wnaf_tables(self) -> Tuple[List[Point], List[Point]]:
        """Affine odd-multiples tables for both generator digit streams.

        Returns ``(low, high)`` where ``low[j] = (2j+1) * G`` and
        ``high[j] = (2j+1) * S`` with ``S = 2**half_bits * G`` — the
        shifted base the split-scalar dual ladder uses for the top half
        of ``u1``.  Built once per curve.
        """
        tables_ref = self._generator_odd
        if tables_ref is None:
            with self._lock:
                if self._generator_odd is None:  # double-checked
                    self.stats.bump("table_builds")
                    shifted = self._to_jacobian(self.generator)
                    for _ in range(self._half_bits):
                        shifted = self._jac_double(shifted)
                    count = 1 << (GENERATOR_WNAF_WIDTH - 2)
                    low_jac = self._odd_multiples_jac(
                        self._to_jacobian(self.generator), count)
                    high_jac = self._odd_multiples_jac(shifted, count)
                    affine = self._to_affine_batch(low_jac + high_jac)
                    self._generator_odd = (affine[:count], affine[count:])
                tables_ref = self._generator_odd
        return tables_ref

    def _odd_multiples_jac(self, jac: tuple, count: int) -> List[tuple]:
        """Odd multiples ``[1, 3, 5, ...]`` (``count`` of them) of a
        Jacobian point."""
        twice = self._jac_double(jac)
        table = [jac]
        for _ in range(count - 1):
            table.append(self._jac_add(table[-1], twice))
        return table

    def _to_affine_batch(self, jacs: List[tuple]) -> List[Point]:
        """Convert several Jacobian points to affine with **one** field
        inversion (Montgomery's batch-inversion trick).

        ``k`` inversions cost ``3(k-1)`` multiplications plus a single
        ``pow``; affine table entries then let the dual ladder use mixed
        additions on the public-key side as well.  None of the inputs may
        be the point at infinity (odd multiples of a valid point never
        are).
        """
        p = self.p
        zs = [z for _, _, z in jacs]
        prefix = [1] * (len(zs) + 1)
        for i, z in enumerate(zs):
            prefix[i + 1] = prefix[i] * z % p
        inv_all = pow(prefix[-1], -1, p)
        out: List[Point] = [None] * len(jacs)  # type: ignore[list-item]
        for i in range(len(jacs) - 1, -1, -1):
            x, y, z = jacs[i]
            z_inv = inv_all * prefix[i] % p
            inv_all = inv_all * z % p
            z2 = z_inv * z_inv % p
            out[i] = Point(x * z2 % p, y * z2 * z_inv % p)
        return out

    def _point_odd_table(self, point: Point) -> Tuple[List[Point], List[Point]]:
        """Affine odd-multiples tables for ``point`` from the per-point LRU.

        Returns ``(low, high)`` with ``low[j] = (2j+1) * Q`` and
        ``high[j] = (2j+1) * R`` for ``R = 2**half_bits * Q``.  Building
        the pair costs ~128 doublings plus ~30 additions and one batch
        inversion — but chain validation verifies every certificate
        against the same CA key and each TLS peer reuses its key across
        handshakes, so the build amortises to a dict hit on the common
        path.
        """
        key = (point.x, point.y)
        cache = self._point_tables
        with self._lock:
            tables = cache.get(key)
            if tables is not None:
                cache.move_to_end(key)
                self.stats.bump("point_table_hits")
                return tables
        # Build outside the lock: ~128 doublings plus a batch inversion.
        # Two threads racing on the same new key both build; the second
        # insert wins and the tables are identical (pure function of the
        # point), so the duplicate work is bounded and harmless.
        self.stats.bump("point_table_misses")
        base = self._to_jacobian(point)
        shifted = base
        for _ in range(self._half_bits):
            shifted = self._jac_double(shifted)
        count = 1 << (DUAL_POINT_WNAF_WIDTH - 2)
        low_jac = self._odd_multiples_jac(base, count)
        high_jac = self._odd_multiples_jac(shifted, count)
        affine = self._to_affine_batch(low_jac + high_jac)
        tables = (affine[:count], affine[count:])
        with self._lock:
            cache[key] = tables
            if len(cache) > self.point_table_cache_capacity:
                cache.popitem(last=False)
        return tables

    # ------------------------------------------------------- fast multiplies

    def multiply_generator(self, k: int) -> Optional[Point]:
        """``k * G`` via the fixed-base comb (reference: ``multiply(k, G)``).

        One mixed addition per non-zero radix-16 window of ``k`` — roughly
        64 cheap additions instead of ~256 doublings plus ~128 additions.
        """
        self.stats.bump("generator_mults")
        k %= self.n
        if k == 0:
            return None
        table = self._fixed_base_table()
        acc = (0, 1, 0)
        index = 0
        mask = (1 << FIXED_BASE_WINDOW) - 1
        while k:
            digit = k & mask
            if digit:
                entry = table[index][digit - 1]
                acc = self._jac_add_mixed(acc, entry.x, entry.y)
            k >>= FIXED_BASE_WINDOW
            index += 1
        return self._from_jacobian_fast(acc)

    def multiply_point(self, k: int, point: Optional[Point],
                       width: int = POINT_WNAF_WIDTH) -> Optional[Point]:
        """Single-scalar wNAF ladder for arbitrary base points (ECDH).

        Same result as :meth:`multiply`, ~2.5x fewer additions: the wNAF
        digit density is ``1/(width+1)`` against the plain ladder's 1/2.
        """
        self.stats.bump("wnaf_mults")
        k %= self.n
        if k == 0 or point is None:
            return None
        digits = _wnaf(k, width)
        table = self._odd_multiples_jac(
            self._to_jacobian(point), 1 << (width - 2))
        p = self.p
        acc = (0, 1, 0)
        for digit in reversed(digits):
            acc = self._jac_double(acc)
            if digit:
                if digit > 0:
                    acc = self._jac_add(acc, table[digit >> 1])
                else:
                    x, y, z = table[(-digit) >> 1]
                    acc = self._jac_add(acc, (x, (-y) % p, z))
        return self._from_jacobian_fast(acc)

    def multiply_dual(self, u1: int, u2: int,
                      point: Optional[Point]) -> Optional[Point]:
        """``u1 * G + u2 * point`` in one split-scalar Strauss wNAF ladder.

        Both scalars are split at ``half_bits`` (128 for P-256) as
        ``u = u_lo + 2**half_bits * u_hi``, giving *four* wNAF digit
        streams over the precomputed bases ``G``, ``S = 2**half_bits * G``,
        ``Q`` and ``R = 2**half_bits * Q``.  The shared doubling ladder
        then only runs ~128 steps instead of ~256 — doublings dominate the
        cost, so halving them nearly halves the whole verification
        equation.  All four streams read *affine* odd-multiples tables
        (the generator pair precomputed once per curve; the point pair
        cached per public key in an LRU), so every addition is the cheap
        mixed Jacobian+affine form.  For curves with ``a = -3`` (every
        NIST prime curve, including P-256) the doubling body is inlined
        using the dedicated ``a = -3`` formula, which avoids per-step
        function-call overhead and the ``z^4`` power; the generic
        ``_jac_double`` remains the fallback.
        """
        self.stats.bump("dual_mults")
        u1 %= self.n
        u2 %= self.n
        if point is None or u2 == 0:
            return self.multiply_generator(u1) if u1 else None
        if u1 == 0:
            return self.multiply_point(u2, point)
        half = self._half_bits
        half_mask = (1 << half) - 1
        g_lo_table, g_hi_table = self._generator_wnaf_tables()
        q_lo_table, q_hi_table = self._point_odd_table(point)
        streams = (
            (_wnaf(u1 & half_mask, GENERATOR_WNAF_WIDTH), g_lo_table),
            (_wnaf(u1 >> half, GENERATOR_WNAF_WIDTH), g_hi_table),
            (_wnaf(u2 & half_mask, DUAL_POINT_WNAF_WIDTH), q_lo_table),
            (_wnaf(u2 >> half, DUAL_POINT_WNAF_WIDTH), q_hi_table),
        )
        p = self.p
        a_is_minus3 = self.a == p - 3
        length = max(len(digits) for digits, _ in streams)
        # Merge the four digit streams into one sparse map of pending
        # affine addends per ladder step (~65 of the ~128 steps carry
        # one or more).  Merging up front lets the ladder below inline
        # both the doubling and the mixed-addition field formulas with no
        # per-step method calls or digit bookkeeping.
        steps: dict = {}
        for digits, table in streams:
            for i, digit in enumerate(digits):
                if digit > 0:
                    entry = table[digit >> 1]
                elif digit < 0:
                    entry = table[(-digit) >> 1]
                    entry = (entry.x, (-entry.y) % p)
                else:
                    continue
                if i in steps:
                    steps[i].append(entry)
                else:
                    steps[i] = [entry]
        x1, y1, z1 = 0, 1, 0
        empty: tuple = ()
        steps_get = steps.get
        for i in range(length - 1, -1, -1):
            # -- double (inlined dbl-2001-b for a = -3; generic fallback)
            if z1:
                if y1 == 0:
                    x1, y1, z1 = 0, 1, 0
                elif a_is_minus3:
                    delta = z1 * z1 % p
                    gamma = y1 * y1 % p
                    beta = x1 * gamma % p
                    alpha = 3 * (x1 - delta) * (x1 + delta) % p
                    x3 = (alpha * alpha - (beta << 3)) % p
                    t = y1 + z1
                    z1 = (t * t - gamma - delta) % p
                    gg = gamma * gamma
                    y1 = (alpha * ((beta << 2) - x3) - (gg << 3)) % p
                    x1 = x3
                else:
                    x1, y1, z1 = self._jac_double((x1, y1, z1))
            for x2, y2 in steps_get(i, empty):
                # -- inlined mixed Jacobian+affine addition (madd-2004-hmv)
                if z1 == 0:
                    x1, y1, z1 = x2, y2, 1
                    continue
                z1z1 = z1 * z1 % p
                u2_ = x2 * z1z1 % p
                s2 = y2 * z1z1 * z1 % p
                if x1 == u2_:
                    if y1 != s2:
                        x1, y1, z1 = 0, 1, 0
                    else:
                        x1, y1, z1 = self._jac_double((x1, y1, z1))
                    continue
                h = (u2_ - x1) % p
                r = (s2 - y1) % p
                h2 = h * h % p
                h3 = h2 * h % p
                u1h2 = x1 * h2 % p
                x3 = (r * r - h3 - (u1h2 << 1)) % p
                y1 = (r * (u1h2 - x3) - y1 * h3) % p
                z1 = h * z1 % p
                x1 = x3
        return self._from_jacobian_fast((x1, y1, z1))

    def multiply_dual_reference(self, u1: int, u2: int,
                                point: Optional[Point]) -> Optional[Point]:
        """Oracle for :meth:`multiply_dual`: two reference ladders + add."""
        return self.add(
            self.multiply(u1, self.generator), self.multiply(u2, point)
        )

    # ------------------------------------------------------- serialization

    def encode_point(self, point: Point) -> bytes:
        """Uncompressed SEC1 encoding: ``04 || X || Y``."""
        size = self.coordinate_size
        return b"\x04" + point.x.to_bytes(size, "big") + point.y.to_bytes(size, "big")

    def decode_point(self, data: bytes, validate: bool = True) -> Point:
        """Parse an uncompressed SEC1 point.

        With ``validate=True`` (the default, and the seed behaviour) the
        decoded point is checked to lie on the curve.  Callers that feed
        the result straight into :meth:`validate_public` — e.g.
        :meth:`repro.crypto.keys.EcPublicKey.from_bytes` — pass
        ``validate=False`` so the point is checked exactly once instead of
        twice; the *combined* path never returns an unvalidated point.
        """
        size = self.coordinate_size
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise InvalidPoint("expected uncompressed SEC1 point")
        point = Point(
            int.from_bytes(data[1:1 + size], "big"),
            int.from_bytes(data[1 + size:], "big"),
        )
        if validate and not self.contains(point):
            raise InvalidPoint("decoded point is not on the curve")
        return point


# NIST P-256 domain parameters (FIPS 186-4, appendix D.1.2.3).
P256 = _Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    h=1,
)
