"""The attestation service core.

One :class:`IasService` manages one EPID group: it provisions platforms
with member keys (into their quoting enclaves), verifies submitted quotes,
maintains both revocation lists, and signs verdicts with its report key.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.keys import EcPrivateKey, EcPublicKey, generate_keypair
from repro.crypto.rng import HmacDrbg, default_rng
from repro.errors import IasError, ReproError
from repro.ias.report import AttestationVerificationReport, sign_report
from repro.ias.revocation_lists import PrivRl, SigRl
from repro.sgx.epid import EpidGroup, EpidSignature, pseudonym
from repro.sgx.platform import SgxPlatform
from repro.sgx.quote import Quote


class QuoteStatus:
    """AVR status strings (the subset of real IAS verdicts we model)."""

    OK = "OK"
    SIGNATURE_INVALID = "SIGNATURE_INVALID"
    KEY_REVOKED = "KEY_REVOKED"
    SIGNATURE_REVOKED = "SIGNATURE_REVOKED"
    GROUP_REVOKED = "GROUP_REVOKED"
    GROUP_OUT_OF_DATE = "GROUP_OUT_OF_DATE"


class LinearRevocationIndex:
    """Revocation checks for one verification, at full-list cost.

    Each check walks its whole list (the PrivRL re-derives every revoked
    key's pseudonym), so the modelled cost of a check is the list size.
    """

    def __init__(self, group: EpidGroup, priv_rl: PrivRl,
                 sig_rl: SigRl) -> None:
        self._group = group
        self._priv_rl = priv_rl
        self._sig_rl = sig_rl

    def key_revoked(self, signature: EpidSignature) -> Tuple[bool, int]:
        """``(revoked, entries scanned)`` against the PrivRL."""
        hit = self._priv_rl.matches(signature,
                                    self._group.derive_member_secret)
        return hit is not None, len(self._priv_rl)

    def signature_revoked(self,
                          signature: EpidSignature) -> Tuple[bool, int]:
        """``(revoked, entries scanned)`` against the SigRL."""
        return self._sig_rl.matches(signature), len(self._sig_rl)


class BatchedRevocationIndex:
    """Revocation checks amortized over one batch.

    The SigRL scan is ``(basename, pseudonym)`` equality, so one set
    covers every quote in the batch; the PrivRL scan re-derives each
    revoked key's pseudonym *per basename*, so one table per distinct
    basename covers the batch (deployments pin one basename, so in
    practice that is one table).  Each check is then one hash probe
    (cost 1), and building the tables costs ``build_scans`` entries:
    O(|RL| + B) for the batch instead of the sequential O(B x |RL|).
    """

    def __init__(self, group: EpidGroup, priv_rl: PrivRl,
                 sig_rl: SigRl) -> None:
        self._group = group
        self._priv_rl = priv_rl
        self._sig_entries = set(sig_rl.entries)
        self._priv_tables: Dict[bytes, Set[bytes]] = {}
        self.build_scans = len(sig_rl)

    def key_revoked(self, signature: EpidSignature) -> Tuple[bool, int]:
        """``(revoked, 1)``; builds the basename's table on first use."""
        table = self._priv_tables.get(signature.basename)
        if table is None:
            table = {
                pseudonym(self._group.derive_member_secret(member_id),
                          signature.basename)
                for member_id in self._priv_rl.revoked_member_ids
            }
            self._priv_tables[signature.basename] = table
            self.build_scans += len(self._priv_rl)
        return signature.pseudonym in table, 1

    def signature_revoked(self,
                          signature: EpidSignature) -> Tuple[bool, int]:
        """``(revoked, 1)``."""
        entry = (signature.basename, signature.pseudonym)
        return entry in self._sig_entries, 1


def quote_status(quote: Quote, group: EpidGroup, index,
                 group_revoked: bool, min_qe_svn: int) -> Tuple[str, int]:
    """The verdict for one quote, and the revocation entries scanned.

    The order of checks mirrors real IAS: group status, signature
    validity, key revocation, signature revocation, TCB level.
    ``index`` is a :class:`LinearRevocationIndex` or a
    :class:`BatchedRevocationIndex`; both give the same verdicts and
    differ only in the modelled scan cost.
    """
    if group_revoked:
        return QuoteStatus.GROUP_REVOKED, 0
    try:
        signature = quote.signature()
        group.verify(signature, quote.body_bytes())
    except ReproError:
        return QuoteStatus.SIGNATURE_INVALID, 0
    revoked, scanned = index.key_revoked(signature)
    if revoked:
        return QuoteStatus.KEY_REVOKED, scanned
    revoked, cost = index.signature_revoked(signature)
    scanned += cost
    if revoked:
        return QuoteStatus.SIGNATURE_REVOKED, scanned
    if quote.qe_svn < min_qe_svn:
        return QuoteStatus.GROUP_OUT_OF_DATE, scanned
    return QuoteStatus.OK, scanned


class IasService:
    """The attestation service.

    Args:
        rng: randomness (group/master keys, report ids).
        now: time source for AVR timestamps.
        group_id: EPID group identifier.
    """

    def __init__(self, rng: Optional[HmacDrbg] = None,
                 now: Callable[[], int] = lambda: 0,
                 group_id: bytes = b"epid-group-0") -> None:
        self._rng = rng or default_rng()
        self._now = now
        self.group = EpidGroup(group_id, self._rng.random_bytes(32))
        self._report_key: EcPrivateKey = generate_keypair(self._rng)
        self.priv_rl = PrivRl()
        self.sig_rl = SigRl()
        self.group_revoked = False
        # Platforms whose quoting enclave is older than this SVN get the
        # GROUP_OUT_OF_DATE verdict (the TCB-recovery mechanism: after a
        # microcode/QE update, IAS raises the floor).
        self.min_qe_svn = 0
        self._platforms: Dict[bytes, str] = {}  # member id -> platform name
        self._report_counter = 0
        self.quotes_verified = 0
        # Modelled revocation-list scan cost (entries examined), the
        # deterministic counter E6's batch-amortization assert reads:
        # sequential verifies pay O(|RL|) each, a batch pays O(|RL| + B).
        self.rl_entries_scanned = 0
        self._telemetry = None  # set by instrument()

    def instrument(self, telemetry) -> None:
        """Attach telemetry: every verdict increments
        ``vnf_sgx_ias_verdicts_total{status=...}``.  ``None`` detaches."""
        self._telemetry = telemetry

    # --------------------------------------------------------- provisioning

    @property
    def report_signing_public_key(self) -> EcPublicKey:
        """The key relying parties verify AVRs against."""
        return self._report_key.public

    def register_platform(self, platform: SgxPlatform) -> bytes:
        """Provision a platform's QE with an EPID member key.

        Returns the member id (IAS-internal handle for later revocation).
        """
        member = self.group.issue_member(self._rng)
        platform.provision_epid(member, self.group.sealing_key())
        self._platforms[member.member_id] = platform.name
        return member.member_id

    def platform_name(self, member_id: bytes) -> Optional[str]:
        """Registered platform name for a member id."""
        return self._platforms.get(member_id)

    # ----------------------------------------------------------- revocation

    def revoke_member(self, member_id: bytes) -> None:
        """Put a platform's key on the PrivRL."""
        if member_id not in self._platforms:
            raise IasError("unknown EPID member id")
        self.priv_rl.add(member_id)

    def revoke_platform(self, platform_name: str) -> None:
        """Revoke every member key registered for ``platform_name``."""
        hits = [mid for mid, name in self._platforms.items()
                if name == platform_name]
        if not hits:
            raise IasError(f"no registered platform named {platform_name!r}")
        for member_id in hits:
            self.priv_rl.add(member_id)

    def revoke_quote_signature(self, quote: Quote) -> None:
        """Put a specific quote's signature on the SigRL."""
        self.sig_rl.add(quote.signature())

    def revoke_group(self) -> None:
        """Revoke the whole group (catastrophic compromise)."""
        self.group_revoked = True

    # ---------------------------------------------------------- verification

    def verify_quote(self, quote_bytes: bytes,
                     nonce: str = "") -> AttestationVerificationReport:
        """Verify a quote and return the signed verdict.

        Raises:
            QuoteError: ``quote_bytes`` is not a well-formed quote.
        """
        index = LinearRevocationIndex(self.group, self.priv_rl, self.sig_rl)
        return self._verify(quote_bytes, nonce, index)

    def verify_quotes(self, batch: Sequence[Tuple[bytes, str]]
                      ) -> List[AttestationVerificationReport]:
        """Verify a batch of ``(quote_bytes, nonce)`` with one amortized
        revocation-list scan.

        Verdicts and AVR bytes are identical to calling
        :meth:`verify_quote` once per entry in the same order; only the
        modelled scan cost (``rl_entries_scanned``) drops from
        O(B x |RL|) to O(|RL| + B).
        """
        if not batch:
            return []
        index = BatchedRevocationIndex(self.group, self.priv_rl, self.sig_rl)
        reports = [self._verify(quote_bytes, nonce, index)
                   for quote_bytes, nonce in batch]
        self.rl_entries_scanned += index.build_scans
        return reports

    def _verify(self, quote_bytes: bytes, nonce: str,
                index) -> AttestationVerificationReport:
        self.quotes_verified += 1
        quote = Quote.from_bytes(quote_bytes)
        status, scanned = quote_status(quote, self.group, index,
                                       self.group_revoked, self.min_qe_svn)
        self.rl_entries_scanned += scanned
        if self._telemetry is not None:
            self._telemetry.ias_verdicts.labels(status=status).inc()
        self._report_counter += 1
        return sign_report(
            self._report_key,
            report_id=f"avr-{self._report_counter:08d}",
            timestamp=int(self._now()),
            quote_status=status,
            quote_body_hex=quote.body_bytes().hex(),
            nonce=nonce,
        )

    def raise_tcb_floor(self, min_qe_svn: int) -> None:
        """TCB recovery: demand a quoting-enclave SVN of at least
        ``min_qe_svn`` from now on."""
        self.min_qe_svn = min_qe_svn
