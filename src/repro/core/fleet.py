"""Fleet-scale concurrent enrollment: a worker-pool scheduler.

The paper enrolls two VNFs; an operator enrolls hundreds.  Driving
:class:`~repro.core.enrollment.EnrollmentSession` serially repeats two
expensive steps once *per VNF* that a fleet only needs once *per run*:

- **host attestation** — every serial enrollment re-attests the VNF's
  container host (fresh nonce, fresh quote, full IAS round trip, full
  IML appraisal).  The fleet scheduler attests each distinct host
  exactly once (*single-flight*: the first worker that needs a host
  attests it while holding that host's lock; everyone else waits and
  reuses the verdict);
- **the IAS connection** — :class:`~repro.ias.api.IasClient` dials and
  TLS-handshakes per verification.  :class:`PooledIasClient` keeps one
  persistent connection and pipelines report requests over it,
  serializing whole exchanges under a lock as
  :mod:`repro.net.channel`'s sharing rule requires.

Determinism: pooled and serial runs must issue **byte-identical
credentials** (experiment E12 asserts this).  Three mechanisms make the
result independent of worker interleaving:

1. certificate serials are *reserved in submission order* via
   :meth:`~repro.pki.ca.CertificateAuthority.reserve_serial` before any
   worker starts;
2. each VNF's key material comes from a dedicated per-VNF DRBG
   (:meth:`~repro.core.verification_manager.VerificationManager.
   _credential_rng`), so key bits never depend on how other
   enrollments interleaved draws on the shared RNG;
3. ECDSA signatures are RFC 6979 deterministic.

Each worker runs the deployment's one per-VNF routine, the same one
:meth:`~repro.core.workflow.Deployment.run_workflow` runs, with the host
already attested, and the run returns the same
:class:`~repro.core.workflow.WorkflowTrace`: one failed VNF is recorded
in it and the fleet run continues.  Locking rules for everything the
workers share are catalogued in ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Sequence

from repro.analysis.sanitizer import make_lock, make_rlock
from repro.core.enrollment import HOST_ATTESTATION_STEP, StepTiming
from repro.core.workflow import FleetResult, WorkflowTrace
from repro.errors import ChannelClosed, NetError, ReproError, VnfSgxError
from repro.ias.api import IasClient
from repro.net.retry import RetryPolicy


class PooledIasClient(IasClient):
    """An :class:`IasClient` that keeps one persistent connection.

    The base client dials IAS and runs a full TLS handshake for every
    quote; a fleet of N VNFs on H hosts performs N + H verifications, so
    the handshake tax dominates.  This subclass opens the connection
    once, pipelines report requests over it (the IAS server's parser
    loop already answers back-to-back requests on one connection), and
    transparently reconnects when the transport faults mid-exchange so
    the retry layer sees exactly the usual transient errors.

    Thread-safe: the pooled connection is a lockstep request/response
    rail, so whole exchanges serialize under ``_pool_lock`` — the
    sharing rule from :mod:`repro.net.channel`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pooled_conn = None
        self._pool_lock = make_rlock("ias_pool")
        #: Exchanges served over a reused connection (telemetry for E12).
        self.reused_exchanges = 0
        #: Connections (re-)established, including the first.
        self.connects = 0

    # ----------------------------------------------- pooled connection

    def _verify_once(self, quote_bytes, nonce):
        """One report exchange on the pooled connection.

        On a transport fault over a *reused* connection, the connection
        may simply have gone stale since the last exchange — retry once
        on a fresh handshake within this same attempt, so the error
        that ultimately reaches the retry layer (and, once the retry
        deadline is exhausted, the caller) is the underlying
        :class:`~repro.errors.IasError`, not the stale transport's
        ``ChannelClosed``.  A fault on a *fresh* connection is genuine
        and propagates for the retry layer's backoff.
        """
        with self._pool_lock:
            reused = self._pooled_conn is not None
            if reused:
                self.reused_exchanges += 1
            else:
                self._pooled_conn = self._open_connection()
                self.connects += 1
            try:
                return self._exchange_on(self._pooled_conn, quote_bytes,
                                         nonce)
            except (NetError, ChannelClosed):
                self.close()
                if not reused:
                    raise
                self._pooled_conn = self._open_connection()
                self.connects += 1
                try:
                    return self._exchange_on(self._pooled_conn, quote_bytes,
                                             nonce)
                except (NetError, ChannelClosed):
                    self.close()
                    raise

    def close(self) -> None:
        """Tear down the pooled connection (idempotent)."""
        with self._pool_lock:
            conn = self._pooled_conn
            self._pooled_conn = None
            if conn is not None:
                # Best-effort: a dropped channel cannot block teardown.
                with contextlib.suppress(NetError, ChannelClosed):
                    conn.close()


class FleetScheduler:
    """Drives N enrollments across a bounded worker pool.

    Args:
        deployment: a wired :class:`~repro.core.workflow.Deployment`.
        workers: pool width (bounded concurrency).
        retry_policy: per-VNF step retry/deadline budget; defaults to
            the deployment's configured policy.
    """

    def __init__(self, deployment, workers: int = 4,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if workers < 1:
            raise VnfSgxError("fleet needs at least one worker")
        self.deployment = deployment
        self.workers = workers
        self.retry_policy = (retry_policy if retry_policy is not None
                             else deployment.retry_policy)
        self._host_locks: Dict[str, threading.Lock] = {}
        self._host_errors: Dict[str, Optional[str]] = {}
        self._report: Optional[WorkflowTrace] = None

    # ------------------------------------------------------------ internals

    def _ensure_host_attested(self, host_name: str) -> StepTiming:
        """Single-flight host attestation.

        The first worker that needs ``host_name`` attests it under the
        host's lock; later workers (and later VNFs on the same host)
        block on the lock, then reuse the verdict.  A host that *failed*
        attestation fails every VNF scheduled on it — the same outcome
        the serial loop reaches one enrollment at a time.
        """
        dep = self.deployment
        lock = self._host_locks[host_name]
        with lock:
            if host_name in self._host_errors:
                error = self._host_errors[host_name]
                if error is not None:
                    raise VnfSgxError(
                        f"host {host_name} failed fleet attestation: {error}"
                    )
                return self._report.host_attestations[host_name]
            sim_start = dep.clock.local_seconds()
            wall_start = time.perf_counter()
            try:
                result = dep.vm.attest_host(
                    dep.agent_clients[host_name], host_name
                )
                result.raise_if_failed(host_name)
            except ReproError as exc:
                self._host_errors[host_name] = (
                    f"{type(exc).__name__}: {exc}"
                )
                raise
            timing = StepTiming(
                step=HOST_ATTESTATION_STEP,
                simulated_seconds=dep.clock.local_seconds() - sim_start,
                wall_seconds=time.perf_counter() - wall_start,
            )
            self._host_errors[host_name] = None
            self._report.host_attestations[host_name] = timing
            return timing

    def _enroll_one(self, vnf_name: str, serial: int) -> FleetResult:
        dep = self.deployment

        def enroll():
            self._ensure_host_attested(dep.vnf_host[vnf_name].name)
            return dep._enroll_vnf(vnf_name, serial, host_attested=True,
                                   retry_policy=self.retry_policy)

        return dep._enrollment_result(vnf_name, enroll)

    # -------------------------------------------------------------- running

    def enroll(self, vnf_names: Optional[Sequence[str]] = None
               ) -> WorkflowTrace:
        """Enroll ``vnf_names`` (default: every VNF) across the pool.

        Returns a :class:`~repro.core.workflow.WorkflowTrace`; failures
        are recorded per VNF, never raised (partial-failure semantics).
        """
        dep = self.deployment
        names = list(vnf_names if vnf_names is not None else dep.vnf_names)
        unknown = [name for name in names if name not in dep.vnf_host]
        if unknown:
            raise VnfSgxError(f"unknown VNFs: {', '.join(unknown)}")
        if len(set(names)) != len(names):
            raise VnfSgxError("duplicate VNF names in fleet submission")

        report = self._report = WorkflowTrace(workers=self.workers)
        self._host_locks = {
            dep.vnf_host[name].name: make_lock("host") for name in names
        }
        self._host_errors = {}

        # Reserve serials in submission order *before* dispatch: the
        # certificate each VNF receives is then independent of worker
        # interleaving and identical to a serial loop's.
        serials = [dep.vm.ca.reserve_serial() for _ in names]

        pooled = dep._ias_pool(self.retry_policy)
        previous_ias = dep.vm.swap_ias_client(pooled)
        with dep._measuring(report):
            try:
                with ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix="fleet") as pool:
                    for outcome in pool.map(self._enroll_one, names,
                                            serials):
                        report.results[outcome.vnf_name] = outcome
            finally:
                dep.vm.swap_ias_client(previous_ias)
                report.ias_connects = pooled.connects
                report.ias_reused_exchanges = pooled.reused_exchanges
                pooled.close()
        return report
