"""Per-layer span tracer for the benchmark's traced run.

Nothing in ``src/`` is edited.  :class:`Tracer` wraps the public entry
points of each layer (the :data:`LAYERS` table) while it is installed,
and attributes wall time to layers by *self time*: a span's duration
minus the part its child spans cover.  Spans are only recorded inside an
op (:meth:`Tracer.op`), on the op's thread and on any worker thread the
op starts; set-up, input preparation and output checks stay unrecorded.

Three kinds of patch are applied:

- **Layer entry points** (:data:`LAYERS`): module functions are re-bound
  in every ``repro.*`` module that imported them by name (so
  ``from repro.crypto.ecdsa import ecdsa_verify`` in ``repro.crypto.keys``
  is traced as well as ``repro.crypto.ecdsa.ecdsa_verify``); methods are
  replaced on their class.
- **Callback registrars** (:data:`CALLBACK_REGISTRARS`): the simulated
  network delivers bytes synchronously, so a server's handler runs
  *inside* the client's ``Channel.send``.  Handlers registered through
  ``Channel.on_receive``, ``TlsConnection.on_app_data`` and
  ``RestServer.route`` are wrapped in a span of the layer that defined
  them, so server work is not charged to the network layer.
- **Client hops** (:data:`HOPS`): virtual-clock advance and messages are
  attributed to the client call that caused them (IAS client, host-agent
  client, enclave controller client), measured from outside through
  ``VirtualClock.local_seconds``.

Install the tracer *before* building the deployment it should observe:
some components store bound methods (``client_validator=verifier.validate``)
when they are constructed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Layer self-time buckets and the public functions/methods that enter
#: them, as ``"module:qualname"``.  A call made while the innermost span
#: is already in the same bucket opens no span (its time is that bucket's
#: anyway), which keeps recursive and chained calls cheap.
LAYERS: Dict[str, List[str]] = {
    "crypto.ec": [
        "repro.crypto.ec:_Curve.multiply",
        "repro.crypto.ec:_Curve.multiply_generator",
        "repro.crypto.ec:_Curve.multiply_point",
        "repro.crypto.ec:_Curve.multiply_dual",
        "repro.crypto.ec:_Curve.decode_point",
        "repro.crypto.ec:_Curve.validate_public",
        "repro.crypto.ecdh:ecdh_shared_secret",
    ],
    "crypto.ecdsa": [
        "repro.crypto.ecdsa:ecdsa_sign",
        "repro.crypto.ecdsa:ecdsa_verify",
    ],
    "crypto.gcm.setup": ["repro.crypto.gcm:AesGcm.__init__"],
    "crypto.gcm.bulk": [
        "repro.crypto.gcm:AesGcm.encrypt",
        "repro.crypto.gcm:AesGcm.decrypt",
    ],
    "crypto.hmac": [
        "repro.crypto.hmac:HmacSha256.__init__",
        "repro.crypto.hmac:HmacSha256.update",
        "repro.crypto.hmac:HmacSha256.digest",
        "repro.crypto.hmac:HmacSha256.copy",
        "repro.crypto.hmac:hmac_sha256",
    ],
    "crypto.sha256": [
        "repro.crypto.sha256:SHA256.__init__",
        "repro.crypto.sha256:SHA256.update",
        "repro.crypto.sha256:SHA256.digest",
        "repro.crypto.sha256:sha256",
    ],
    "crypto.rng": [
        "repro.crypto.rng:HmacDrbg.random_bytes",
        "repro.crypto.rng:HmacDrbg.random_scalar",
    ],
    "pki.der": [
        "repro.pki.der:encode",
        "repro.pki.der:decode",
    ],
    "pki.certificate": [
        "repro.pki.certificate:Certificate.from_bytes",
        "repro.pki.certificate:Certificate.to_bytes",
        "repro.pki.certificate:Certificate.verify_signature",
    ],
    "pki.chain": ["repro.pki.chain:validate_chain"],
    "pki.ca": [
        "repro.pki.ca:CertificateAuthority.issue",
        "repro.pki.ca:CertificateAuthority.issue_from_csr",
        "repro.pki.ca:CertificateAuthority.current_crl",
    ],
    "tls.handshake": [
        "repro.tls.client:TlsClient.connect",
        "repro.tls.server:TlsServer.accept",
    ],
    "tls.record": [
        "repro.tls.record:RecordLayer.encode",
        "repro.tls.record:RecordLayer.feed",
        "repro.tls.connection:TlsConnection.send",
        "repro.tls.connection:TlsConnection.deliver",
    ],
    "tls.ratls": [
        "repro.tls.ratls:RatlsVerifier.validate",
        "repro.tls.ratls:RatlsVerifier.resumable",
        "repro.tls.ratls:build_ratls_certificate",
        "repro.tls.ratls:quote_from_certificate",
    ],
    "net": [
        "repro.net.simnet:Network.connect",
        "repro.net.channel:Channel.send",
        "repro.net.channel:Channel.recv_available",
        "repro.net.channel:Channel.recv_exactly",
        "repro.net.channel:Channel.recv_line",
        "repro.net.channel:Channel.close",
    ],
    "net.rest": [
        "repro.net.rest:HttpRequest.encode",
        "repro.net.rest:HttpResponse.encode",
        "repro.net.rest:HttpParser.feed",
        "repro.net.rest:RestServer.dispatch",
    ],
    "sgx": [
        "repro.sgx.enclave:Enclave.ecall",
        "repro.sgx.quote:QuotingEnclave.generate",
    ],
    "ima": [
        "repro.ima.iml:MeasurementList.to_bytes",
        "repro.ima.iml:MeasurementList.from_bytes",
        "repro.ima.iml:MeasurementList.compute_aggregate",
    ],
    "core.appraisal": ["repro.core.appraisal:AppraisalEngine.appraise"],
    "ias": [
        "repro.ias.api:IasClient.verify_quote",
        "repro.ias.service:IasService.verify_quote",
        "repro.ias.service:IasService.verify_quotes",
        "repro.ias.report:AttestationVerificationReport.verify",
    ],
    "core.verification_cache": [
        "repro.core.verification_cache:VerificationCache.lookup",
        "repro.core.verification_cache:VerificationCache.store",
    ],
    "core.vm": [
        "repro.core.verification_manager:VerificationManager.attest_host",
        "repro.core.verification_manager:VerificationManager.attest_vnf",
        "repro.core.verification_manager:VerificationManager.enroll_vnf",
        "repro.core.verification_manager:"
        "VerificationManager.verify_ratls_evidence",
    ],
    "core.enrollment": [
        "repro.core.enrollment:EnrollmentSession.attest_host",
        "repro.core.enrollment:EnrollmentSession.provision",
        "repro.core.enrollment:EnrollmentSession.connect",
        "repro.core.ratls_enrollment:RatlsEnrollmentSession.prepare",
        "repro.core.ratls_enrollment:RatlsEnrollmentSession.connect",
    ],
    "core.provisioning": [
        "repro.core.provisioning:encrypt_bundle",
        "repro.core.provisioning:decrypt_bundle",
    ],
    "core.host_agent": [
        "repro.core.host_agent:HostAgentClient.attest_host",
        "repro.core.host_agent:HostAgentClient.begin_provisioning",
        "repro.core.host_agent:HostAgentClient.quote_vnf",
        "repro.core.host_agent:HostAgentClient.complete_provisioning",
        "repro.core.host_agent:HostAgentClient.generate_csr",
        "repro.core.host_agent:HostAgentClient.install_certificate",
    ],
    "core.credential_enclave": [
        "repro.core.credential_enclave:EnclaveBackedClient.request_json",
        "repro.core.credential_enclave:EnclaveBackedClient.close",
    ],
    "core.fleet": [
        "repro.core.fleet:FleetScheduler.enroll",
        "repro.core.fleet:PooledIasClient.verify_quote",
    ],
    # The op thread blocked on a fleet worker's result: not work, so it is
    # excluded from coverage (worker threads record the work itself).
    "core.fleet.wait": ["concurrent.futures._base:Future.result"],
    # Northbound request handling: the endpoint's handlers arrive as
    # registered callbacks; these are the controller calls they make.
    "sdn.northbound": [
        "repro.sdn.controller:FloodlightController.push_flow",
        "repro.sdn.controller:FloodlightController.delete_flow",
        "repro.sdn.controller:FloodlightController.static_flows",
        "repro.sdn.controller:FloodlightController.summary",
    ],
    "obs": [
        "repro.obs.metrics:Telemetry.span",
        "repro.obs.metrics:Telemetry.observe_audit",
        "repro.obs.metrics:Telemetry.observe_handshake",
        "repro.obs.tracing:Tracer.start_span",
        "repro.obs.tracing:Tracer.end_span",
        "repro.obs.registry:MetricFamily.labels",
        "repro.obs.registry:Counter.inc",
        "repro.obs.registry:CounterChild.inc",
        "repro.obs.registry:Gauge.set",
        "repro.obs.registry:GaugeChild.set",
        "repro.obs.registry:Histogram.observe",
        "repro.obs.registry:HistogramChild.observe",
    ],
}

#: Counters bumped once per call, except a call made inside a span that
#: bumps the same counter (``decode_point`` validating the point it
#: decodes is one EC call).
COUNTS: Dict[str, str] = {
    "repro.crypto.ec:_Curve.multiply": "crypto.ec.calls",
    "repro.crypto.ec:_Curve.multiply_generator": "crypto.ec.calls",
    "repro.crypto.ec:_Curve.multiply_point": "crypto.ec.calls",
    "repro.crypto.ec:_Curve.multiply_dual": "crypto.ec.calls",
    "repro.crypto.ec:_Curve.decode_point": "crypto.ec.calls",
    "repro.crypto.ec:_Curve.validate_public": "crypto.ec.calls",
    "repro.crypto.ecdh:ecdh_shared_secret": "crypto.ec.calls",
    "repro.crypto.ecdsa:ecdsa_verify": "crypto.ecdsa.verifies",
    "repro.crypto.gcm:AesGcm.__init__": "crypto.gcm.setups",
    "repro.crypto.hmac:HmacSha256.__init__": "crypto.hmac.calls",
    "repro.crypto.hmac:hmac_sha256": "crypto.hmac.calls",
    "repro.pki.der:encode": "pki.der.calls",
    "repro.pki.der:decode": "pki.der.calls",
    "repro.pki.chain:validate_chain": "pki.chain.validations",
    "repro.tls.ratls:RatlsVerifier.validate": "tls.ratls.validations",
    "repro.sgx.enclave:Enclave.ecall": "sgx.ecalls",
    "repro.sgx.quote:QuotingEnclave.generate": "sgx.quotes",
    "repro.ias.service:IasService.verify_quote": "ias.verifications",
    "repro.obs.tracing:Tracer.start_span": "obs.spans",
}


def _arg(index: int, name: str, default=None):
    def pick(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(name,
                                                                default)
    return pick


def _length(index: int, name: str):
    pick = _arg(index, name)
    return lambda args, kwargs: len(pick(args, kwargs))


#: Volume counters: metric and the amount added on every call, nested or
#: not (bytes of the named argument; entries of a serialized IML).
SIZES: Dict[str, tuple] = {
    "repro.crypto.sha256:SHA256.update": ("crypto.sha256.bytes",
                                          _length(1, "data")),
    "repro.crypto.gcm:AesGcm.encrypt": ("crypto.gcm.bytes",
                                        _length(2, "plaintext")),
    "repro.crypto.gcm:AesGcm.decrypt": ("crypto.gcm.bytes",
                                        _length(2, "data")),
    "repro.tls.record:RecordLayer.encode": ("tls.record.bytes",
                                            _length(2, "payload")),
    "repro.net.channel:Channel.send": ("net.bytes", _length(1, "data")),
    "repro.ima.iml:MeasurementList.to_bytes": ("ima.entries",
                                               _length(0, "self")),
}

_VERIFY_KEY = _arg(0, "public_key")
_VERIFY_MESSAGE = _arg(1, "message")
_VERIFY_SIGNATURE = _arg(2, "signature")
_CHAIN_LEAF = _arg(0, "leaf")
_CHAIN_INTERMEDIATES = _arg(3, "intermediates", ())


def _verify_input(args, kwargs) -> bytes:
    return repr((tuple(_VERIFY_KEY(args, kwargs)),
                 bytes(_VERIFY_MESSAGE(args, kwargs)),
                 tuple(_VERIFY_SIGNATURE(args, kwargs)))).encode()


def _chain_input(args, kwargs) -> bytes:
    return b"".join([_CHAIN_LEAF(args, kwargs).to_bytes()] + [
        cert.to_bytes() for cert in _CHAIN_INTERMEDIATES(args, kwargs)])


#: Calls whose inputs are hashed, so that the run can report how many of
#: the calls its counter counts repeat an earlier input.
REPEATS: Dict[str, Callable] = {
    "repro.crypto.ecdsa:ecdsa_verify": _verify_input,
    "repro.pki.chain:validate_chain": _chain_input,
}

#: Client calls that own the virtual-clock advance they cause.  The
#: innermost hop wins (an IAS call made while serving a controller request
#: is an IAS hop); advance outside every hop is ``local``.
HOPS: Dict[str, str] = {
    "repro.ias.api:IasClient.verify_quote": "ias",
    "repro.core.fleet:PooledIasClient.verify_quote": "ias",
    "repro.core.credential_enclave:EnclaveBackedClient.request_json":
        "controller",
    "repro.core.credential_enclave:EnclaveBackedClient.close": "controller",
}
HOPS.update({path: "host_agent" for path in LAYERS["core.host_agent"]})

#: Methods that register a callback, and the callback's argument index.
CALLBACK_REGISTRARS: Dict[str, int] = {
    "repro.net.channel:Channel.on_receive": 1,
    "repro.tls.connection:TlsConnection.on_app_data": 1,
    "repro.net.rest:RestServer.route": 3,
}

#: Buckets for registered callbacks, by the module that defined them.
CALLBACK_BUCKETS = (
    ("repro.sdn.", "sdn.northbound"),
    ("repro.ias.", "ias"),
    ("repro.core.host_agent", "core.host_agent"),
    ("repro.obs.", "obs"),
    ("repro.net.", "net"),
)

#: Virtual-clock advance, recorded per account (the simulated ledger).
CLOCK_ADVANCE = "repro.net.clock:VirtualClock.advance"
_ADVANCE_SECONDS = _arg(1, "seconds")
_ADVANCE_ACCOUNT = _arg(2, "account", "other")

#: Buckets whose time is not work on the op's behalf.
EXCLUDED_BUCKETS = ("core.fleet.wait",)
#: The op root's own self time: code outside every traced layer.
OTHER = "other"


def callback_bucket(handler: Callable) -> str:
    """The layer a registered callback's own code belongs to."""
    module = getattr(handler, "__module__", None) or ""
    qualname = getattr(handler, "__qualname__", "")
    if module.startswith("repro.tls."):
        return "tls.handshake" if "Handshake" in qualname else "tls.record"
    for prefix, bucket in CALLBACK_BUCKETS:
        if module.startswith(prefix):
            return bucket
    return module.replace("repro.", "", 1) or OTHER


def resolve(path: str):
    """``(owner, attribute, original)`` for a ``"module:qualname"`` path.

    ``owner`` is the class (for methods) or the module (for functions).
    Raises ``LookupError`` when the target no longer exists.
    """
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{path}: {exc}") from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{path}: no {part!r}")
    attribute = parts[-1]
    if isinstance(owner, type):
        original = None
        for klass in owner.__mro__:
            if attribute in vars(klass):
                original = vars(klass)[attribute]
                break
    else:
        original = vars(owner).get(attribute)
    if isinstance(original, (staticmethod, classmethod)):
        original = original.__func__
    if not callable(original):
        raise LookupError(f"{path}: not a function or method")
    return owner, attribute, original


def all_paths() -> List[str]:
    """Every patched path: layer entry points, callback registrars and
    the clock ledger."""
    return [path for paths in LAYERS.values() for path in paths] + list(
        CALLBACK_REGISTRARS) + [CLOCK_ADVANCE]


class _Frame:
    __slots__ = ("bucket", "count", "child_ns")

    def __init__(self, bucket: str, count: Optional[str]) -> None:
        self.bucket = bucket
        self.count = count
        self.child_ns = 0


class _ThreadState:
    """One thread's span stack and accumulators (merged after a phase)."""

    def __init__(self, is_op_thread: bool) -> None:
        self.is_op_thread = is_op_thread
        self.stack: List[_Frame] = []
        self.hops: List[list] = []       # [hop, start_local, child_sim]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.hop_sim: Dict[str, float] = defaultdict(float)
        self.sim_accounts: Dict[str, float] = defaultdict(float)
        self.root_ns = 0


class Tracer:
    """Installs the layer wrappers and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.recording = False
        self.clock = None  # the observed deployment's VirtualClock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._op_thread: Optional[int] = None
        self._restore: List[tuple] = []
        self._seen_inputs: Dict[str, set] = defaultdict(set)
        self.repeats: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------ state

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident() == self._op_thread)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        """Zero every accumulator (the patches stay installed)."""
        with self._lock:
            for state in self._states:
                state.self_ns.clear()
                state.counts.clear()
                state.hop_sim.clear()
                state.sim_accounts.clear()
                state.root_ns = 0
            self._seen_inputs.clear()
            self.repeats.clear()

    def totals(self) -> dict:
        """Merged accumulators of every thread since the last reset."""
        self_ns: Dict[str, int] = defaultdict(int)
        counts: Dict[str, float] = defaultdict(float)
        hop_sim: Dict[str, float] = defaultdict(float)
        sim_accounts: Dict[str, float] = defaultdict(float)
        worker_root_ns = 0
        with self._lock:
            for state in self._states:
                for key, value in state.self_ns.items():
                    self_ns[key] += value
                for key, value in state.counts.items():
                    counts[key] += value
                for key, value in state.hop_sim.items():
                    hop_sim[key] += value
                for key, value in state.sim_accounts.items():
                    sim_accounts[key] += value
                if not state.is_op_thread:
                    worker_root_ns += state.root_ns
            repeats = dict(self.repeats)
        return {"self_ns": dict(self_ns), "counts": dict(counts),
                "hop_sim": dict(hop_sim), "sim_accounts": dict(sim_accounts),
                "worker_root_ns": worker_root_ns,
                "repeats": repeats}

    @contextmanager
    def op(self):
        """Record one op: a root span on the calling thread."""
        self._op_thread = threading.get_ident()
        state = self._state()
        state.is_op_thread = True
        frame = _Frame(OTHER, None)
        state.stack.append(frame)
        self.recording = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self.recording = False
            state.stack.pop()
            state.self_ns[OTHER] += elapsed - frame.child_ns
            state.root_ns += elapsed

    # ------------------------------------------------------------ wrappers

    def _note_input(self, metric: str, material: bytes) -> None:
        digest = hashlib.sha256(material).digest()
        with self._lock:
            seen = self._seen_inputs[metric]
            if digest in seen:
                self.repeats[metric] += 1
            else:
                seen.add(digest)

    def _wrap(self, path: Optional[str], bucket: str,
              fn: Callable) -> Callable:
        """``fn`` recording a span of ``bucket``, plus the counters, input
        hashes and hop of ``path`` (``None`` for a registered callback)."""
        tracer = self
        count = COUNTS.get(path)
        size = SIZES.get(path)
        hop = HOPS.get(path)
        repeat_input = REPEATS.get(path)
        is_connect = path == "repro.tls.client:TlsClient.connect"
        perf_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            if size is not None:
                state.counts[size[0]] += size[1](args, kwargs)
            top = stack[-1] if stack else None
            # Count entries, not a layer's calls to its own entry points.
            if count is not None and (top is None or top.count != count):
                state.counts[count] += 1
                if repeat_input is not None:
                    tracer._note_input(count, repeat_input(args, kwargs))
            if top is not None and top.bucket == bucket and hop is None:
                return fn(*args, **kwargs)
            hop_frame = None
            if hop is not None and tracer.clock is not None:
                hop_frame = [hop, tracer.clock.local_seconds(), 0.0]
                state.hops.append(hop_frame)
            frame = _Frame(bucket, count)
            stack.append(frame)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_ns() - start
                stack.pop()
                state.self_ns[bucket] += elapsed - frame.child_ns
                if stack:
                    stack[-1].child_ns += elapsed
                else:
                    state.root_ns += elapsed
                if hop_frame is not None:
                    state.hops.pop()
                    spent = tracer.clock.local_seconds() - hop_frame[1]
                    state.hop_sim[hop] += spent - hop_frame[2]
                    if state.hops:
                        state.hops[-1][2] += spent
            if is_connect:
                state.counts["tls.handshake.resumed" if result.resumed
                             else "tls.handshake.full"] += 1
            return result

        return traced

    def _wrap_advance(self, fn: Callable) -> Callable:
        """Per-account ledger of virtual-clock advance inside ops (kept
        here because the program may reset ``VirtualClock.charges``)."""
        tracer = self

        @functools.wraps(fn)
        def advance(*args, **kwargs):
            if tracer.recording:
                tracer._state().sim_accounts[_ADVANCE_ACCOUNT(
                    args, kwargs)] += _ADVANCE_SECONDS(args, kwargs)
            return fn(*args, **kwargs)

        return advance

    def _wrap_registrar(self, index: int, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def registering(*args, **kwargs):
            if len(args) > index and args[index] is not None:
                args = list(args)
                handler = args[index]
                args[index] = tracer._wrap(None, callback_bucket(handler),
                                           handler)
            return fn(*args, **kwargs)

        return registering

    # ------------------------------------------------------------ patching

    def _patch(self, path: str, make: Callable[[Callable], Callable]) -> None:
        owner, attribute, original = resolve(path)
        if isinstance(owner, type):
            raw = vars(owner).get(attribute)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(make(raw.__func__))
            else:
                wrapped = make(original)
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
            return
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")
                    or module is owner):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Apply every patch (idempotent only through :meth:`uninstall`)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for bucket, paths in LAYERS.items():
            for path in paths:
                self._patch(path, functools.partial(self._wrap, path, bucket))
        for path, index in CALLBACK_REGISTRARS.items():
            self._patch(path, functools.partial(self._wrap_registrar, index))
        self._patch(CLOCK_ADVANCE, self._wrap_advance)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        for owner, attribute, value in reversed(self._restore):
            if value is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, value)
        self._restore.clear()
