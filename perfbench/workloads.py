"""The benchmark's four workloads.

Each workload drives a :class:`repro.core.Deployment` through its public
API as a closed loop from one client: the next op starts when the last
one has returned.  Every input comes from the workload seed: the
deployment's seed bytes, the VNF, host and flow names, and the order of
operations.

A workload object has four steps, which :mod:`perfbench.run` times:

- :meth:`Workload.setup` builds the deployment, including warm-up and any
  pre-enrollment (timed as ``setup_s``);
- :meth:`Workload.prepare` makes the next op's inputs (untimed: a fresh
  VNF or host, or a client disconnect);
- :meth:`Workload.run` is the op (timed);
- :meth:`Workload.check` verifies the op's outputs (untimed) and returns
  the bytes the run's output digest covers.

A VNF here is its credential enclave, registered with its host's agent.
No container image is deployed for it, so a host's IMA measurement list
stays the size of its OS file set however many VNFs enroll.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

from repro.bench.workloads import synthetic_files
from repro.containers.host import DEFAULT_OS_FILES, ContainerHost
from repro.core import (
    AttestationEnclave,
    CredentialEnclave,
    Deployment,
    HostAgent,
    HostAgentClient,
)
from repro.crypto.ec import P256
from repro.pki.certificate import KEY_USAGE_CLIENT_AUTH
from repro.pki.chain import validate_chain
from repro.tls.ratls import (
    RatlsVerifier,
    quote_from_certificate,
    ratls_report_data,
)


class CheckFailed(Exception):
    """An op returned a wrong output."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def add_vnf(dep: Deployment, name: str, host: ContainerHost) -> None:
    """Launch a credential enclave for VNF ``name`` on ``host``."""
    enclave = CredentialEnclave(host, dep.vendor_key, dep.network, name)
    dep.agents[host.name].register_vnf(enclave)
    dep.credential_enclaves[name] = enclave
    dep.vnf_names.append(name)
    dep.vnf_host[name] = host


def add_host(dep: Deployment, name: str,
             os_files: Dict[str, bytes]) -> ContainerHost:
    """Boot, whitelist and register one more container host, wired the way
    :class:`~repro.core.Deployment` wires the hosts it builds."""
    host = ContainerHost(name, clock=dep.clock, rng=dep.rng,
                         os_files=os_files)
    host.boot()
    for path in host.filesystem.list_files():
        dep.expected_values.allow_content(path,
                                          host.filesystem.read_file(path))
    dep.ias.register_platform(host.platform)
    attestation = AttestationEnclave(host, dep.vendor_key)
    agent = HostAgent(host, attestation, dep.network)
    client = HostAgentClient(dep.network, agent.address)
    if dep.telemetry is not None:
        client.instrument(dep.telemetry)
        host.platform.accountant.instrument(dep.telemetry, platform=name)
    dep.hosts.append(host)
    dep.attestation_enclaves[name] = attestation
    dep.agents[name] = agent
    dep.agent_clients[name] = client
    return host


def reset_process_caches() -> None:
    """Drop the process-wide EC caches, so every set-up pays them cold."""
    P256.reset_point_tables()
    P256.reset_validation_cache()


def check_issued(dep: Deployment, vnf_name: str) -> bytes:
    """The VNF's CA-issued certificate, after checking that it chains to
    the Verification Manager's CA and names the VNF."""
    certificate = dep.vm.issued_certificate(vnf_name)
    validate_chain(certificate, dep.vm.controller_truststore(),
                   dep.clock.now_seconds(),
                   required_usage=KEY_USAGE_CLIENT_AUTH)
    _require(certificate.subject.common_name == vnf_name,
             f"certificate of {vnf_name} names "
             f"{certificate.subject.common_name}")
    return certificate.to_bytes()


class Workload:
    """Common input generation; subclasses define the four steps."""

    name = ""
    #: Ops at the start of the timed phase that every run completes; the
    #: output digest and the simulated-time figures cover exactly these.
    window = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.deployment_seed = self.rng.randbytes(32)
        self.stem_length = self.rng.randint(4, 10)
        self.dep: Deployment = None

    def fresh_name(self, kind: str, index: int) -> str:
        stem = "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(self.stem_length))
        return f"{kind}-{stem}-{index:05d}"

    def setup(self) -> List[bytes]:
        """Build the deployment; returns the set-up's digest parts."""
        raise NotImplementedError

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, index: int, prepared):
        raise NotImplementedError

    def check(self, index: int, prepared, result) -> List[bytes]:
        raise NotImplementedError

    def extra(self) -> Dict[str, float]:
        """Workload-side per-layer counters read from the program."""
        return {}

    def close(self) -> None:
        """Undo anything :meth:`setup` installed in the process."""


class EnrollWorkload(Workload):
    """Serial Figure-1 enrollment (steps 1-6) of fresh VNFs on one host."""

    name = "enroll"

    def setup(self) -> List[bytes]:
        self.dep = Deployment(seed=self.deployment_seed, vnf_count=0)
        warm = self.fresh_name("vnf", 0)
        add_vnf(self.dep, warm, self.dep.host)
        self.dep.enroll(warm)
        return [check_issued(self.dep, warm)]

    def prepare(self, index: int) -> str:
        name = self.fresh_name("vnf", index + 1)
        add_vnf(self.dep, name, self.dep.host)
        return name

    def run(self, index: int, name: str):
        return self.dep.enroll(name)

    def check(self, index: int, name: str, session) -> List[bytes]:
        _require(session.state == "enrolled",
                 f"{name} ended in state {session.state}")
        return [check_issued(self.dep, name)]


class _CapturedCertificates:
    """Records the certificates the RA-TLS verifier is asked to validate
    (the credential each RA-TLS enrollment presents)."""

    def __init__(self) -> None:
        self.certificates = []
        self._original = None

    def install(self) -> None:
        if self._original is not None:
            return
        original = RatlsVerifier.validate
        captured = self.certificates

        def validate(verifier, certificate):
            captured.append(certificate)
            return original(verifier, certificate)

        self._original = original
        RatlsVerifier.validate = validate

    def uninstall(self) -> None:
        if self._original is not None:
            RatlsVerifier.validate = self._original
            self._original = None


class RatlsWorkload(Workload):
    """Serial RA-TLS attested enrollment of fresh VNFs on one host."""

    name = "ratls"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.capture = _CapturedCertificates()

    def setup(self) -> List[bytes]:
        self.capture.install()
        self.dep = Deployment(seed=self.deployment_seed, vnf_count=0)
        self.dep.build_ratls()
        warm = self.fresh_name("vnf", 0)
        add_vnf(self.dep, warm, self.dep.host)
        self.dep.enroll_ratls(warm)
        return [self._check_presented(warm)]

    def close(self) -> None:
        self.capture.uninstall()

    def prepare(self, index: int) -> str:
        name = self.fresh_name("vnf", index + 1)
        add_vnf(self.dep, name, self.dep.host)
        return name

    def run(self, index: int, name: str):
        return self.dep.enroll_ratls(name)

    def _check_presented(self, name: str) -> bytes:
        """The RA-TLS certificate ``name`` presented: self-signed, naming
        the VNF, its quote binding the certificate key and measuring the
        VNF's credential enclave, and accepted by the verifier."""
        _require(len(self.capture.certificates) == 1,
                 f"{name}: {len(self.capture.certificates)} RA-TLS "
                 "validations, expected 1")
        certificate = self.capture.certificates.pop()
        _require(certificate.subject.common_name == name,
                 f"RA-TLS certificate of {name} names "
                 f"{certificate.subject.common_name}")
        _require(certificate.is_self_signed(),
                 f"RA-TLS certificate of {name} is not self-signed")
        certificate.verify_signature(certificate.public_key)
        quote = quote_from_certificate(certificate)
        _require(quote.report_data
                 == ratls_report_data(certificate.public_key_bytes),
                 f"quote of {name} does not bind its certificate key")
        _require(quote.mrenclave
                 == self.dep.credential_enclaves[name].enclave.mrenclave,
                 f"quote of {name} measures another enclave")
        verifier = self.dep.ratls_verifier
        _require(verifier.knows_subject(name) and verifier.rejected == 0,
                 f"RA-TLS verifier did not accept {name}")
        return certificate.to_bytes()

    def check(self, index: int, name: str, session) -> List[bytes]:
        _require(session.state == "enrolled",
                 f"{name} ended in state {session.state}")
        return [self._check_presented(name)]


#: IML entries per fleet host, boot aggregate included.
FLEET_IML_ENTRIES = 2500
FLEET_VNFS_PER_HOST = 2
FLEET_WORKERS = 2


class FleetWorkload(Workload):
    """Bring-up of fresh hosts with large IMLs through the fleet
    scheduler (2 workers, pooled IAS client, telemetry on)."""

    name = "fleet"
    window = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.os_files = dict(DEFAULT_OS_FILES)
        self.os_files.update(synthetic_files(
            FLEET_IML_ENTRIES - len(DEFAULT_OS_FILES) - 1))
        self.ias_connects = 0
        self.ops = 0

    def setup(self) -> List[bytes]:
        self.dep = Deployment(seed=self.deployment_seed, vnf_count=0)
        self.dep.enable_telemetry(serve=False)
        warm = self.prepare(-1)
        report = self.run(-1, warm)
        self.ias_connects = 0
        self.ops = 0
        return self.check(-1, warm, report)

    def prepare(self, index: int) -> List[str]:
        host = add_host(self.dep, self.fresh_name("host", index + 1),
                        self.os_files)
        names = [self.fresh_name("vnf", (index + 1) * FLEET_VNFS_PER_HOST
                                 + slot)
                 for slot in range(FLEET_VNFS_PER_HOST)]
        for name in names:
            add_vnf(self.dep, name, host)
        return names

    def run(self, index: int, names: List[str]):
        return self.dep.enroll_fleet(vnf_names=names, workers=FLEET_WORKERS)

    def check(self, index: int, names: List[str], report) -> List[bytes]:
        _require(report.fully_succeeded,
                 f"fleet bring-up failed: {report.failed}")
        _require(sorted(report.results) == sorted(names),
                 "fleet report covers other VNFs")
        self.ias_connects += report.ias_connects
        self.ops += 1
        return [check_issued(self.dep, name) for name in names]

    def extra(self) -> Dict[str, float]:
        return {"core.fleet.ias_connects":
                self.ias_connects / max(1, self.ops)}

    def close(self) -> None:
        # Telemetry hooks the process-wide TLS client; detach it.
        self.dep.disable_telemetry()


NORTHBOUND_VNFS = 4
#: Standing static flows; a flow listing is then 10-20 KiB of JSON.
NORTHBOUND_FLOWS = 96
#: Every this many ops the client disconnects first, so the op pays a
#: resumed TLS handshake.
RECONNECT_EVERY = 16
SWITCHES = ("00:00:01", "00:00:02")
WRITE_SHARE, LIST_SHARE = 0.70, 0.20   # summary takes the rest


class NorthboundWorkload(Workload):
    """Steady-state controller traffic from VNFs enrolled in set-up, sent
    through their enclave clients."""

    name = "northbound"
    window = 128

    def setup(self) -> List[bytes]:
        self.dep = Deployment(seed=self.deployment_seed, vnf_count=0)
        self.vnfs = [self.fresh_name("vnf", index)
                     for index in range(NORTHBOUND_VNFS)]
        parts = []
        for name in self.vnfs:
            add_vnf(self.dep, name, self.dep.host)
            self.dep.enroll(name)
            parts.append(check_issued(self.dep, name))
        self.flows: Dict[str, dict] = {}
        self.pushed = 0
        self.next_write_is_push = True
        for index in range(NORTHBOUND_FLOWS):
            self._push(self.vnfs[index % NORTHBOUND_VNFS], self._new_flow())
        return parts

    def _new_flow(self) -> dict:
        rng = self.rng
        return {
            "switch": rng.choice(SWITCHES),
            "name": f"flow-{rng.getrandbits(40):010x}",
            "match": {"in_port": rng.randint(1, 4),
                      "eth_dst": "02:00:00:%02x:%02x:%02x" % (
                          rng.randrange(256), rng.randrange(256),
                          rng.randrange(256))},
            "actions": f"output:{rng.randint(1, 4)}",
            "priority": rng.randint(100, 999),
        }

    def _push(self, vnf: str, flow: dict) -> None:
        response = self.dep.enclave_client(vnf).push_flow(**flow)
        self.check(-1, (vnf, "push", flow), response)

    def prepare(self, index: int) -> Tuple[str, str, dict]:
        rng = self.rng
        vnf = self.vnfs[rng.randrange(NORTHBOUND_VNFS)]
        draw = rng.random()
        if draw < WRITE_SHARE:
            if self.next_write_is_push:
                kind, argument = "push", self._new_flow()
            else:
                kind, argument = "delete", rng.choice(sorted(self.flows))
            self.next_write_is_push = not self.next_write_is_push
        elif draw < WRITE_SHARE + LIST_SHARE:
            kind, argument = "list", None
        else:
            kind, argument = "summary", None
        if index % RECONNECT_EVERY == 0:
            self.dep.enclave_client(vnf).close()
        return vnf, kind, argument

    def run(self, index: int, prepared):
        vnf, kind, argument = prepared
        client = self.dep.enclave_client(vnf)
        if kind == "push":
            return client.push_flow(**argument)
        if kind == "delete":
            return client.delete_flow(argument)
        if kind == "list":
            return client.list_flows()
        return client.summary()

    def _expected_listing(self) -> dict:
        listing: Dict[str, list] = {}
        for flow in self.flows.values():
            listing.setdefault(flow["switch"], []).append({
                "name": flow["name"], "priority": flow["priority"],
                "match": flow["match"], "actions": [flow["actions"]],
                "packetsMatched": 0,
            })
        return {dpid: sorted(rules, key=lambda rule: rule["name"])
                for dpid, rules in listing.items()}

    def check(self, index: int, prepared, response) -> List[bytes]:
        vnf, kind, argument = prepared
        if kind == "push":
            _require(response == {"status": "Entry pushed", "by": vnf},
                     f"push by {vnf} answered {response}")
            self.flows[argument["name"]] = argument
            self.pushed += 1
        elif kind == "delete":
            _require(response == {"status": "Entry deleted", "by": vnf},
                     f"delete by {vnf} answered {response}")
            del self.flows[argument]
        elif kind == "list":
            listing = {dpid: sorted(rules, key=lambda rule: rule["name"])
                       for dpid, rules in response.items()}
            _require(listing == self._expected_listing(),
                     "flow listing differs from the model flow table")
        else:
            _require(response.get("flowsPushed") == self.pushed
                     and response.get("switches") == len(SWITCHES),
                     f"summary {response} disagrees with the model "
                     f"({self.pushed} pushed)")
        return [json.dumps([kind, response], sort_keys=True).encode()]


WORKLOADS = {
    workload.name: workload
    for workload in (EnrollWorkload, RatlsWorkload, FleetWorkload,
                     NorthboundWorkload)
}


def digest(parts: List[bytes]) -> str:
    """SHA-256 over length-prefixed parts."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.hexdigest()
