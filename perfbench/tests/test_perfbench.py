"""The benchmark's own tests: tracer coverage, layer predictions, output
determinism, and refusal to run without the program.

Run from the repository root (under a minute)::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro  # noqa: E402
from perfbench import run, tracer as tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.containers.host import DEFAULT_OS_FILES  # noqa: E402

SEED = run.DEFAULT_SEED


def _import_all_repro_modules() -> None:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


# ------------------------------------------------------------ tracer wiring


@pytest.mark.parametrize("path", tracing.all_paths())
def test_every_traced_target_resolves_to_a_public_callable(path):
    owner, attribute, original = tracing.resolve(path)
    assert callable(original)
    assert attribute == "__init__" or not attribute.startswith("_"), (
        f"{path} is not a public function or method")


def test_names_imported_by_name_are_patched_everywhere():
    _import_all_repro_modules()
    module_functions = {}
    for paths in tracing.LAYERS.values():
        for path in paths:
            owner, attribute, original = tracing.resolve(path)
            if not isinstance(owner, type):
                module_functions[path] = original
    bound_elsewhere = [
        (name, attr) for name, module in sys.modules.items()
        if name.startswith("repro.")
        for attr, value in vars(module).items()
        if any(value is fn for fn in module_functions.values())
        and value.__module__ != name]
    assert bound_elsewhere, "expected some targets imported by name"

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, module in sys.modules.items():
            if not name.startswith("repro."):
                continue
            for attr, value in vars(module).items():
                for path, fn in module_functions.items():
                    assert value is not fn, (
                        f"{name}.{attr} still binds the untraced {path}")
    finally:
        tracer.uninstall()
    for path, fn in module_functions.items():
        assert tracing.resolve(path)[2] is fn, f"{path} was not restored"


def test_callbacks_are_charged_to_the_layer_that_defined_them():
    from repro.net.rest import HttpParser
    from repro.sdn.northbound import NorthboundEndpoint

    assert tracing.callback_bucket(
        NorthboundEndpoint._route) == "sdn.northbound"
    assert tracing.callback_bucket(HttpParser.feed) == "net"


# ------------------------------------------------------- per-layer results


@pytest.fixture(scope="module")
def traced():
    """One short traced run of every workload, in this process."""
    return {name: run.run_workload(name, SEED, 0.5, trace=True)
            for name in WORKLOADS}


def _metric(record, name):
    return record["metrics"][name][0]


def test_traced_runs_are_correct_and_report_every_metric(traced):
    names = None
    for name, record in traced.items():
        for phase in record["phases"]:
            assert phase.failed == 0, phase.errors[:1]
        assert record["mismatch"] is None
        if names is None:
            names = set(record["metrics"])
        assert set(record["metrics"]) == names, name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {metric["name"] for metric in spec["per_layer"]} == names


#: Layer counters the table in ``perfbench/README.md`` predicts heavy on
#: each workload.
HEAVY = {
    "enroll": ["crypto.ec.calls", "crypto.ecdsa.verifies",
               "crypto.gcm.setups", "crypto.hmac.calls",
               "pki.chain.validations", "pki.ca.self_ms",
               "tls.handshake.full", "sgx.ecalls", "sgx.quotes",
               "ias.verifications", "net.messages", "sim.hop.ias_ms",
               "sim.hop.host_agent_ms", "sim.hop.controller_ms"],
    "ratls": ["crypto.ec.calls", "crypto.ecdsa.verifies",
              "tls.ratls.validations", "tls.ratls.self_ms",
              "ias.verifications", "sim.hop.ias_ms"],
    "fleet": ["crypto.sha256.kib", "pki.der.calls", "ima.self_ms",
              "core.appraisal.self_ms", "core.fleet.worker_busy_ratio",
              "core.fleet.ias_connects", "obs.spans", "obs.self_ms",
              "sim.appraisal_ms"],
    "northbound": ["crypto.gcm.kib", "crypto.gcm.bulk_self_ms",
                   "tls.record.kib", "tls.handshake.resumed",
                   "sdn.northbound.requests", "sdn.northbound.self_ms",
                   "sim.hop.controller_ms"],
}


@pytest.mark.parametrize("workload", sorted(HEAVY))
def test_layers_predicted_heavy_are_nonzero(traced, workload):
    for name in HEAVY[workload]:
        assert _metric(traced[workload], name) > 0, f"{workload}: {name}"
    assert _metric(traced[workload], "trace.coverage_ratio") > 0.9


def test_layers_predicted_bypassed_are_zero(traced):
    for name, record in traced.items():
        if name != "ratls":
            assert _metric(record, "tls.ratls.validations") == 0, name
            assert _metric(record, "tls.ratls.self_ms") == 0, name
        if name != "fleet":
            for metric in ("obs.spans", "obs.self_ms",
                           "core.fleet.worker_busy_ratio",
                           "core.fleet.ias_connects", "core.fleet.wait_ms"):
                assert _metric(record, metric) == 0, (name, metric)
    northbound = traced["northbound"]
    for metric in ("crypto.ec.calls", "crypto.ecdsa.verifies",
                   "ias.verifications", "ima.entries", "pki.der.calls"):
        assert _metric(northbound, metric) == 0, metric
    # The default IML: the OS files plus the boot aggregate, once per op.
    assert _metric(traced["enroll"], "ima.entries") == len(
        DEFAULT_OS_FILES) + 1


def test_simulated_time_adds_up(traced):
    for name, record in traced.items():
        sim = record["phases"][1].sims
        per_op = sum(sim) / len(sim) * 1e3
        hops = sum(_metric(record, f"sim.hop.{hop}_ms")
                   for hop in run.HOP_NAMES)
        ledger = sum(_metric(record, metric) for metric in (
            "sim.network_ms", "sim.enclave_ms", "sim.appraisal_ms",
            "sim.other_ms"))
        assert hops == pytest.approx(per_op, rel=1e-9), name
        assert ledger == pytest.approx(per_op, rel=1e-9), name
        assert _metric(record, "sim.hop.local_ms") >= -1e-9, name


# ------------------------------------------------------------ determinism


def test_one_seed_gives_identical_outputs_and_simulated_time():
    first = run.run_workload("northbound", SEED, 0.1, trace=False)
    second = run.run_workload("northbound", SEED, 0.1, trace=False)
    other = run.run_workload("northbound", run.HELDOUT_SEED, 0.1,
                             trace=False)
    assert first["digest"] == second["digest"]
    assert (first["metrics"]["sim_ms_per_op"]
            == second["metrics"]["sim_ms_per_op"])
    assert other["digest"] != first["digest"]


# ------------------------------------------------------------ host speed


def test_host_speed_scales_by_the_probe_and_not_with_threads_alive():
    reference = run.PROBE_REFERENCE_S
    assert run.host_speed(2 * reference, 2 * reference) == 0.5
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert run.host_speed(2 * reference, 2 * reference) == 1.0
    finally:
        stop.set()
        worker.join(timeout=5)
    assert not worker.is_alive()


# ------------------------------------------------------------ command line


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enroll",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
