"""The metric table in docs/OBSERVABILITY.md is the catalogue of the code.

Every ``M_*`` name in :mod:`repro.obs.metrics` has exactly one row, and
every row names a registered metric with the documented type and labels.
The ``vnf_sgx_ec_ops`` row lists every ``op`` the EC engine counts.
"""

import re
from pathlib import Path

from repro.crypto.ec import P256
from repro.obs import metrics
from repro.obs.metrics import M_EC_OPS, Telemetry
from repro.obs.registry import MetricsRegistry

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
ROW = re.compile(r"^\| `(vnf_sgx_\w+)` \| (\w+) \| ([^|]*) \| ([^|]*) \|$")


def _table():
    rows = {}
    for line in DOC.read_text().splitlines():
        match = ROW.match(line)
        if match:
            name, kind, labels, meaning = match.groups()
            assert name not in rows, f"{name} documented twice"
            rows[name] = (kind, tuple(re.findall(r"`(\w+)`", labels)),
                          meaning)
    return rows


def test_documented_names_equal_the_code_names():
    code = {value for key, value in vars(metrics).items()
            if key.startswith("M_")}
    assert set(_table()) == code


def test_documented_type_and_labels_match_the_registry():
    registry = MetricsRegistry()
    Telemetry(registry)
    for name, (kind, labels, _) in _table().items():
        family = registry.get(name)
        assert family.kind == kind, name
        assert tuple(family.labelnames) == labels, name


def test_ec_ops_row_lists_every_engine_counter():
    meaning = _table()[M_EC_OPS][2]
    documented = set(re.search(r"`op` ∈ ([^|]*)", meaning).group(1)
                     .replace(" ", "").split("/"))
    assert documented == set(P256.stats.snapshot())
