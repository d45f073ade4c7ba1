"""tools/bench_compare.py: warn-only by default, gating under --strict."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", REPO_ROOT / "tools" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_report(directory: Path, experiment: str, seconds: float) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": experiment,
        "rows": [{"name": "row", "step_seconds": seconds}],
    }
    (directory / f"BENCH_{experiment}.json").write_text(json.dumps(payload))


class TestWarnOnly:
    def test_regression_still_exits_zero(self, bench_compare, tmp_path):
        _write_report(tmp_path / "base", "E1", 1.0)
        _write_report(tmp_path / "cur", "E1", 2.0)  # 2x slowdown
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur")]) == 0

    def test_missing_baseline_is_not_an_error(self, bench_compare, tmp_path):
        _write_report(tmp_path / "cur", "E1", 1.0)
        assert bench_compare.main(
            [str(tmp_path / "nope"), str(tmp_path / "cur")]) == 0


class TestStrict:
    def test_regression_fails(self, bench_compare, tmp_path):
        _write_report(tmp_path / "base", "E1", 1.0)
        _write_report(tmp_path / "cur", "E1", 2.0)
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict"]) == 1

    def test_clean_run_passes(self, bench_compare, tmp_path):
        _write_report(tmp_path / "base", "E1", 1.0)
        _write_report(tmp_path / "cur", "E1", 1.1)  # within +25%
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict"]) == 0

    def test_threshold_is_respected(self, bench_compare, tmp_path):
        _write_report(tmp_path / "base", "E1", 1.0)
        _write_report(tmp_path / "cur", "E1", 1.4)
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict", "--threshold", "0.5"]) == 0
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict", "--threshold", "0.2"]) == 1

    def test_per_experiment_tolerance_overrides_threshold(
            self, bench_compare, tmp_path):
        # E12 carries a +50% tolerance (wall-clock heavy): a 1.4x row
        # passes there even at the default +25% threshold, while the
        # same row under E1 (no override) fails.
        assert "E12" in bench_compare.TOLERANCES
        _write_report(tmp_path / "base", "E12", 1.0)
        _write_report(tmp_path / "cur", "E12", 1.4)
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict"]) == 0
        _write_report(tmp_path / "base", "E1", 1.0)
        _write_report(tmp_path / "cur", "E1", 1.4)
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict"]) == 1
        # Beyond even the per-experiment headroom it still fails.
        _write_report(tmp_path / "base2", "E12", 1.0)
        _write_report(tmp_path / "cur2", "E12", 1.6)
        assert bench_compare.main(
            [str(tmp_path / "base2"), str(tmp_path / "cur2"),
             "--strict"]) == 1

    def test_e13_uses_the_global_threshold(self, bench_compare, tmp_path):
        # E13's rows are simulated time (byte-deterministic per seed), so
        # it carries no override: a 1.4x row fails at the default +25%.
        assert "E13" not in bench_compare.TOLERANCES
        _write_report(tmp_path / "base", "E13", 1.0)
        _write_report(tmp_path / "cur", "E13", 1.2)
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict"]) == 0
        _write_report(tmp_path / "cur", "E13", 1.4)
        assert bench_compare.main(
            [str(tmp_path / "base"), str(tmp_path / "cur"),
             "--strict"]) == 1

    def test_malformed_input_exits_2(self, bench_compare, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_E1.json").write_text("{not json")
        _write_report(tmp_path / "cur", "E1", 1.0)
        with pytest.raises(SystemExit):
            bench_compare.main(
                [str(base), str(tmp_path / "cur"), "--strict"])
