"""Tests for the benchmark reporting helpers in ``benchmarks/conftest.py``.

The ``BENCH_<name>.json`` records are the machine-readable perf trail CI
archives; downstream tooling diffs them between runs, so their envelope —
stable sorted keys, a schema version, machine context, finite numbers —
is a contract worth pinning.  The conftest is not an importable package,
so it is loaded here by file path under a non-conftest module name.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_numbers_finite(value, path="$"):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        assert math.isfinite(value), f"non-finite number at {path}: {value!r}"
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_numbers_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _assert_numbers_finite(item, f"{path}[{index}]")


class TestWriteBenchJson:
    def test_envelope_carries_schema_and_machine_context(self, bench, tmp_path):
        path = bench.write_bench_json(
            tmp_path, "demo", {"wall_s": 1.5, "speedup": 2.0}
        )
        assert path == tmp_path / "BENCH_demo.json"
        record = json.loads(path.read_text())
        assert record["bench"] == "demo"
        assert record["schema"] == bench.BENCH_SCHEMA
        assert record["machine"]["cores"] >= 1
        assert isinstance(record["machine"]["python"], str)
        assert record["wall_s"] == 1.5

    def test_keys_are_sorted_for_clean_diffs(self, bench, tmp_path):
        path = bench.write_bench_json(
            tmp_path, "demo", {"zeta": 1, "alpha": 2, "mid": 3}
        )
        text = path.read_text()
        top_level_keys = list(json.loads(text))
        assert top_level_keys == sorted(top_level_keys)
        # Identical data must produce byte-identical files.
        again = bench.write_bench_json(
            tmp_path, "demo", {"alpha": 2, "mid": 3, "zeta": 1}
        )
        assert again.read_text() == text

    def test_record_is_one_json_object_with_trailing_newline(self, bench, tmp_path):
        path = bench.write_bench_json(tmp_path, "demo", {"x": 1})
        text = path.read_text()
        assert text.endswith("\n")
        assert isinstance(json.loads(text), dict)

    def test_numbers_are_finite(self, bench, tmp_path):
        path = bench.write_bench_json(
            tmp_path, "demo",
            {"wall_s": 12.25, "nested": {"speedup": 3.1, "flights": 12}},
        )
        _assert_numbers_finite(json.loads(path.read_text()))


class TestExistingBenchRecords:
    def test_checked_in_records_conform(self, bench):
        """Every BENCH_*.json on disk must validate: the records the
        benchmarks write to ``benchmarks/out/`` (a full run collects
        ``benchmarks/`` before ``tests/``) and any kept under ``results/``."""
        paths = [
            path
            for directory in (bench.PERF_DIR, bench.RESULTS_DIR)
            if directory.exists()
            for path in sorted(directory.glob("BENCH_*.json"))
        ]
        for path in paths:
            record = json.loads(path.read_text())
            assert record["schema"] == bench.BENCH_SCHEMA, path.name
            assert record["bench"] == path.stem[len("BENCH_"):], path.name
            assert "machine" in record, path.name
            _assert_numbers_finite(record, path.name)
