"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's evaluation
(Section V), prints the reproduced rows/series and stores them under
``benchmarks/results/`` so they can be compared against the paper (see
EXPERIMENTS.md).  Those reports are deterministic and tracked: a diff after
a run means the reproduced numbers changed.

Benchmarks that measure *performance* (wall times, cache hit counts,
speedups) pass a ``data`` mapping to the :func:`report` fixture instead.
Their reports differ on every run, so they go to the untracked
``benchmarks/out/`` together with the machine-readable
``BENCH_<name>.json`` record — the perf trajectory CI uploads as artifacts,
so speed regressions are diffable across runs instead of buried in prose
reports.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Mapping

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Run-dependent outputs (timing reports, BENCH records, event-log samples).
PERF_DIR = Path(__file__).resolve().parent / "out"

#: Bump when the JSON envelope below changes shape.
BENCH_SCHEMA = 1


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where reproduced tables/figures are written."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def perf_dir() -> Path:
    """Directory where run-dependent perf outputs are written."""
    PERF_DIR.mkdir(exist_ok=True)
    return PERF_DIR


def write_bench_json(
    results_dir: Path, name: str, data: Mapping[str, Any]
) -> Path:
    """Write one machine-readable benchmark record.

    The envelope carries the benchmark name, a schema version and the
    machine context every perf number needs for comparison (core count,
    python version); ``data`` supplies the measurements themselves — wall
    times, flown/cached counts, speedups.  Keys are sorted so records diff
    cleanly between runs.
    """
    record = {
        "bench": name,
        "schema": BENCH_SCHEMA,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
        },
        **dict(data),
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def report(results_dir, perf_dir):
    """Return a function that prints a report and stores it on disk.

    ``report(name, text)`` writes the human-readable ``<name>.txt`` under
    ``results/``; ``report(name, text, data={...})`` writes it under
    ``out/`` instead and additionally emits the machine-readable
    ``BENCH_<name>.json`` perf record there.
    """

    def _report(
        name: str, text: str, data: Mapping[str, Any] | None = None
    ) -> None:
        print()
        print("=" * 78)
        print(text)
        print("=" * 78)
        target = results_dir if data is None else perf_dir
        (target / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            write_bench_json(perf_dir, name, data)

    return _report
