"""Distributed-backend acceptance: the 12-variant grid, for real.

Flies the acceptance grid (2 MemGuard budgets x 2 attack starts x 3 seeds)
and checks the distributed backend's guarantees end to end:

* **serial reference** — no store, the ground truth;
* **distributed cold** — 2 spawned worker processes on the backend's
  in-process campaign service, over the HTTP work queue with shared-secret
  authentication enabled, persisting summaries *and* trajectory arrays
  (``record_arrays``): outcomes must be identical to serial bit for bit;
* **distributed warm** — the same grid again: everything is served from the
  store (12 hits, zero flights) and every variant's trajectory arrays load.

Flights are short (2 s) to keep the benchmark affordable; the figure-level
physics is exercised by the dedicated fig4-7 benchmarks.  The wall times and
flown/cached counts land in ``BENCH_distributed_backend.json`` for the CI
perf trajectory.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.campaign import CampaignRunner, DistributedBackend, ScenarioGrid
from repro.sim import FlightScenario
from repro.store import CampaignStore

FLIGHT_DURATION = 2.0

#: Shared secret of the campaign — the acceptance run doubles as the
#: end-to-end proof that auth costs nothing in fidelity.
HTTP_AUTH_TOKEN = "bench-shared-secret"


def acceptance_grid() -> ScenarioGrid:
    return ScenarioGrid(
        FlightScenario.figure5(duration=FLIGHT_DURATION).with_name("dist-bench"),
        axes={
            "memguard_budget": [1500, 3000],
            "attack_start": [0.5, 1.0],
            "seed": [201, 202, 203],
        },
    )


@pytest.fixture(scope="module")
def distributed_runs(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("distributed-store")
    grid = acceptance_grid()
    assert len(grid) == 12
    serial = CampaignRunner(mode="serial").run(grid)
    backend = DistributedBackend(
        workers=2, lease_timeout=120.0, auth_token=HTTP_AUTH_TOKEN,
    )
    cold = CampaignRunner(
        backend=backend, store=CampaignStore(store_dir), record_arrays=True
    ).run(grid)
    warm = CampaignRunner(
        backend=backend, store=CampaignStore(store_dir), record_arrays=True
    ).run(grid)
    return store_dir, serial, cold, warm


def test_distributed_matches_serial(distributed_runs, report):
    _, serial, cold, warm = distributed_runs
    assert cold.fallback_reason is None
    assert cold.failures() == ()
    assert cold.summaries() == serial.summaries()

    rows = [
        ["serial", f"{serial.wall_time:.1f} s", "-"],
        ["distributed cold (2 workers, http+auth)",
         f"{cold.wall_time:.1f} s", f"{cold.cache_misses} flown"],
        ["distributed warm (http+auth)", f"{warm.wall_time:.2f} s",
         f"{warm.cache_hits} from store"],
    ]

    def _leg(result):
        return {
            "wall_s": round(result.wall_time, 3),
            "flown": result.cache_misses,
            "cached": result.cache_hits,
        }

    report("distributed_backend", format_table(
        ["Run", "Wall time", "Cache"],
        rows,
        title=f"Distributed work-queue backend: 12 x {FLIGHT_DURATION:.0f} s flights",
    ), data={
        "flights": 12,
        "flight_duration_s": FLIGHT_DURATION,
        "serial_wall_s": round(serial.wall_time, 3),
        "http_cold": _leg(cold),
        "http_warm": _leg(warm),
    })


def test_http_transport_matches_serial_bit_for_bit(distributed_runs):
    _, serial, cold, _ = distributed_runs
    assert cold.fallback_reason is None
    assert cold.failures() == ()
    assert cold.summaries() == serial.summaries()


def test_http_warm_run_serves_everything_from_store(distributed_runs):
    store_dir, serial, _, warm = distributed_runs
    assert (warm.cache_hits, warm.cache_misses) == (12, 0)
    assert warm.summaries() == serial.summaries()
    store = CampaignStore(store_dir)
    for variant in acceptance_grid().variants():
        assert store.get_arrays(variant) is not None


def test_warm_run_serves_everything_from_store(distributed_runs):
    _, serial, _, warm = distributed_runs
    assert (warm.cache_hits, warm.cache_misses) == (12, 0)
    assert warm.summaries() == serial.summaries()


def test_warm_store_serves_trajectory_arrays(distributed_runs):
    store_dir, _, _, _ = distributed_runs
    store = CampaignStore(store_dir)
    for variant in acceptance_grid().variants():
        arrays = store.get_arrays(variant)
        assert arrays is not None, f"no arrays for {variant.name}"
        assert len(arrays["time"]) > 0
        assert arrays["position"].shape == (len(arrays["time"]), 3)
