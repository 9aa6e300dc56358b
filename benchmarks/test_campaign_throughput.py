"""Campaign throughput benchmark: the ISSUE's 3-axis acceptance sweep.

Runs the 2 MemGuard budgets x 2 attack starts x 3 seeds = 12-flight grid
through the :class:`~repro.campaign.CampaignRunner` twice — serial and
process-pool — and checks that

* both runs complete with no failed variants,
* serial and parallel summaries are *identical* (execution strategy must not
  leak into results),
* on machines with at least four cores the pool is >= 1.5x faster than
  serial (informational on smaller machines, where the pool cannot win), and
* the observability instrumentation costs nothing measurable: a third
  serial run with :func:`repro.obs.set_enabled` off must be within 2% of
  the instrumented one.

The instrumented serial run additionally writes
``benchmarks/out/metrics_sample.jsonl`` — a sample of the structured
event log (campaign/variant events plus a closing metrics snapshot) that CI
uploads next to the ``BENCH_*.json`` records.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.analysis.report import format_table
from repro.campaign import CampaignRunner, ScenarioGrid
from repro.sim import FlightScenario

#: Per-flight duration [s]; short enough to keep the benchmark affordable,
#: long enough that each flight sees the attack start and settle.
FLIGHT_DURATION = 3.0

SPEEDUP_CORES = 4
SPEEDUP_TARGET = 1.5

#: Ceiling on the instrumentation's serial wall-time cost [%].
OVERHEAD_LIMIT_PCT = 2.0


def acceptance_grid() -> ScenarioGrid:
    """The ISSUE's 3-axis sweep: 2 budgets x 2 attack starts x 3 seeds."""
    return ScenarioGrid(
        FlightScenario.figure5(duration=FLIGHT_DURATION).with_name("campaign-bench"),
        axes={
            "memguard_budget": [1500, 3000],
            "attack_start": [1.0, 2.0],
            "seed": [101, 102, 103],
        },
    )


@pytest.fixture(scope="module")
def campaign_runs(perf_dir):
    """Fly the acceptance grid serially (with a JSONL event-log sample),
    on the pool, and serially again with observability disabled."""
    grid = acceptance_grid()
    assert len(grid) == 12
    # Untimed warmup pass: the first flights of a fresh process run with
    # cold allocator/page caches and an unscaled CPU clock, measurably
    # slower than identical flights minutes later.  Without this, the
    # overhead comparison below charges that cold-start cost to whichever
    # run happens to go first (the instrumented one) and the 2% gate fails
    # on machine state, not instrumentation.
    obs.set_enabled(False)
    try:
        CampaignRunner(mode="serial", telemetry=False).run(grid)
    finally:
        obs.set_enabled(True)
    sample_path = perf_dir / "metrics_sample.jsonl"
    sample_path.unlink(missing_ok=True)
    with obs.EventLog(sample_path, run_id="bench") as log:
        previous = obs.set_event_log(log)
        try:
            serial = CampaignRunner(mode="serial").run(grid)
            obs.emit(
                "metrics-snapshot", "benchmarks",
                metrics=obs.default_registry().snapshot(),
            )
        finally:
            obs.set_event_log(previous)
    parallel = CampaignRunner(mode="parallel").run(grid)
    obs.set_enabled(False)
    try:
        bare = CampaignRunner(mode="serial", telemetry=False).run(grid)
    finally:
        obs.set_enabled(True)
    return serial, parallel, bare


def test_serial_and_parallel_campaigns_agree(campaign_runs, report):
    serial, parallel, bare = campaign_runs
    assert len(serial) == len(parallel) == len(bare) == 12
    assert serial.failures() == ()
    assert parallel.failures() == ()
    # Execution strategy must not change results — and neither may the
    # observability switch.
    assert serial.summaries() == parallel.summaries() == bare.summaries()

    cores = os.cpu_count() or 1
    speedup = serial.wall_time / parallel.wall_time if parallel.wall_time else 0.0
    overhead_pct = (
        (serial.wall_time - bare.wall_time) / bare.wall_time * 100.0
        if bare.wall_time else 0.0
    )
    rows = [
        ["serial", f"{serial.wall_time:.1f} s", f"{serial.wall_time / 12:.2f} s"],
        ["serial, obs off", f"{bare.wall_time:.1f} s", f"{bare.wall_time / 12:.2f} s"],
        ["process pool", f"{parallel.wall_time:.1f} s", f"{parallel.wall_time / 12:.2f} s"],
    ]
    text = format_table(
        ["Mode", "Campaign wall time", "Per flight"],
        rows,
        title=(
            f"Campaign throughput: 12 x {FLIGHT_DURATION:.0f} s flights on "
            f"{cores} core(s), speedup {speedup:.2f}x, "
            f"instrumentation overhead {overhead_pct:+.2f}%"
        ),
    )
    report("campaign_throughput", text + "\n\n" + serial.to_text(), data={
        "flights": len(serial),
        "flight_duration_s": FLIGHT_DURATION,
        "serial_wall_s": round(serial.wall_time, 3),
        "serial_no_obs_wall_s": round(bare.wall_time, 3),
        "parallel_wall_s": round(parallel.wall_time, 3),
        "speedup": round(speedup, 3),
        "obs_overhead_pct": round(overhead_pct, 3),
    })


def test_metrics_sample_written(campaign_runs, perf_dir):
    """The serial run leaves a well-formed JSONL event-log sample behind."""
    import json

    sample_path = perf_dir / "metrics_sample.jsonl"
    assert sample_path.exists()
    records = [
        json.loads(line)
        for line in sample_path.read_text().splitlines() if line
    ]
    assert records, "event-log sample is empty"
    for record in records:
        assert record["schema"] == 1
        assert record["run"] == "bench"
        assert record["component"]
        assert record["event"]
    events = [record["event"] for record in records]
    assert "campaign-start" in events
    assert "campaign-end" in events
    assert events[-1] == "metrics-snapshot"
    assert "repro_campaign_variants_total" in records[-1]["metrics"]


def test_observability_overhead(campaign_runs):
    """Instrumented serial run within OVERHEAD_LIMIT_PCT of the bare one."""
    serial, _parallel, bare = campaign_runs
    assert bare.wall_time > 0
    overhead_pct = (serial.wall_time - bare.wall_time) / bare.wall_time * 100.0
    if os.environ.get("CI"):
        # Same reasoning as the speedup gate: shared runners jitter more
        # than the margin being measured.  Report, don't block.
        if overhead_pct > OVERHEAD_LIMIT_PCT:
            pytest.skip(
                f"informational on CI: measured {overhead_pct:+.2f}% "
                f"(limit {OVERHEAD_LIMIT_PCT}%)"
            )
        return
    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        f"observability instrumentation costs {overhead_pct:+.2f}% serial "
        f"wall time (limit {OVERHEAD_LIMIT_PCT}%)"
    )


def test_parallel_speedup(campaign_runs):
    cores = os.cpu_count() or 1
    serial, parallel, _bare = campaign_runs
    speedup = serial.wall_time / parallel.wall_time if parallel.wall_time else 0.0
    if cores < SPEEDUP_CORES:
        pytest.skip(
            f"speedup target needs >= {SPEEDUP_CORES} cores, "
            f"machine has {cores} (measured {speedup:.2f}x)"
        )
    if os.environ.get("CI"):
        # Shared CI runners are too noisy for a hard wall-clock gate: a
        # contended VM measuring 1.4x would block unrelated PRs.  Report
        # instead of asserting there; dedicated machines still enforce it.
        if speedup < SPEEDUP_TARGET:
            pytest.skip(
                f"informational on CI: measured {speedup:.2f}x on {cores} cores "
                f"(target {SPEEDUP_TARGET}x)"
            )
        return
    assert speedup >= SPEEDUP_TARGET, (
        f"parallel campaign only {speedup:.2f}x faster than serial "
        f"on {cores} cores (target {SPEEDUP_TARGET}x)"
    )
