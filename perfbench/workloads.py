"""The benchmark's four workloads and their pinned reference verdicts.

Every workload builds its scenarios from the workload seed alone: the seed
draws every scenario seed and every grid seed axis, while the attack kinds,
start times, budgets and durations are fixed, so each scenario's verdict is
pinned here and holds for any seed (``run.py --check-pins`` re-flies the
scalar reference over several seeds to confirm it).

A workload has an untimed ``setup()`` (repeated; each call replaces the
previous state), then per timed campaign an untimed ``prepare()``, the timed
``run()`` and an untimed ``check()``.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import FlightScenario, run_scenario
from repro.campaign import CampaignRunner, ScenarioGrid
from repro.campaign.backends import BatchBackend, ServiceBackend
from repro.campaign.client import ServiceClient
from repro.campaign.service import CampaignService
from repro.sim.batch import clear_trace_cache, timing_fingerprint
from repro.sim.batch import trace as batch_trace
from repro.store import CampaignStore

#: Verdict of one flight: ``(crashed, switched_to_safety)``.
Verdict = tuple[bool, bool]

SURVIVED = (False, False)
SWITCHED = (False, True)

#: Fleet size of the hosted workload.  One worker flies while the service
#: and its client (HTTP handlers, polling, store writes) run in this
#: process, so the two busy processes fit the two CPUs.  A two-worker fleet
#: adds a third on the same CPUs: its campaign ends only when both workers
#: have run unslowed, and its rate spread 22-29% of the median over ten
#: runs on the shared two-CPU machine.
SERVICE_WORKERS = 1


def draw_seeds(seed: int, count: int, stream: int) -> list[int]:
    """``count`` distinct scenario seeds drawn from the workload seed."""
    rng = np.random.default_rng([seed, stream])
    return [int(value) + 1 for value in rng.choice(2**31 - 2, size=count, replace=False)]


def with_arming_grace(scenario: FlightScenario, grace: float) -> FlightScenario:
    """Copy of ``scenario`` whose monitor arms after ``grace`` seconds, so a
    sub-second flight can exercise the Simplex switch."""
    config = scenario.config
    return scenario.with_config(
        replace(config, monitor=replace(config.monitor, arming_grace_period=grace))
    )


def verdict_of(summary: dict[str, Any]) -> Verdict:
    return bool(summary["crashed"]), bool(summary["switched_to_safety"])


def comparable(summary: dict[str, Any]) -> dict[str, Any]:
    """A summary without the fields that name the run rather than the flight."""
    return {key: value for key, value in summary.items() if key != "scenario"}


@dataclass
class Campaign:
    """What one timed campaign delivered, as checked after the clock stops."""

    flights: int = 0
    failed: int = 0
    verdict_mismatches: int = 0
    #: Deterministic per-flight content, compared across repeats by digest.
    content: list[Any] = field(default_factory=list)
    #: Per-layer figures the workload measures itself (worker, transport).
    extras: dict[str, float] = field(default_factory=dict)
    #: Anything else wrong with the delivered results.
    problems: list[str] = field(default_factory=list)
    #: Wall time of each independently timed part, for a workload that
    #: flies or delivers its flights one by one (the fastest repeat of each
    #: part is less exposed to a slow stretch of the machine than the
    #: campaign's).
    unit_walls: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: Whether the timed campaign runs in this process alone (no workers);
    #: decides whether the benchmark pins it to one CPU per campaign and
    #: whether its peak memory includes the largest worker.
    in_process = True
    #: Whether the runner delivers the campaign's results one at a time, so
    #: the benchmark times each interval between deliveries as a part.
    paced_deliveries = False
    #: Set-ups per run; their median is ``setup_s``.  A set-up that costs
    #: about a second is repeated more, so its median holds on a noisy
    #: machine without lengthening the costly runs.
    setups = 3

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.first_result_at: float | None = None

    def setup(self) -> None:
        pass

    def prepare(self, repeat: int) -> None:
        self.first_result_at = None

    def run(self) -> Any:
        raise NotImplementedError

    def check(self, raw: Any, wall: float) -> Campaign:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def describe(self) -> dict[str, Any]:
        return {}


def check_outcomes(result: Any, pinned: Callable[[tuple], Verdict]) -> Campaign:
    """Failures and verdict mismatches of a ``CampaignResult``; ``pinned``
    maps a variant's axes to its reference verdict."""
    campaign = Campaign(flights=len(result.outcomes))
    for outcome in result.outcomes:
        if not outcome.ok:
            campaign.failed += 1
            campaign.content.append((outcome.name, "error"))
            continue
        if verdict_of(outcome.summary) != pinned(outcome.axes):
            campaign.verdict_mismatches += 1
        campaign.content.append((outcome.name, comparable(outcome.summary)))
    return campaign


# -- scalar-figs --------------------------------------------------------------------


class ScalarFigs(Workload):
    """The paper's four attack experiments, shortened, flown serially on the
    golden-reference scalar simulator."""

    name = "scalar-figs"
    setups = 5
    DURATION = 0.8
    ATTACK = 0.25
    #: The monitor arms after 0.2 s (the paper's 2 s start-up grace would
    #: need flights three times as long to show the switch).
    GRACE = 0.2

    #: ``(figure, constructor, pinned verdict)``: memory DoS without and with
    #: MemGuard (monitor off, so neither switches), controller kill and UDP
    #: flood (the monitor switches to the safety controller).
    FIGURES = (
        ("fig4", lambda t, d: FlightScenario.figure4(attack_start=t, duration=d), SURVIVED),
        ("fig5", lambda t, d: FlightScenario.figure5(attack_start=t, duration=d), SURVIVED),
        ("fig6", lambda t, d: FlightScenario.figure6(kill_time=t, duration=d), SWITCHED),
        ("fig7", lambda t, d: FlightScenario.figure7(attack_start=t, duration=d), SWITCHED),
    )

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        seeds = draw_seeds(seed, len(self.FIGURES), stream=1)
        self.flights = [
            (figure,
             with_arming_grace(build(self.ATTACK, self.DURATION), self.GRACE).with_seed(flight_seed),
             verdict)
            for (figure, build, verdict), flight_seed in zip(self.FIGURES, seeds)
        ]

    def setup(self) -> None:
        # Warm-up: one short flight through every substrate the figures use.
        warmup = FlightScenario.figure7(attack_start=0.05, duration=0.1)
        run_scenario(warmup.with_seed(self.flights[0][1].seed))

    def run(self) -> list[Any]:
        results = []
        for _, scenario, _ in self.flights:
            start = time.perf_counter()
            try:
                result = run_scenario(scenario)
            except Exception as exc:  # a failed flight is counted, not fatal
                result = exc
            results.append((result, time.perf_counter() - start))
            if self.first_result_at is None:
                self.first_result_at = time.perf_counter()
        return results

    def check(self, raw: list[Any], wall: float) -> Campaign:
        campaign = Campaign(flights=len(raw))
        for (figure, _, pinned), (result, flight_wall) in zip(self.flights, raw):
            campaign.unit_walls[figure] = flight_wall
            if isinstance(result, Exception):
                campaign.failed += 1
                campaign.content.append((figure, repr(result)))
                continue
            verdict = (bool(result.crashed), result.switch_time is not None)
            if verdict != pinned:
                campaign.verdict_mismatches += 1
            campaign.content.append((figure, result.crashed, result.crash_time,
                                     result.switch_time, len(result.violations),
                                     float(result.metrics.max_deviation)))
        return campaign

    def describe(self) -> dict[str, Any]:
        return {"arming_grace_s": self.GRACE, "flights": [
            {"figure": figure, "seed": scenario.seed, "duration_s": scenario.duration,
             "attack_start_s": scenario.first_attack_time(), "pinned_verdict": verdict}
            for figure, scenario, verdict in self.flights
        ]}


# -- batch-wide ---------------------------------------------------------------------


class BatchWide(Workload):
    """The fig5 memory-DoS acceptance grid widened to 48 lanes, flown by the
    batch core through the campaign runner with no store.

    Flights last 1 s rather than the acceptance grid's 3 s: the replay's
    per-quantum work is the same, and a run then holds enough campaigns for
    its fastest one to be a steady figure on a shared machine."""

    name = "batch-wide"
    setups = 5
    BUDGETS = (1500, 3000)
    STARTS = (0.3, 0.6)
    DURATION = 1.0

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.seeds = seeds = draw_seeds(seed, 1 if smoke else 12, stream=2)
        self.grid = ScenarioGrid(
            FlightScenario.figure5(duration=self.DURATION).with_name("batch-wide"),
            axes={"memguard_budget": list(self.BUDGETS),
                  "attack_start": list(self.STARTS),
                  "seed": seeds},
        )
        self.variants = self.grid.variants()
        self.runner = CampaignRunner(backend=BatchBackend())

    def setup(self) -> None:
        clear_trace_cache()
        classes = {}
        for variant in self.variants:
            classes.setdefault(timing_fingerprint(variant.scenario), variant.scenario)
        for scenario in classes.values():
            batch_trace.trace_for(scenario)

    def run(self) -> Any:
        result = self.runner.run(self.variants)
        result.to_json()
        return result

    def pinned(self, axes: tuple) -> Verdict:
        # fig5 keeps MemGuard and disables the monitor: every lane survives
        # without a switch, whatever its budget, start or seed.
        return SURVIVED

    def check(self, raw: Any, wall: float) -> Campaign:
        return check_outcomes(raw, self.pinned)

    def describe(self) -> dict[str, Any]:
        return {"lanes": len(self.variants), "duration_s": self.DURATION,
                "memguard_budget": list(self.BUDGETS), "attack_start_s": list(self.STARTS),
                "seeds": self.seeds, "pinned_verdict": SURVIVED}


# -- service-short ------------------------------------------------------------------


def worker_pid(_: Any) -> int:
    """Task run on a service worker during set-up: proves it is attached."""
    time.sleep(0.05)
    return os.getpid()


class ServiceShort(Workload):
    """A dozen short fig7 UDP-flood flights rented from an in-process
    campaign service with a one-worker fleet, cached into an empty store
    per campaign."""

    name = "service-short"
    in_process = False
    paced_deliveries = True
    STARTS = (0.22, 0.25)
    DURATION = 0.7
    #: The monitor arms after 0.2 s so the flood triggers the switch in a
    #: sub-second flight.
    GRACE = 0.2
    POLL = 0.02

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        base = with_arming_grace(FlightScenario.figure7(duration=self.DURATION), self.GRACE)
        self.seeds = draw_seeds(seed, 1 if smoke else 6, stream=3)
        self.grid = ScenarioGrid(
            base.with_name("service-short"),
            axes={"attack_start": list(self.STARTS), "seed": self.seeds},
        )
        self.variants = self.grid.variants()
        self.service: CampaignService | None = None
        self.store: CampaignStore | None = None
        self._setups = 0

    def setup(self) -> None:
        self.close()
        self.service = CampaignService(
            workers=SERVICE_WORKERS, poll_interval=self.POLL, lease_timeout=60.0
        )
        # Fleet attach: wait until every worker has answered a task.
        client = ServiceClient(self.service.url)
        deadline = time.monotonic() + 60.0
        pids: set[int] = set()
        while len(pids) < SERVICE_WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("service workers did not attach within 60 s")
            run_id = client.submit_tasks([(worker_pid, index) for index in range(4)])
            while True:
                state, results = client.task_results(run_id)
                if len(results) == 4:
                    break
                time.sleep(self.POLL)
            pids.update(value for status, value in results.values() if status == "ok")
            client.cancel(run_id, missing_ok=True)
        self._setups += 1

    def prepare(self, repeat: int) -> None:
        super().prepare(repeat)
        root = self.workdir / f"service-store-{self._setups}-{repeat}"
        shutil.rmtree(root, ignore_errors=True)
        self.store = CampaignStore(root)
        self.runner = CampaignRunner(
            backend=ServiceBackend(url=self.service.url, poll_interval=self.POLL),
            store=self.store,
        )
        self._queue_before = self.service.queue.stats_snapshot()

    def run(self) -> Any:
        result = self.runner.run(self.variants)
        result.to_json()
        return result

    def pinned(self, axes: tuple) -> Verdict:
        return SWITCHED

    def check(self, raw: Any, wall: float) -> Campaign:
        campaign = check_outcomes(raw, self.pinned)
        after = self.service.queue.stats_snapshot()
        for key in ("claims", "completions", "heartbeats", "lease_reissues"):
            campaign.extras[f"campaign.transport.{key}"] = float(after[key] - self._queue_before[key])
        flight_s = sum(outcome.wall_time for outcome in raw.outcomes if not outcome.cached)
        campaign.extras["campaign.worker.flight_s"] = flight_s
        campaign.extras["campaign.worker.busy_ratio"] = flight_s / (SERVICE_WORKERS * wall)
        campaign.extras["campaign.dispatch_overhead_s"] = wall - flight_s / SERVICE_WORKERS
        stats = self.store.stats
        gets = stats.hits + stats.misses
        campaign.extras["store.hit_ratio"] = stats.hits / gets if gets else 0.0
        if stats.writes != len(self.variants):
            campaign.problems.append(
                f"{stats.writes} of {len(self.variants)} cells persisted")
        return campaign

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def describe(self) -> dict[str, Any]:
        return {"variants": len(self.variants), "duration_s": self.DURATION,
                "attack_start_s": list(self.STARTS), "arming_grace_s": self.GRACE,
                "workers": SERVICE_WORKERS, "poll_s": self.POLL,
                "seeds": self.seeds, "pinned_verdict": SWITCHED}


# -- store-warm ---------------------------------------------------------------------


class StoreWarm(Workload):
    """A warm re-run of about a thousand cached cells with trajectory arrays:
    pure store reads, merge and aggregation."""

    name = "store-warm"
    STARTS = (0.25, 0.3)
    DURATION = 0.6
    GRACE = 0.2

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        base = with_arming_grace(FlightScenario.figure6(duration=self.DURATION), self.GRACE)
        self.seeds = draw_seeds(seed, 2 if smoke else 256, stream=4)
        self.grid = ScenarioGrid(
            base.with_name("store-warm"),
            axes={"monitor": [True, False], "attack_start": list(self.STARTS),
                  "seed": self.seeds},
        )
        self.variants = self.grid.variants()
        self.store: CampaignStore | None = None
        self.reference: list[Any] = []
        self._setups = 0

    def setup(self) -> None:
        clear_trace_cache()
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self._setups += 1
        self.store = CampaignStore(self.workdir / f"warm-store-{self._setups}")
        filled = CampaignRunner(
            backend=BatchBackend(), store=self.store, record_arrays=True
        ).run(self.variants)
        if filled.failures() or self.store.stats.writes != len(self.variants):
            raise RuntimeError("store-warm set-up could not fill the store")
        self.reference = [
            (outcome.name, comparable(outcome.summary)) for outcome in filled.outcomes
        ]

    def pinned(self, axes: tuple) -> Verdict:
        # Controller kill with the monitor on switches to safety; with it
        # off nothing switches, and neither crashes within the flight.
        return SWITCHED if dict(axes)["monitor"] else SURVIVED

    def prepare(self, repeat: int) -> None:
        super().prepare(repeat)
        self.store = CampaignStore(self.store.root)
        self.runner = CampaignRunner(store=self.store, record_arrays=True)

    def run(self) -> Any:
        result = self.runner.run(self.variants)
        result.to_json()
        return result

    def check(self, raw: Any, wall: float) -> Campaign:
        campaign = check_outcomes(raw, self.pinned)
        # A warm run must serve every cell, unchanged, without flying.
        if raw.cache_hits != len(self.variants):
            campaign.problems.append(
                f"{raw.cache_hits} of {len(self.variants)} cells served from the store")
        if campaign.content != self.reference:
            campaign.problems.append("warm summaries differ from the flown ones")
        stats = self.store.stats
        gets = stats.hits + stats.misses
        campaign.extras["store.hit_ratio"] = stats.hits / gets if gets else 0.0
        return campaign

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)

    def describe(self) -> dict[str, Any]:
        return {"cells": len(self.variants), "duration_s": self.DURATION,
                "monitor": [True, False], "attack_start_s": list(self.STARTS),
                "arming_grace_s": self.GRACE, "record_arrays": True,
                "seeds": len(self.seeds),
                "pinned_verdicts": {"monitor on": SWITCHED, "monitor off": SURVIVED}}


WORKLOADS = {cls.name: cls for cls in (ScalarFigs, BatchWide, ServiceShort, StoreWarm)}
