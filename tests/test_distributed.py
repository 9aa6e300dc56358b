"""Tests for the distributed backend and trajectory persistence.

Three layers are covered without real flights wherever possible (per the
``ThresholdBackend`` pattern of ``tests/test_adaptive.py``):

* :func:`~repro.campaign.backends.ordered` — the one loop that turns
  completion-order results into input-order ones;
* :class:`~repro.campaign.DistributedBackend` — out-of-order completion
  yields in input order, dead workers surface loudly, crashed workers lose
  nothing (end-to-end with real subprocesses over a cheap picklable fn);
* the runner's completion-order persistence and ``record_arrays`` policy —
  killed-coordinator resume from the store, corrupt ``.npz`` backfill, and
  the CLI/spec override matrix.

The expensive acceptance run (12 real flights, distributed == serial) lives
in ``benchmarks/test_distributed_backend.py``.
"""

import functools
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignRunner,
    DistributedBackend,
    HttpWorkQueueClient,
    ScenarioGrid,
)
from repro.campaign.backends import ordered
from repro.campaign.results import SUMMARY_FIELDS, VariantOutcome
from repro.campaign.spec import build_runner, build_scenario
from repro.sim import FlightScenario
from repro.store import CampaignStore, cache_key


def tiny_scenario(**kwargs) -> FlightScenario:
    defaults = dict(name="tiny", duration=0.5, record_hz=20.0)
    defaults.update(kwargs)
    return FlightScenario(**defaults)


def tiny_grid(seeds=(1, 2, 3)) -> ScenarioGrid:
    return ScenarioGrid(tiny_scenario(), axes={"seed": list(seeds)})


def fake_summary(name: str, crashed: bool = False) -> dict:
    summary = {key: None for key in SUMMARY_FIELDS}
    summary.update({
        "scenario": name,
        "crashed": crashed,
        "switched_to_safety": crashed,
        "max_deviation": 3.0 if crashed else 0.4,
        "recovered": not crashed,
    })
    return summary


def fake_outcome(variant) -> VariantOutcome:
    return VariantOutcome(
        name=variant.name,
        axes=variant.axes,
        seed=variant.scenario.seed,
        summary=fake_summary(variant.name),
        error=None,
        wall_time=0.001,
    )


def fake_arrays(samples: int = 4) -> dict:
    return {
        "time": np.linspace(0.0, 1.0, samples),
        "position": np.zeros((samples, 3)),
        "setpoint": np.zeros((samples, 3)),
        "velocity": np.zeros((samples, 3)),
        "attitude": np.zeros((samples, 3)),
        "active_source": np.array(["complex"] * samples),
        "crashed": np.zeros(samples, dtype=bool),
    }


# -- picklable worker functions (module-level so queue workers can import them) --


def _double(item):
    return item * 2


def _boom(item):
    raise RuntimeError(f"boom on {item!r}")


def _exit_hard(item):
    os._exit(3)  # simulates a worker killed mid-task (no heartbeat survives)


def _crash_worker_once(item, marker_dir):
    """Kill the whole worker process on the first attempt at item 'a'."""
    marker = Path(marker_dir) / f"{item}.attempted"
    if item == "a" and not marker.exists():
        marker.touch()
        os._exit(17)
    return item * 2


class TestOrdered:
    def test_yields_input_order_and_reports_completion_order(self):
        completions = []
        results = list(ordered(
            [(2, "c"), (0, "a"), (1, "b")], 3,
            on_complete=lambda index, result: completions.append(index),
        ))
        assert results == ["a", "b", "c"]
        assert completions == [2, 0, 1]

    def test_stops_once_every_result_is_yielded(self):
        def endless():
            yield 0, "a"
            raise AssertionError("consumed past the last result")

        assert list(ordered(endless(), 1)) == ["a"]


class TestDistributedBackend:
    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            DistributedBackend(workers=-1)
        with pytest.raises(ValueError, match="fixed port"):
            DistributedBackend(workers=0)
        with pytest.raises(ValueError, match="lease_timeout"):
            DistributedBackend(lease_timeout=0.0)
        with pytest.raises(ValueError, match="poll_interval"):
            DistributedBackend(poll_interval=0.0)
        DistributedBackend(workers=0, port=18768)  # external fleet

    def test_env_auth_token_protects_the_campaign(self, monkeypatch):
        # One exported secret configures both ends: the coordinator picks
        # it up and its spawned workers present it.
        monkeypatch.setenv("REPRO_CAMPAIGN_AUTH_TOKEN", "exported")
        backend = DistributedBackend(workers=1, lease_timeout=60.0,
                                     poll_interval=0.02)
        assert list(backend.map(_double, [3])) == [6]
        assert backend.queue_stats["auth_denials"] == 0

    def test_empty_items(self):
        assert list(DistributedBackend(workers=1).map(_double, [])) == []

    def test_out_of_order_completion_yields_input_order(self, tmp_path):
        """An external worker completes 2, 0, 1; the coordinator reports each
        completion immediately but yields strictly in input order."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = DistributedBackend(
            workers=0, port=port, poll_interval=0.01, lease_timeout=60.0,
        )
        completions = []

        def on_complete(index, result):
            completions.append((index, result))
            (tmp_path / f"consumed-{index}").touch()  # gate for the worker

        def eccentric_worker():
            queue = HttpWorkQueueClient(f"http://127.0.0.1:{port}", timeout=5.0)
            claimed = {}
            deadline = time.time() + 10.0
            while len(claimed) < 3 and time.time() < deadline:
                item = queue.claim("ext")
                if item is None:
                    time.sleep(0.01)
                    continue
                claimed[item[0]] = item
            for index in (2, 0, 1):
                task_index, payload, lease = claimed[index]
                fn, item = payload
                queue.complete(task_index, ("ok", fn(item)), lease)
                while not (tmp_path / f"consumed-{index}").exists():
                    if time.time() > deadline:
                        return
                    time.sleep(0.01)

        thread = threading.Thread(target=eccentric_worker, daemon=True)
        thread.start()
        results = list(backend.map(_double, [10, 20, 30], on_complete=on_complete))
        thread.join(timeout=10.0)
        assert results == [20, 40, 60]
        # on_complete fired in completion order, not input order.
        assert completions == [(2, 60), (0, 20), (1, 40)]

    def test_crashed_worker_releases_lease_and_task_is_reflown(self, tmp_path):
        # Worker 1 claims item 'a' and dies mid-task (os._exit: heartbeat
        # thread dies with it).  The lease expires, the coordinator re-queues
        # the task and the surviving worker completes it.
        fn = functools.partial(_crash_worker_once, marker_dir=str(tmp_path))
        backend = DistributedBackend(
            workers=2, lease_timeout=1.0, poll_interval=0.05
        )
        results = list(backend.map(fn, ["a", "b", "c"]))
        assert results == ["aa", "bb", "cc"]
        assert (tmp_path / "a.attempted").exists()

    def test_remote_failure_raises_with_traceback(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0)
        with pytest.raises(RuntimeError, match="distributed worker failed"):
            list(backend.map(_boom, [1]))

    def test_all_workers_dead_fails_loudly(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0,
                                     poll_interval=0.05)
        with pytest.raises(RuntimeError, match="workers exited"):
            list(backend.map(_exit_hard, [1, 2]))


# -- fake backends for runner-level behaviour (no subprocesses, no flights) ----


@dataclass(frozen=True)
class OutOfOrderBackend:
    """Fabricates outcomes, reports completions in reverse input order, then
    yields in input order — the contract the runner must tolerate."""

    flown: list = field(default_factory=list, compare=False)

    name = "out-of-order-fake"

    def map(self, fn, items, on_complete=None):
        outcomes = [fake_outcome(variant) for variant in items]
        for index in reversed(range(len(items))):
            self.flown.append(items[index].name)
            if on_complete is not None:
                on_complete(index, outcomes[index])
        yield from outcomes


@dataclass(frozen=True)
class DyingCoordinatorBackend:
    """Completes (and reports) every item, then dies before yielding any —
    the coordinator-killed-after-the-flights-finished scenario."""

    name = "dying-coordinator-fake"

    def map(self, fn, items, on_complete=None):
        for index, variant in enumerate(items):
            if on_complete is not None:
                on_complete(index, fake_outcome(variant))
        raise RuntimeError("coordinator died")
        yield  # pragma: no cover - generator marker


@dataclass(frozen=True)
class ArraysBackend:
    """Fabricates ``(outcome, arrays)`` results like a record_arrays worker."""

    flown: list = field(default_factory=list, compare=False)

    name = "arrays-fake"

    def map(self, fn, items):
        for variant in items:
            self.flown.append(variant.name)
            yield fake_outcome(variant), fake_arrays()


class TestRunnerCompletionOrderPersistence:
    def test_out_of_order_completions_persist_and_merge_in_input_order(
        self, tmp_path
    ):
        store = CampaignStore(tmp_path)
        result = CampaignRunner(backend=OutOfOrderBackend(), store=store).run(
            tiny_grid()
        )
        assert [outcome.name for outcome in result] == [
            "tiny/seed=1", "tiny/seed=2", "tiny/seed=3",
        ]
        assert len(store) == 3
        assert store.stats.writes == 3  # persisted once each, at completion

    def test_killed_coordinator_resumes_from_store_without_reflying(
        self, tmp_path
    ):
        # All flights completed and were persisted, but the coordinator died
        # before yielding: the serial fallback must serve every variant from
        # the store instead of re-flying it.
        store = CampaignStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="finishing the remaining"):
            result = CampaignRunner(
                backend=DyingCoordinatorBackend(), store=store
            ).run(tiny_grid())
        assert result.fallback_reason == "RuntimeError('coordinator died')"
        assert len(result) == 3
        assert all(outcome.cached for outcome in result)
        assert result.cache_hits == 3
        # A fresh uninterrupted run is fully warm.
        rerun = CampaignRunner(mode="serial", store=CampaignStore(tmp_path)).run(
            tiny_grid()
        )
        assert (rerun.cache_hits, rerun.cache_misses) == (3, 0)


class TestRecordArrays:
    def test_arrays_persist_and_serve_on_warm_hits(self, tmp_path):
        store = CampaignStore(tmp_path)
        runner = CampaignRunner(
            backend=ArraysBackend(), store=store, record_arrays=True
        )
        cold = runner.run(tiny_grid(seeds=(1, 2)))
        assert cold.cache_misses == 2
        for variant in tiny_grid(seeds=(1, 2)).variants():
            arrays = store.get_arrays(variant)
            assert arrays is not None
            assert set(arrays) == set(fake_arrays())

        warm_backend = ArraysBackend()
        warm = CampaignRunner(
            backend=warm_backend, store=CampaignStore(tmp_path),
            record_arrays=True,
        ).run(tiny_grid(seeds=(1, 2)))
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert warm_backend.flown == []  # arrays served, nothing re-flown

    def test_corrupt_npz_is_reflown_and_backfilled(self, tmp_path):
        store = CampaignStore(tmp_path)
        CampaignRunner(
            backend=ArraysBackend(), store=store, record_arrays=True
        ).run(tiny_grid(seeds=(1, 2)))
        victim_variant = tiny_grid(seeds=(1, 2)).variants()[0]
        archive = store.path_for(store.key_for(victim_variant)).with_suffix(".npz")
        archive.write_bytes(b"garbage")

        warm_backend = ArraysBackend()
        fresh_store = CampaignStore(tmp_path)
        warm = CampaignRunner(
            backend=warm_backend, store=fresh_store, record_arrays=True
        ).run(tiny_grid(seeds=(1, 2)))
        # The poisoned cell is re-flown (its summary alone is not enough),
        # the intact one is served with its arrays.
        assert (warm.cache_hits, warm.cache_misses) == (1, 1)
        assert warm_backend.flown == [victim_variant.name]
        assert fresh_store.stats.corrupt == 1
        assert fresh_store.get_arrays(victim_variant) is not None

    def test_hit_without_arrays_is_backfilled(self, tmp_path):
        # Cells flown before record_arrays was switched on have no .npz;
        # asking for arrays re-flies them once, then serves warm.
        @dataclass(frozen=True)
        class PlainBackend:
            name = "plain-fake"

            def map(self, fn, items):
                for variant in items:
                    yield fake_outcome(variant)

        store = CampaignStore(tmp_path)
        CampaignRunner(backend=PlainBackend(), store=store).run(
            tiny_grid(seeds=(1,))
        )
        backfill = CampaignRunner(
            backend=ArraysBackend(), store=CampaignStore(tmp_path),
            record_arrays=True,
        ).run(tiny_grid(seeds=(1,)))
        assert (backfill.cache_hits, backfill.cache_misses) == (0, 1)
        assert CampaignStore(tmp_path).get_arrays(
            tiny_grid(seeds=(1,)).variants()[0]
        ) is not None

    def test_serial_fallback_also_backfills_missing_arrays(self, tmp_path):
        # The fallback path must honour the same record_arrays policy as the
        # pre-dispatch lookup: a summary-only cell is re-flown (here: a real
        # tiny flight), not served without its arrays.
        @dataclass(frozen=True)
        class PlainBackend:
            name = "plain-fake"

            def map(self, fn, items):
                for variant in items:
                    yield fake_outcome(variant)

        @dataclass(frozen=True)
        class BrokenBackend:
            name = "broken-fake"

            def map(self, fn, items):
                raise OSError("pool gone")
                yield  # pragma: no cover - generator marker

        store = CampaignStore(tmp_path)
        CampaignRunner(backend=PlainBackend(), store=store).run(
            tiny_grid(seeds=(1,))
        )
        with pytest.warns(RuntimeWarning, match="finishing the remaining"):
            result = CampaignRunner(
                backend=BrokenBackend(), store=CampaignStore(tmp_path),
                record_arrays=True,
            ).run(tiny_grid(seeds=(1,)))
        outcome = result.outcomes[0]
        assert not outcome.cached  # re-flown, not served array-less
        assert outcome.error is None
        assert CampaignStore(tmp_path).get_arrays(
            tiny_grid(seeds=(1,)).variants()[0]
        ) is not None

    def test_record_arrays_requires_store(self):
        with pytest.raises(ValueError, match="record_arrays requires a store"):
            CampaignRunner(record_arrays=True)

    def test_stored_arrays_export_as_telemetry_rows(self, tmp_path):
        from repro.analysis.export import trajectory_to_rows, write_trajectory_csv

        store = CampaignStore(tmp_path)
        CampaignRunner(
            backend=ArraysBackend(), store=store, record_arrays=True
        ).run(tiny_grid(seeds=(1,)))
        arrays = store.get_arrays(tiny_grid(seeds=(1,)).variants()[0])
        rows = trajectory_to_rows(arrays)
        assert len(rows) == 4
        assert set(rows[0]) == {
            "time", "x", "y", "z", "x_setpoint", "y_setpoint", "z_setpoint",
            "vx", "vy", "vz", "roll", "pitch", "yaw", "active_source",
            "crashed",
        }
        path = tmp_path / "trajectory.csv"
        assert write_trajectory_csv(arrays, path) == 4
        assert path.read_text().startswith("time,")


@dataclass(frozen=True)
class AutoscalingFakeBackend:
    """Fabricates outcomes and one scale event, like an autoscaled
    ``DistributedBackend`` would."""

    scale_events: list = field(default_factory=list, compare=False)

    name = "autoscale-fake"

    def map(self, fn, items):
        self.scale_events.append({
            "event": "scale-up", "workers": 2, "backlog": len(items),
            "elapsed": 0.0,
        })
        for variant in items:
            yield fake_outcome(variant)


class TestScaleEventSurface:
    def test_runner_surfaces_backend_scale_events(self):
        result = CampaignRunner(backend=AutoscalingFakeBackend()).run(tiny_grid())
        assert result.scale_events == (
            {"event": "scale-up", "workers": 2, "backlog": 3, "elapsed": 0.0},
        )
        assert result.to_dict()["scale_events"] == [
            {"event": "scale-up", "workers": 2, "backlog": 3, "elapsed": 0.0},
        ]

    def test_fixed_backends_record_no_events(self):
        result = CampaignRunner(backend=OutOfOrderBackend()).run(tiny_grid())
        assert result.scale_events == ()
        assert result.to_dict()["scale_events"] == []


class TestSpecOverrideMatrix:
    """CLI overrides vs the ``[runner]`` table, exhaustively."""

    def test_salt_without_store_is_a_clear_error(self):
        with pytest.raises(ValueError, match="'salt' requires a 'store'"):
            build_runner({"runner": {"salt": "gen-9"}})

    def test_salt_with_store_partitions(self, tmp_path):
        runner = build_runner(
            {"runner": {"store": str(tmp_path), "salt": "gen-9"}}
        )
        assert runner.store is not None
        assert runner.store.salt == "gen-9"

    def test_cli_store_dir_keeps_spec_salt(self, tmp_path):
        runner = build_runner(
            {"runner": {"store": str(tmp_path / "spec"), "salt": "gen-9"}},
            store_dir=tmp_path / "cli",
        )
        assert runner.store.root == tmp_path / "cli"
        assert runner.store.salt == "gen-9"

    def test_cli_policy_override_warns_about_dropped_backend(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 2}}}
        with pytest.warns(RuntimeWarning, match="discards the spec's explicit"):
            runner = build_runner(spec, mode="serial")
        assert runner.backend is None and runner.mode == "serial"
        with pytest.warns(RuntimeWarning, match="discards the spec's explicit"):
            runner = build_runner(spec, max_workers=2)
        assert runner.backend is None and runner.max_workers == 2

    def test_cli_backend_override_keeps_matching_spec_options(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 7}}}
        runner = build_runner(spec, backend="distributed")
        assert isinstance(runner.backend, DistributedBackend)
        assert runner.backend.workers == 7

    def test_cli_backend_override_drops_foreign_spec_options_with_warning(self):
        from repro.campaign import SerialBackend

        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 7}}}
        with pytest.warns(RuntimeWarning, match="discards the spec's backend_options"):
            runner = build_runner(spec, backend="serial")
        assert isinstance(runner.backend, SerialBackend)

    def test_orphan_backend_options_still_rejected_with_cli_backend(self):
        # backend_options without a spec backend name stays a loud error
        # even when the backend comes from the command line — silently
        # dropping the options (e.g. an external fleet's port) would run the
        # campaign somewhere else entirely.
        spec = {"runner": {"backend_options": {"workers": 7}}}
        with pytest.raises(ValueError, match="requires a 'backend' name"):
            build_runner(spec, backend="distributed")

    def test_cli_backend_override_conflicts_with_policy_flags(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            build_runner({}, backend="serial", max_workers=2)
        with pytest.raises(ValueError, match="cannot be combined"):
            build_runner({}, backend="serial", mode="serial")

    def test_record_arrays_spec_and_override(self, tmp_path):
        spec = {"runner": {"store": str(tmp_path), "record_arrays": True}}
        assert build_runner(spec).record_arrays is True
        plain = {"runner": {"store": str(tmp_path)}}
        assert build_runner(plain).record_arrays is False
        assert build_runner(plain, record_arrays=True).record_arrays is True

    def test_record_arrays_without_store_is_a_clear_error(self):
        with pytest.raises(ValueError, match="'record_arrays' requires"):
            build_runner({"runner": {"record_arrays": True}})

    def test_spec_invalid_transport_is_a_clear_error(self):
        # HTTP is the only transport: naming one at all is an error.
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"transport": "http"}}}
        with pytest.raises(TypeError, match="transport"):
            build_runner(spec)

    def test_spec_autoscale_options(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 0,
                                               "max_workers": 4}}}
        runner = build_runner(spec)
        assert runner.backend.workers == 0
        assert runner.backend.max_workers == 4

    def test_cli_backend_override_keeps_matching_transport_options(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 0, "port": 9100,
                                               "host": "0.0.0.0"}}}
        runner = build_runner(spec, backend="distributed")
        assert (runner.backend.host, runner.backend.port) == ("0.0.0.0", 9100)

    def test_seed_coercion_is_constructor_path_consistent(self):
        # "seed": 3.0 used to reach the FlightScenario constructor as a
        # float (different cache key than 3); both paths must coerce.
        direct = build_scenario({"seed": 3.0})
        assert direct.seed == 3 and isinstance(direct.seed, int)
        assert cache_key(direct) == cache_key(build_scenario({"seed": 3}))
        figured = build_scenario({"figure": "figure5", "seed": 3.0})
        assert figured.seed == 3 and isinstance(figured.seed, int)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValueError, match="not integral"):
            build_scenario({"seed": 3.5})


class TestCliDistributedEndToEnd:
    """The acceptance path: a spec with backend='distributed' and 2 workers
    runs a real (tiny) grid through ``python -m repro.campaign``, caches it,
    and serves trajectory arrays warm."""

    def spec(self, tmp_path):
        import json

        spec = {
            "scenario": {"name": "dist-tiny", "duration": 0.4, "record_hz": 20.0},
            "axes": {"seed": [1, 2]},
            "runner": {
                "backend": "distributed",
                "backend_options": {"workers": 2, "lease_timeout": 120.0},
                "store": str(tmp_path / "cells"),
                "record_arrays": True,
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_cold_then_warm_with_arrays(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        spec = self.spec(tmp_path)
        assert main([str(spec)]) == 0
        capsys.readouterr()
        assert main([str(spec), "--format", "text"]) == 0
        assert "2 from cache" in capsys.readouterr().out

        store = CampaignStore(tmp_path / "cells")
        grid = ScenarioGrid(
            build_scenario({"name": "dist-tiny", "duration": 0.4,
                            "record_hz": 20.0}),
            axes={"seed": [1, 2]},
        )
        for variant in grid.variants():
            arrays = store.get_arrays(variant)
            assert arrays is not None
            assert len(arrays["time"]) > 0

    def test_backend_cli_flag_overrides_spec(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        spec = self.spec(tmp_path)
        # Forcing the serial backend must still complete (and not spawn
        # workers); the spec's distributed options are dropped.
        assert main([str(spec), "--backend", "serial"]) == 0

    @pytest.mark.parametrize("option", [
        {"transport": "file"},
        {"queue_dir": "/shared/queue"},
    ])
    def test_queue_dir_or_transport_option_exits_2(self, tmp_path, capsys, option):
        # Specs written for the shared-directory or TCP queues must fail
        # loudly, not run somewhere else.
        import json

        from repro.campaign.__main__ import main

        spec = {
            "scenario": {"name": "dist-tiny", "duration": 0.4},
            "axes": {"seed": [1]},
            "runner": {"backend": "distributed", "backend_options": option},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert next(iter(option)) in err
