"""Span ledger for the traced benchmark run.

The traced run wraps calls into each layer's public functions from here,
without editing the program.  Every wrapped call on the benchmark's main
thread becomes one span ``(name, start, end, parent, repeat)`` kept in
memory in flat arrays; the spans are written out when the benchmark ends.
Self time is a span's duration minus the part its direct children cover
(children nest inside their parent because spans are opened and closed on
one call stack).

Layer names are the program's module names.  :data:`LAYER_CALLS` lists
every wrapped call; counters that the program already keeps (task deadline
misses, MemGuard throttles, network drops) are read from the objects the
flight builds, which :meth:`Ledger.install` registers as they are created.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from array import array
from typing import Any, Callable

import numpy as np

#: Repeat label of spans recorded outside any set-up or timed campaign.
OUTSIDE = -32768

#: ``(module, owner, attribute, span name)`` of every wrapped call.  ``owner``
#: is a class name inside ``module`` or ``None`` for a module-level function.
#: Functions a module imported by name are wrapped where they are looked up.
LAYER_CALLS = (
    ("repro.sim.flight", "FlightSimulation", "__init__", "sim.flight.build"),
    ("repro.sim.flight", "FlightSimulation", "run", "sim.flight.run"),
    ("repro.rtos.scheduler", "MulticoreScheduler", "advance", "rtos.advance"),
    ("repro.dynamics.quadrotor", "Quadrotor", "step", "dynamics.step"),
    ("repro.sensors.base", "PeriodicSensor", "sample_now", "sensors.sample"),
    ("repro.control.complex_controller", "ComplexController", "compute", "control.compute"),
    ("repro.control.safety_controller", "SafetyController", "compute", "control.compute"),
    ("repro.control.complex_controller", "ComplexController", "on_imu", "control.estimate"),
    ("repro.control.complex_controller", "ComplexController", "on_baro", "control.estimate"),
    ("repro.control.complex_controller", "ComplexController", "on_gps", "control.estimate"),
    ("repro.control.complex_controller", "ComplexController", "on_mocap", "control.estimate"),
    ("repro.core.framework", "ContainerDroneFramework", "on_imu", "control.estimate"),
    ("repro.core.framework", "ContainerDroneFramework", "on_baro", "control.estimate"),
    ("repro.core.framework", "ContainerDroneFramework", "on_gps", "control.estimate"),
    ("repro.core.framework", "ContainerDroneFramework", "on_mocap", "control.estimate"),
    ("repro.core.framework", "ContainerDroneFramework", "run_monitor", "core.monitor"),
    ("repro.core.framework", "ContainerDroneFramework", "run_safety_controller", "core.decision"),
    ("repro.core.framework", "ContainerDroneFramework", "handle_actuator_frames", "core.decision"),
    ("repro.core.framework", "ContainerDroneFramework", "submit_host_complex_command", "core.decision"),
    ("repro.core.framework", "ContainerDroneFramework", "select_command", "core.decision"),
    ("repro.mavlink.connection", "MavlinkConnection", "send", "mavlink.send"),
    ("repro.mavlink.connection", "MavlinkConnection", "receive", "mavlink.receive"),
    ("repro.network.stack", "NetworkStack", "send", "network.send"),
    ("repro.sim.recorder", "FlightRecorder", "maybe_record", "sim.recorder.record"),
    ("repro.sim.flight", None, "compute_metrics", "sim.metrics.compute"),
    ("repro.sim.batch.core", None, "compute_metrics", "sim.metrics.compute"),
    ("repro.sim.batch", None, "run_batch", "sim.batch.run"),
    ("repro.sim.batch.core", None, "trace_for", "sim.batch.trace"),
    ("repro.sim.batch.trace", None, "trace_for", "sim.batch.trace"),
    ("repro.sim.batch.core", None, "generate_lane_noise", "sim.batch.noise"),
    ("repro.sim.batch.physics", "BatchPlant", "step", "sim.batch.physics.step"),
    ("repro.sim.batch.stacks", "BatchSafetyStack", "compute", "sim.batch.stacks.compute"),
    ("repro.sim.batch.stacks", "BatchComplexStack", "compute", "sim.batch.stacks.compute"),
    ("repro.analysis.export", None, "result_to_dict", "analysis.export"),
    ("repro.campaign.results", "CampaignResult", "to_json", "analysis.export"),
    ("repro.store.store", None, "cache_key", "store.key"),
    ("repro.store.store", "CampaignStore", "get", "store.get"),
    ("repro.store.store", "CampaignStore", "has_arrays", "store.has_arrays"),
    ("repro.store.store", "CampaignStore", "put", "store.put"),
    ("repro.store.store", "CampaignStore", "put_arrays", "store.put_arrays"),
    ("repro.campaign.client", "ServiceClient", "submit_tasks", "campaign.client.submit"),
    ("repro.campaign.client", "ServiceClient", "task_results", "campaign.client.poll"),
    ("repro.campaign.client", "ServiceClient", "cancel", "campaign.client.cancel"),
)

#: The program's own ``repro.obs`` phase spans, renamed after their layer.
#: They are recorded by wrapping ``span`` where these modules look it up.
OBS_SPANS = {
    "campaign.lookup": "campaign.runner.lookup",
    "campaign.execute": "campaign.runner.execute",
    "campaign.fallback": "campaign.runner.fallback",
    "campaign.variant": "campaign.runner.variant",
    "batch.trace": "sim.batch.trace_phase",
    "batch.compile": "sim.batch.compile",
    "batch.replay": "sim.batch.replay",
}
OBS_SPAN_MODULES = ("repro.campaign.runner", "repro.sim.batch.core")

#: Span wrapping every flight task's job callback (the flight's glue code
#: between the scheduler and the layers it drives).
CALLBACK_SPAN = "sim.flight.callback"

#: Classes whose instances carry counters read at the end of each repeat.
TRACKED = (
    ("repro.rtos.task", "Task"),
    ("repro.memsys.memguard", "MemGuard"),
    ("repro.network.stack", "NetworkStack"),
)


def _resolve(module_name: str, owner: str | None) -> Any:
    module = importlib.import_module(module_name)
    return module if owner is None else getattr(module, owner)


class Ledger:
    """In-memory span store plus the wrappers that feed it.

    Spans are recorded only on the thread that created the ledger; calls on
    other threads (HTTP handler threads of an in-process service) run
    unwrapped, so the arrays never interleave.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.repeat = array("l")
        self.repeat_label = OUTSIDE
        self._stack = [-1]
        self._main = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Objects created while installed, by class name, with their repeat.
        self.tracked: dict[str, list[tuple[int, Any]]] = {
            name: [] for _, name in TRACKED
        }
        #: Per-repeat counters kept by the wrappers themselves.
        self.counts: dict[tuple[int, str], float] = {}
        #: Results the previous poll of each service run returned.
        self.polled: dict[str, int] = {}

    # -- recording ---------------------------------------------------------------

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def count(self, key: str, amount: float = 1.0) -> None:
        slot = (self.repeat_label, key)
        self.counts[slot] = self.counts.get(slot, 0.0) + amount

    def open(self, code: int) -> int:
        index = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.repeat.append(self.repeat_label)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str, repeat: int):
        """Root span of one set-up or timed campaign (its self time is the
        campaign's unattributed remainder)."""
        previous = self.repeat_label
        self.repeat_label = repeat
        index = self.open(self.code(name))
        try:
            yield
        finally:
            self.close(index)
            self.repeat_label = previous

    def traced(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``observe(ledger, args, result)`` runs
        after each call to update counters.

        The wrapper repeats :meth:`open` and :meth:`close` inline with
        everything it touches bound locally: it runs on every call of the
        innermost layers, and its cost is what the traced run adds.
        """
        code = self.code(name)
        main = self._main
        get_ident = threading.get_ident
        clock = time.perf_counter
        stack = self._stack
        starts, ends, names, parents, repeats = (
            self.start, self.end, self.name, self.parent, self.repeat
        )
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(code)
            parents.append(stack[-1])
            repeats.append(ledger.repeat_label)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(ledger, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer call; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        for module_name, owner_name, attribute, span_name in LAYER_CALLS:
            owner = _resolve(module_name, owner_name)
            original = owner.__dict__[attribute]
            self._patch(owner, attribute,
                        self.traced(original, span_name, _OBSERVERS.get(span_name)))
        for module_name in OBS_SPAN_MODULES:
            module = _resolve(module_name, None)
            self._patch(module, "span", self._obs_span(module.__dict__["span"]))
        for module_name, class_name in TRACKED:
            cls = _resolve(module_name, class_name)
            self._patch(cls, "__init__", self._tracking_init(cls.__dict__["__init__"], class_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _obs_span(self, original: Callable) -> Callable:
        ledger = self

        @contextlib.contextmanager
        def span(name: str):
            if threading.get_ident() != ledger._main:
                with original(name):
                    yield
                return
            index = ledger.open(ledger.code(OBS_SPANS.get(name, "obs." + name)))
            try:
                with original(name):
                    yield
            finally:
                ledger.close(index)

        return span

    def _tracking_init(self, original: Callable, class_name: str) -> Callable:
        ledger = self
        registry = self.tracked[class_name]
        wrap_callback = class_name == "Task"

        @functools.wraps(original)
        def __init__(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            registry.append((ledger.repeat_label, instance))
            if wrap_callback and instance.callback is not None:
                instance.callback = ledger.traced(instance.callback, CALLBACK_SPAN)

        return __init__

    # -- analysis ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (``self_s`` included)."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=f"i{self.parent.itemsize}").astype(np.int64)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "repeat": np.frombuffer(self.repeat, dtype=f"i{self.repeat.itemsize}").astype(np.int64),
            "duration": duration,
            "self_s": duration - covered,
        }

    def totals(self, repeats: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds summed over
        the spans recorded in ``repeats``."""
        data = self.arrays()
        mask = np.isin(data["repeat"], np.array(sorted(repeats), dtype=np.int64))
        result: dict[str, dict[str, float]] = {}
        names = data["name"][mask]
        if names.size == 0:
            return result
        busy = np.bincount(names, weights=data["duration"][mask], minlength=len(self.names))
        own = np.bincount(names, weights=data["self_s"][mask], minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        for code, name in enumerate(self.names):
            if calls[code]:
                result[name] = {
                    "calls": int(calls[code]),
                    "busy_s": float(busy[code]),
                    "self_s": float(own[code]),
                }
        return result

    def harvest(self, repeat: int) -> None:
        """Fold the counters of the objects created in ``repeat`` into
        :attr:`counts` and drop the references (they keep flights alive)."""
        for class_name, entries in self.tracked.items():
            mine = [obj for label, obj in entries if label == repeat]
            entries[:] = [(label, obj) for label, obj in entries if label != repeat]
            for obj in mine:
                for key, read in _TRACKED_COUNTERS[class_name]:
                    self.counts[(repeat, key)] = self.counts.get((repeat, key), 0.0) + read(obj)

    def save(self, path, workload: str) -> None:
        """Write every span (``name`` indexes ``names``; ``repeat`` is the
        campaign number, or ``-1 - k`` for set-up ``k``)."""
        data = self.arrays()
        np.savez_compressed(
            path,
            workload=np.array(workload),
            names=np.array(self.names),
            **{key: value for key, value in data.items() if key != "self_s"},
        )


def span_cost(calls: int = 50_000, trials: int = 3) -> float:
    """Measured cost of recording one span [s]: a wrapped no-op call minus
    a bare one, fastest of ``trials``."""
    ledger = Ledger()

    def noop() -> None:
        return None

    wrapped = ledger.traced(noop, "calibration")
    best = float("inf")
    with ledger.phase("calibration", OUTSIDE):
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)


# -- observers: counters measured where the work happens ---------------------------


def _count_frames(ledger: Ledger, args: tuple, result: Any) -> None:
    ledger.count("mavlink.frames", len(result))


def _count_lanes(ledger: Ledger, args: tuple, result: Any) -> None:
    ledger.count("sim.batch.stacks.lanes", len(args[1]))


def _count_polls(ledger: Ledger, args: tuple, result: Any) -> None:
    # A poll is useful when it returned results the previous poll of the
    # same run had not (the service answers with every result so far).
    run_id, results = args[1], len(result[1])
    if results > ledger.polled.get(run_id, 0):
        ledger.count("campaign.client.useful_polls")
    ledger.polled[run_id] = results


def _count_violations(ledger: Ledger, args: tuple, result: Any) -> None:
    if result is not None:
        ledger.count("core.violations")


_TRACKED_COUNTERS: dict[str, tuple[tuple[str, Callable[[Any], float]], ...]] = {
    "Task": (("rtos.deadline_misses", lambda task: task.stats.deadline_misses),),
    "MemGuard": (("memsys.throttle_events", lambda guard: guard.throttle_events),),
    "NetworkStack": (
        ("network.sent", lambda stack: stack.stats.sent),
        ("network.dropped_firewall", lambda stack: stack.stats.dropped_firewall),
    ),
}

_OBSERVERS: dict[str, Callable] = {
    "core.monitor": _count_violations,
    "mavlink.receive": _count_frames,
    "sim.batch.stacks.compute": _count_lanes,
    "campaign.client.poll": _count_polls,
}


# -- per-layer metrics ---------------------------------------------------------------

#: Span name of the root of every set-up and timed campaign.
SETUP_ROOT = "bench.setup"
CAMPAIGN_ROOT = "bench.campaign"


class LayerView:
    """Ledger totals of a traced run, per timed campaign and per set-up."""

    def __init__(self, ledger: Ledger, campaigns: list[int], setups: list[int],
                 extras: dict[str, float]) -> None:
        self.campaigns = max(1, len(campaigns))
        self.setups = max(1, len(setups))
        self.timed = ledger.totals(set(campaigns))
        self.setup = ledger.totals(set(setups))
        self.counts: dict[str, float] = {}
        self.setup_counts: dict[str, float] = {}
        for (repeat, key), value in ledger.counts.items():
            target = (self.counts if repeat in campaigns
                      else self.setup_counts if repeat in setups else None)
            if target is not None:
                target[key] = target.get(key, 0.0) + value
        self.extras = extras

    def self_s(self, name: str) -> float:
        return self.timed.get(name, {}).get("self_s", 0.0) / self.campaigns

    def busy_s(self, name: str) -> float:
        return self.timed.get(name, {}).get("busy_s", 0.0) / self.campaigns

    def calls(self, name: str) -> float:
        return self.timed.get(name, {}).get("calls", 0) / self.campaigns

    def setup_busy_s(self, name: str) -> float:
        return self.setup.get(name, {}).get("busy_s", 0.0) / self.setups

    def setup_self_s(self, name: str) -> float:
        return self.setup.get(name, {}).get("self_s", 0.0) / self.setups

    def setup_calls(self, name: str) -> float:
        return self.setup.get(name, {}).get("calls", 0) / self.setups

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0) / self.campaigns

    def setup_count(self, key: str) -> float:
        return self.setup_counts.get(key, 0.0) / self.setups

    def extra(self, key: str) -> float:
        return float(self.extras.get(key, 0.0))

    def spans(self) -> float:
        """Spans the wrappers recorded per timed campaign (roots excluded)."""
        calls = sum(totals["calls"] for name, totals in self.timed.items()
                    if name != CAMPAIGN_ROOT)
        return calls / self.campaigns


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: ``(metric, unit, better, value)``: every per-layer metric of the traced
#: run, with the direction an optimisation should move it.  Times
#: are self times per timed campaign unless the name says otherwise:
#: ``compile_s``, ``replay_s``, ``lookup_s`` and ``execute_s`` are busy times
#: of phases that contain other layers, and ``sim.batch.trace_s``,
#: ``sim.batch.timing_classes`` and the ``setup_`` metrics are per set-up,
#: where the trace cache fills (the scalar substrate the batch core traces).
#: ``campaign.runner.execute_self_s`` is the runner's time in its backend
#: outside every timed layer: backend glue, and for the service backend the
#: client's sleep between result polls.
PER_LAYER: tuple[tuple[str, str, str, Callable[[LayerView], float]], ...] = (
    ("sim.flight.build_s", "s", "lower", lambda v: v.self_s("sim.flight.build")),
    ("sim.flight.run_self_s", "s", "lower", lambda v: v.self_s("sim.flight.run")),
    ("sim.flight.callback_self_s", "s", "lower", lambda v: v.self_s(CALLBACK_SPAN)),
    ("rtos.advance_self_s", "s", "lower", lambda v: v.self_s("rtos.advance")),
    ("rtos.deadline_misses", "count", "lower", lambda v: v.count("rtos.deadline_misses")),
    ("memsys.throttle_events", "count", "lower", lambda v: v.count("memsys.throttle_events")),
    ("rtos.setup_advance_self_s", "s", "lower", lambda v: v.setup_self_s("rtos.advance")),
    ("memsys.setup_throttle_events", "count", "lower",
     lambda v: v.setup_count("memsys.throttle_events")),
    ("dynamics.step_s", "s", "lower", lambda v: v.self_s("dynamics.step")),
    ("dynamics.steps", "count", "lower", lambda v: v.calls("dynamics.step")),
    ("sensors.sample_s", "s", "lower", lambda v: v.self_s("sensors.sample")),
    ("control.compute_s", "s", "lower", lambda v: v.self_s("control.compute")),
    ("control.estimate_s", "s", "lower", lambda v: v.self_s("control.estimate")),
    ("core.monitor_s", "s", "lower", lambda v: v.self_s("core.monitor")),
    ("core.decision_s", "s", "lower", lambda v: v.self_s("core.decision")),
    ("core.violations", "count", "lower", lambda v: v.count("core.violations")),
    ("mavlink.send_s", "s", "lower", lambda v: v.self_s("mavlink.send")),
    ("mavlink.receive_s", "s", "lower", lambda v: v.self_s("mavlink.receive")),
    ("mavlink.frames", "count", "lower", lambda v: v.count("mavlink.frames")),
    ("network.send_s", "s", "lower", lambda v: v.self_s("network.send")),
    ("network.sent", "count", "lower", lambda v: v.count("network.sent")),
    ("network.dropped_firewall", "count", "lower", lambda v: v.count("network.dropped_firewall")),
    ("sim.recorder.record_s", "s", "lower", lambda v: v.self_s("sim.recorder.record")),
    ("sim.metrics.compute_s", "s", "lower", lambda v: v.self_s("sim.metrics.compute")),
    ("sim.batch.trace_s", "s", "lower", lambda v: v.setup_busy_s("sim.batch.trace")),
    ("sim.batch.timing_classes", "count", "lower", lambda v: v.setup_calls("sim.batch.trace")),
    ("sim.batch.compile_s", "s", "lower", lambda v: v.busy_s("sim.batch.compile")),
    ("sim.batch.replay_s", "s", "lower", lambda v: v.busy_s("sim.batch.replay")),
    ("sim.batch.replay_other_s", "s", "lower", lambda v: v.self_s("sim.batch.replay")),
    ("sim.batch.run_self_s", "s", "lower", lambda v: v.self_s("sim.batch.run")),
    ("sim.batch.noise_s", "s", "lower", lambda v: v.self_s("sim.batch.noise")),
    ("sim.batch.physics.step_s", "s", "lower", lambda v: v.self_s("sim.batch.physics.step")),
    ("sim.batch.physics.steps", "count", "lower", lambda v: v.calls("sim.batch.physics.step")),
    ("sim.batch.stacks.compute_s", "s", "lower", lambda v: v.self_s("sim.batch.stacks.compute")),
    ("sim.batch.stacks.lanes_per_call", "count", "higher",
     lambda v: _ratio(v.count("sim.batch.stacks.lanes"), v.calls("sim.batch.stacks.compute"))),
    ("campaign.runner.lookup_s", "s", "lower", lambda v: v.busy_s("campaign.runner.lookup")),
    ("campaign.runner.execute_s", "s", "lower", lambda v: v.busy_s("campaign.runner.execute")),
    ("campaign.runner.execute_self_s", "s", "lower", lambda v: v.self_s("campaign.runner.execute")),
    ("analysis.export_s", "s", "lower", lambda v: v.self_s("analysis.export")),
    ("store.key_s", "s", "lower", lambda v: v.self_s("store.key")),
    ("store.get_s", "s", "lower", lambda v: v.self_s("store.get")),
    ("store.gets", "count", "lower", lambda v: v.calls("store.get")),
    ("store.hit_ratio", "ratio", "higher", lambda v: v.extra("store.hit_ratio")),
    ("store.has_arrays_s", "s", "lower", lambda v: v.self_s("store.has_arrays")),
    ("store.put_s", "s", "lower", lambda v: v.self_s("store.put")),
    ("store.puts", "count", "lower", lambda v: v.calls("store.put")),
    ("campaign.client.submit_s", "s", "lower", lambda v: v.self_s("campaign.client.submit")),
    ("campaign.client.poll_s", "s", "lower", lambda v: v.self_s("campaign.client.poll")),
    ("campaign.client.polls", "count", "lower", lambda v: v.calls("campaign.client.poll")),
    ("campaign.client.results_per_poll", "ratio", "higher",
     lambda v: _ratio(v.count("campaign.client.useful_polls"), v.calls("campaign.client.poll"))),
    ("campaign.transport.claims", "count", "lower", lambda v: v.extra("campaign.transport.claims")),
    ("campaign.transport.completions", "count", "lower",
     lambda v: v.extra("campaign.transport.completions")),
    ("campaign.transport.heartbeats", "count", "lower",
     lambda v: v.extra("campaign.transport.heartbeats")),
    ("campaign.transport.lease_reissues", "count", "lower",
     lambda v: v.extra("campaign.transport.lease_reissues")),
    ("campaign.worker.flight_s", "s", "lower", lambda v: v.extra("campaign.worker.flight_s")),
    ("campaign.worker.busy_ratio", "ratio", "higher", lambda v: v.extra("campaign.worker.busy_ratio")),
    ("campaign.dispatch_overhead_s", "s", "lower", lambda v: v.extra("campaign.dispatch_overhead_s")),
    ("unattributed_s", "s", "lower", lambda v: v.self_s(CAMPAIGN_ROOT)),
    ("trace.wall_s", "s", "lower", lambda v: v.busy_s(CAMPAIGN_ROOT)),
    ("trace.spans", "count", "lower", lambda v: v.spans()),
    ("trace.ledger_cost_s", "s", "lower", lambda v: v.spans() * v.extra("trace.span_cost_s")),
    ("trace.untraced_flights_per_s", "1/s", "higher", lambda v: v.extra("trace.untraced_flights_per_s")),
    ("trace.traced_flights_per_s", "1/s", "higher", lambda v: v.extra("trace.traced_flights_per_s")),
    ("trace.overhead_ratio", "ratio", "lower", lambda v: v.extra("trace.overhead_ratio")),
    ("failed_fraction", "ratio", "lower", lambda v: v.extra("failed_fraction")),
    ("verdict_mismatches", "count", "lower", lambda v: v.extra("verdict_mismatches")),
)
