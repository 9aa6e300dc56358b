"""Campaign service: ``python -m repro.campaign.service``.

The one coordinator of the distribution plane.  One
:class:`~repro.campaign.transport.HttpWorkQueue` hosts a registry of
concurrent *runs* over run-id-namespaced queue state, one worker fleet
serves whichever runs have pending tasks, and "users" are HTTP clients that
*submit* work instead of owning coordinator processes::

    POST   <base>/runs              submit a run -> {"ok": true, "run": id}
    GET    <base>/runs              registry listing
    GET    <base>/runs/<id>/status  one run's lifecycle + queue state
    GET    <base>/runs/<id>/results one run's results
    DELETE <base>/runs/<id>         cancel the run, free its queue state
    POST   <base>/rotate-token      install a new auth secret (old one kept)

Three kinds of run share the registry:

* **Spec runs** — ``POST /runs`` with ``{"spec": {...}}``, a JSON campaign
  spec in the exact dialect of the spec *files* (:mod:`repro.campaign.spec`).
  The daemon builds the grid/search and a
  :class:`~repro.campaign.runner.CampaignRunner` whose backend enqueues
  every variant into the shared queue under the run's id; results are the
  campaign's JSON report.  The daemon's own store (``--store``) caches
  cells across tenants — two users submitting the same grid share flights.
* **Task runs** — ``POST /runs`` with ``{"tasks": [<b64 pickle>, ...]}``,
  raw ``(fn, item)`` task payloads.  This is the wire form of
  :class:`~repro.campaign.backends.ServiceBackend` (``--backend service
  --connect-http URL``): a *client-side* :class:`CampaignRunner` keeps its
  own store/policy and only rents the daemon's fleet for execution.
* **Campaign runs** — hosted in-process by :meth:`CampaignService.host_run`
  through the same backend spec runs use, with no HTTP round trip: every
  :class:`~repro.campaign.backends.DistributedBackend` campaign is one.

The fleet is the service's too.  The housekeeping thread re-issues expired
leases, reaps exited workers, autoscales the local fleet (``max_workers``:
spawn on backlog, retire idle workers through retire credits) and stops
respawning a fleet that keeps dying without progress.  Once every spawned
worker of a fixed fleet is dead and no other worker has claimed or
heartbeated within the lease timeout, the fleet is *dead*: every running
run with work outstanding fails, and new submissions are refused (HTTP
503) until a worker attaches — so a dead fleet ends runs loudly instead of
leaving their tenants polling.  Cancelling or draining one run never raises
the transport stop sentinel; only daemon shutdown sends the fleet home.

The trust model is the work queue's: task payloads and results are pickled,
so expose the port only to clients you would also hand a pickle file to,
and prefer ``$REPRO_CAMPAIGN_AUTH_TOKEN`` (plus
``$REPRO_CAMPAIGN_AUTH_TOKEN_PREVIOUS`` during rotation) over ``--auth-token``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..obs import (
    EventLog,
    configure_json_logging,
    default_registry,
    emit,
    set_event_log,
)
from .backends import ordered, unwrap
from .transport import HttpWorkQueue, _decode, _encode
from .worker import default_worker_id
from .workqueue import AUTH_TOKEN_ENV, resolve_auth_tokens, validate_run_id

logger = logging.getLogger(__name__)

__all__ = ["CampaignService", "RunCancelled", "RunFailed", "main"]

#: Respawn waves into an all-dead fleet without a single completion in
#: between before the autoscaler gives up (the crash-loop guard).
_MAX_DEAD_WAVES = 3


class RunCancelled(BaseException):
    """A hosted run was cancelled while executing.

    Deliberately **not** an :class:`Exception`: the campaign runner treats
    any ``Exception`` out of a backend as a backend failure and finishes
    the campaign *serially in-process* — which, inside the daemon, would
    fly a cancelled tenant's whole grid on the daemon thread.  Cancellation
    must unwind, not fall back.
    """


class RunFailed(BaseException):
    """The service failed a hosted run (its fleet died with work
    outstanding).  Not an :class:`Exception` for the same reason as
    :class:`RunCancelled`: a spec run inside the daemon must end as
    ``failed``, not be flown serially on the daemon thread."""


class _HostedRun:
    """Registry record of one run (spec-, task- or campaign-kind)."""

    __slots__ = (
        "run_id", "kind", "label", "state", "submitted", "finished",
        "total", "error", "result_json", "thread",
    )

    def __init__(self, run_id: str, kind: str, label: str, total: int) -> None:
        self.run_id = run_id
        self.kind = kind
        self.label = label
        self.state = "running"
        self.submitted = time.time()
        self.finished: float | None = None
        self.total = total
        self.error: str | None = None
        self.result_json: dict[str, Any] | None = None
        self.thread: threading.Thread | None = None

    def describe(self) -> dict[str, Any]:
        entry = {
            "run": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "state": self.state,
            "total": self.total,
            "submitted_s_ago": round(max(0.0, time.time() - self.submitted), 3),
        }
        if self.error is not None:
            entry["error"] = self.error
        return entry


class _HostedQueueBackend:
    """Executor backend of a run hosted in the service's own process.

    Tasks go into the *shared* queue under this run's id, the fleet (shared
    with every other run) executes them, and ``map`` reads this run's
    results straight from the queue.  ``map`` may be called many times on
    one run (an adaptive search flies wave after wave); every call numbers
    its tasks after the previous call's, so a late result of an earlier
    call can never pose as one of this call's.  A cancelled run raises
    :class:`RunCancelled` out of ``map`` and a failed one
    :class:`RunFailed`, so the runner unwinds instead of falling back to
    serial.
    """

    name = "service-hosted"

    def __init__(self, service: "CampaignService", record: _HostedRun) -> None:
        self._service = service
        self._record = record
        self._next_index = 0
        self._seen: set[int] = set()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: Callable[[int, Any], None] | None = None,
    ) -> Iterator[Any]:
        items = list(items)
        if not items:
            return
        base = self._next_index
        self._next_index += len(items)
        try:
            for offset, item in enumerate(items):
                self._service.queue.enqueue_in(
                    self._record.run_id, base + offset, (fn, item)
                )
        except (KeyError, ValueError):
            self._check_running()  # cancelled or failed meanwhile
            raise
        self._service._wake.set()  # let the autoscaler see the backlog now
        yield from ordered(self._completions(base), len(items), on_complete)

    def _check_running(self) -> None:
        state = self._record.state
        if state == "cancelled":
            raise RunCancelled(self._record.run_id)
        if state == "failed":
            raise RunFailed(self._record.error)

    def _completions(self, base: int) -> Iterator[tuple[int, Any]]:
        """Poll this run's results; yield ``(index - base, value)`` pairs."""
        while True:
            self._check_running()
            fresh = self._service.queue.collect_run(
                self._record.run_id, self._seen
            )
            for index in sorted(fresh):
                self._seen.add(index)
                if index >= base:
                    yield index - base, unwrap(
                        self._record.label or "service", index - base,
                        fresh[index],
                    )
            time.sleep(self._service.poll_interval)


class CampaignService:
    """The coordinator: one shared queue server, a run registry, a fleet.

    Constructing the service binds and starts the HTTP server (``port=0``
    picks an ephemeral port, published via :attr:`url`) and the
    housekeeping thread, which spawns ``workers`` local worker processes
    attached over HTTP on its first tick and then runs lease re-issue,
    task-run completion and fleet management.  Use as a context manager or
    call :meth:`close`.

    With ``max_workers`` set, the service autoscales its local fleet: while
    tasks are pending it spawns workers up to ``max_workers``, and once the
    backlog is covered it grants *retire credits* — one credit dismisses
    exactly one idle worker.  Scale decisions are appended to
    :attr:`scale_events`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store_dir: str | Path | None = None,
        auth_tokens: Sequence[str] | None = None,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.05,
        max_workers: int | None = None,
    ) -> None:
        self.check_fleet(
            port=port, workers=workers, max_workers=max_workers,
            lease_timeout=lease_timeout, poll_interval=poll_interval,
        )
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_workers = max_workers
        self.queue = HttpWorkQueue(host, port, auth_token=auth_tokens)
        self._store = None
        if store_dir is not None:
            from ..store import CampaignStore

            self._store = CampaignStore(Path(store_dir))
        self._lock = threading.Lock()
        self._runs: dict[str, _HostedRun] = {}
        self._closing = threading.Event()
        self._wake = threading.Event()
        self._fixed_port = port != 0
        self._started = time.monotonic()
        #: Autoscaler decisions, in order: dicts with ``event``
        #: ("scale-up" / "scale-down"), ``workers`` (alive after),
        #: ``backlog`` and ``elapsed`` [s] since the service started.
        self.scale_events: list[dict[str, Any]] = []
        self._spawned = 0
        #: Lease labels of every worker this service spawned, dead or alive.
        self._local_ids: set[str] = set()
        self._alive_reported: int | None = None
        # Crash-loop guard: respawn waves that start from an all-dead fleet
        # must make progress, or we are re-spawning workers into the same
        # fatal condition forever.
        self._dead_waves = 0
        self._completions_at_wave = -1
        # Route /runs requests on the queue's HTTP server to this service.
        self.queue._server.service = self
        self._processes: list[subprocess.Popen] = []
        self._housekeeper = threading.Thread(
            target=self._housekeeping, args=(workers,),
            name="service-housekeeping", daemon=True,
        )
        self._housekeeper.start()

    @staticmethod
    def check_fleet(
        port: int,
        workers: int,
        max_workers: int | None,
        lease_timeout: float,
        poll_interval: float,
    ) -> None:
        """Reject fleet options that could never work (ValueError)."""
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if max_workers is not None:
            if max_workers < 1:
                raise ValueError("max_workers must be at least 1")
            if max_workers < workers:
                raise ValueError("max_workers must be >= workers")
            # Autoscaling sizes a fleet the service can *count* — its own
            # spawns.  Workers attached from outside on a fixed port would
            # consume (and be permanently dismissed by) retire credits
            # derived from the local surplus.
            if port != 0:
                raise ValueError(
                    "autoscaling (max_workers) manages service-spawned "
                    "workers and cannot be combined with a fixed port "
                    "(externally attached workers would consume its retire "
                    "credits)"
                )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def url(self) -> str:
        return self.queue.url

    @property
    def address(self) -> tuple[str, int]:
        return self.queue.address

    def close(self) -> None:
        """Shut the daemon down: raise the transport stop sentinel (the one
        event that sends the fleet home), reap workers, stop serving."""
        self._closing.set()
        self._wake.set()
        # The housekeeper stops first, so no worker is spawned mid-reap.
        self._housekeeper.join(timeout=5.0)
        self.queue.request_stop()
        self._reap()
        if self._fixed_port:
            # A fixed port means an external fleet may be attached, and the
            # server is the only place it can observe the stop sentinel.
            # Linger so idle workers poll it and exit now, not via the much
            # longer orphan timeout.  External workers choose their own
            # --poll, so the window is generous; one polling slower than
            # ~2 s still has the orphan timeout as backstop.
            time.sleep(max(2.0, 4 * self.poll_interval))
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block until :meth:`close` is called (signal handlers call it)."""
        while not self._closing.wait(0.5):
            pass

    def host_run(self, label: str = "") -> _HostedQueueBackend:
        """Host one in-process run; the returned backend drives it.

        The backend is the one spec runs use: tasks go straight into the
        shared queue and results come straight out of it, with no HTTP
        round trip to this process.  The run ends with the service.
        """
        record = self._open_run(f"r{uuid.uuid4().hex[:12]}", "campaign", label, 0)
        return _HostedQueueBackend(self, record)

    # -- service API (called from HTTP handler threads) --------------------------

    def submit(self, request: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """``POST /runs``: start a spec run or a task run."""
        spec = request.get("spec")
        tasks = request.get("tasks")
        if (spec is None) == (tasks is None):
            return 400, {
                "ok": False,
                "error": "submit exactly one of 'spec' (JSON campaign spec) "
                         "or 'tasks' (base64-pickled task payloads)",
            }
        run_id = request.get("run")
        if run_id is None:
            run_id = f"svc{uuid.uuid4().hex[:12]}"
        try:
            validate_run_id(str(run_id))
        except ValueError as exc:
            return 400, {"ok": False, "error": str(exc)}
        label = str(request.get("label") or "")
        if self._fleet_dead():
            return 503, {
                "ok": False,
                "error": f"no live worker: all {self._spawned} spawned "
                         "workers exited and no other worker is attached "
                         "(attach one with python -m repro.campaign.worker "
                         "--connect-http URL, or restart the service)",
            }
        if spec is not None:
            return self._submit_spec(str(run_id), spec, label)
        return self._submit_tasks(str(run_id), tasks, label)

    def list_runs(self) -> tuple[int, dict[str, Any]]:
        """``GET /runs``: the registry, newest submission last."""
        with self._lock:
            records = sorted(
                self._runs.values(), key=lambda record: record.submitted
            )
            entries = [record.describe() for record in records]
        return 200, {"ok": True, "mode": "service", "runs": entries}

    def run_status(self, run_id: str) -> tuple[int, dict[str, Any]]:
        """``GET /runs/<id>/status``: lifecycle plus live queue state."""
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return 404, {"ok": False, "error": f"unknown run {run_id!r}"}
            entry = record.describe()
        queue_state = self.queue.status()["runs"].get(run_id)
        if queue_state is not None:
            entry["queue"] = queue_state
        return 200, {"ok": True, **entry}

    def run_results(self, run_id: str) -> tuple[int, dict[str, Any]]:
        """``GET /runs/<id>/results``.

        Task runs answer with the raw base64-pickled result blobs keyed by
        task index (the submitting client decodes them — same trust model
        as the queue itself).  Spec runs answer with the campaign's JSON
        report once the run is done.
        """
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return 404, {"ok": False, "error": f"unknown run {run_id!r}"}
            state = record.state
            entry: dict[str, Any] = {
                "ok": True, "run": run_id, "kind": record.kind,
                "state": state, "total": record.total,
            }
            if record.error is not None:
                entry["error"] = record.error
            result_json = record.result_json
        if record.kind == "tasks":
            results = self.queue.collect_run(run_id)
            entry["done"] = len(results)
            entry["results"] = {
                str(index): _encode(value) for index, value in results.items()
            }
            if state == "running" and len(results) >= record.total:
                # Task runs have no driving thread; finalize on observation
                # (the housekeeper does the same for unwatched runs).
                entry["state"] = self._finish_task_run(record)
        else:
            entry["result"] = result_json
        return 200, entry

    def cancel(self, run_id: str) -> tuple[int, dict[str, Any]]:
        """``DELETE /runs/<id>``: cancel if running and free the run's
        queue state — pending tasks, leases and results.

        The registry record stays (state ``cancelled``/its final state) so
        late status queries explain what happened instead of 404ing.
        """
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return 404, {"ok": False, "error": f"unknown run {run_id!r}"}
            was_running = record.state == "running"
            if was_running:
                record.state = "cancelled"
                record.finished = time.time()
        self.queue.remove_run(run_id)
        emit("run-cancel", "campaign.service", run=run_id)
        return 200, {"ok": True, "run": run_id, "cancelled": was_running}

    def rotate_token(
        self, request: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``POST /rotate-token``: install a new primary auth secret.

        Requires auth to be enabled (the request itself must carry a
        currently-valid token; the transport checked that before routing
        here).  The previous primary stays accepted so the attached fleet
        keeps serving while workers re-configure.
        """
        new_token = request.get("new_token")
        if not isinstance(new_token, str) or not new_token:
            return 400, {"ok": False,
                         "error": "rotate-token needs a non-empty 'new_token'"}
        try:
            self.queue.rotate_auth_token(
                new_token, keep_previous=int(request.get("keep_previous", 1))
            )
        except ValueError as exc:
            return 400, {"ok": False, "error": str(exc)}
        emit("token-rotate", "campaign.service")
        return 200, {"ok": True}

    # -- runs --------------------------------------------------------------------

    def _open_run(
        self, run_id: str, kind: str, label: str, total: int
    ) -> _HostedRun:
        """Register a run and its queue state (ValueError if it exists)."""
        record = _HostedRun(run_id, kind, label, total)
        with self._lock:
            if run_id in self._runs:
                raise ValueError(f"run {run_id!r} already exists")
            self.queue.add_run(run_id)
            self._runs[run_id] = record
        return record

    def _submit_tasks(
        self, run_id: str, tasks: Any, label: str
    ) -> tuple[int, dict[str, Any]]:
        if not isinstance(tasks, list) or not tasks:
            return 400, {"ok": False,
                         "error": "'tasks' must be a non-empty list"}
        try:
            payloads = [_decode(blob) for blob in tasks]
        except Exception as exc:
            return 400, {"ok": False,
                         "error": f"undecodable task payload: {exc!r}"}
        try:
            self._open_run(run_id, "tasks", label, len(payloads))
        except ValueError as exc:
            return 409, {"ok": False, "error": str(exc)}
        for index, payload in enumerate(payloads):
            self.queue.enqueue_in(run_id, index, payload)
        self._wake.set()
        emit("run-submit", "campaign.service",
             run=run_id, kind="tasks", total=len(payloads))
        logger.info("run %s submitted: %d task(s)", run_id, len(payloads))
        return 200, {"ok": True, "run": run_id, "total": len(payloads)}

    def _submit_spec(
        self, run_id: str, spec: Any, label: str
    ) -> tuple[int, dict[str, Any]]:
        from .runner import CampaignRunner
        from .spec import build_grid, build_search

        if not isinstance(spec, Mapping):
            return 400, {"ok": False, "error": "'spec' must be a JSON object"}
        if ("axes" in spec) == ("adaptive" in spec):
            return 400, {
                "ok": False,
                "error": "spec must contain exactly one of 'axes' (grid "
                         "sweep) or 'adaptive' (boundary search)",
            }
        section = dict(spec.get("runner") or {})
        try:
            work = build_search(spec) if "adaptive" in spec else build_grid(spec)
            total = len(work) if "axes" in spec else 0
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"ok": False, "error": str(exc)}
        try:
            record = self._open_run(run_id, "spec", label, total)
        except ValueError as exc:
            return 409, {"ok": False, "error": str(exc)}
        # The daemon's fleet is the execution substrate for hosted runs:
        # the spec's backend/mode/max_workers describe a substrate the
        # submitting client does not own here, so they are ignored.  Store
        # policy is the daemon's too (shared cells across tenants).
        runner = CampaignRunner(
            backend=_HostedQueueBackend(self, record),
            store=self._store,
            record_arrays=bool(section.get("record_arrays"))
            and self._store is not None,
            telemetry=bool(section.get("telemetry", True)),
        )
        record.thread = threading.Thread(
            target=self._run_spec,
            args=(record, runner, work, "adaptive" in spec),
            name=f"service-run-{run_id}",
            daemon=True,
        )
        record.thread.start()
        emit("run-submit", "campaign.service",
             run=run_id, kind="spec", total=total)
        logger.info("run %s submitted: spec campaign (%d variant(s))",
                    run_id, total)
        return 200, {"ok": True, "run": run_id, "total": total}

    def _run_spec(
        self, record: _HostedRun, runner: Any, work: Any, adaptive: bool
    ) -> None:
        try:
            if adaptive:
                result = work.run(runner)
            else:
                result = runner.run(work)
            payload = json.loads(result.to_json())
        except (RunCancelled, RunFailed):
            return  # cancel()/_fail_runs() already recorded the final state
        except Exception as exc:
            with self._lock:
                record.state = "failed"
                record.error = repr(exc)
                record.finished = time.time()
            logger.warning("run %s failed: %r", record.run_id, exc)
            return
        finally:
            # The report (if any) lives in the registry record; the queue
            # state has nothing left to serve.
            self.queue.remove_run(record.run_id)
        with self._lock:
            # A cancel that raced the final variants wins: the tenant asked
            # for the run to end, so it ends as cancelled.
            if record.state == "running":
                record.state = "done"
                record.result_json = payload
                record.finished = time.time()
        emit("run-done", "campaign.service", run=record.run_id)
        logger.info("run %s done", record.run_id)

    def _finish_task_run(self, record: _HostedRun) -> str:
        """Mark a fully-collected task run done; returns the final state."""
        with self._lock:
            if record.state == "running":
                record.state = "done"
                record.finished = time.time()
                emit("run-done", "campaign.service", run=record.run_id)
            return record.state

    def _fail_runs(self, reason: str) -> None:
        """End every running run as ``failed``: pending tasks and leases are
        dropped (already-collected results stay readable until the run is
        deleted), and each run's driver raises instead of polling on."""
        with self._lock:
            failed = [r for r in self._runs.values() if r.state == "running"]
            for record in failed:
                record.state = "failed"
                record.error = reason
                record.finished = time.time()
        for record in failed:
            self.queue.cancel_run(record.run_id)
            emit("run-fail", "campaign.service", run=record.run_id,
                 reason=reason)
        if failed:
            logger.warning("failed %d run(s): %s", len(failed), reason)

    # -- fleet -------------------------------------------------------------------

    def _spawn_worker(self) -> subprocess.Popen:
        """Spawn one ``python -m repro.campaign.worker`` attached over this
        service's own HTTP endpoint — the path an external fleet uses, so
        local and remote workers are indistinguishable to the queue.

        Whatever is importable here is made importable in the worker (task
        payloads reference functions by module path), and the shared secret
        travels via the environment — never argv, which is world-readable
        in process listings.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path if entry)
        tokens = self.queue._auth_tokens
        if tokens:
            env[AUTH_TOKEN_ENV] = tokens[0]
        default_registry().counter(
            "repro_worker_spawns_total",
            "Worker processes spawned by the campaign service.",
        ).inc()
        emit("worker-spawn", "campaign.service")
        self._spawned += 1
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign.worker",
                "--connect-http", self.queue.url,
                "--lease-timeout", str(self.lease_timeout),
                "--poll", str(self.poll_interval),
            ],
            env=env,
        )
        self._local_ids.add(default_worker_id(proc.pid))
        return proc

    def _fleet_dead(self) -> bool:
        """A fixed fleet is dead once every worker it spawned has exited
        and no other worker (an external one on the same port) claimed or
        heartbeated within the lease timeout.  An autoscaled fleet is never
        dead: it respawns, and the crash-loop guard ends that instead."""
        if self.max_workers is not None or not self._spawned or self._processes:
            return False
        attached = self.queue.workers_seen(self.lease_timeout)
        return not attached - self._local_ids

    def _reap(self) -> None:
        deadline = time.time() + max(2.0, 8 * self.poll_interval)
        for proc in self._processes:
            try:
                proc.wait(timeout=max(0.0, deadline - time.time()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def _manage_fleet(self) -> None:
        """One fleet tick: forget exited workers, then either fail the runs
        of a dead fixed fleet or take one autoscaler step."""
        self._processes = [p for p in self._processes if p.poll() is None]
        alive_before = len(self._processes)
        backlog, outstanding = self.queue.backlog()
        if self.max_workers is None:
            if outstanding and self._fleet_dead():
                # No worker will ever drain the queue: fail loudly and let
                # each run's driver fall back instead of polling forever.
                self._fail_runs(
                    f"all {self._spawned} spawned workers exited with "
                    f"{outstanding} task(s) outstanding and no other "
                    "worker attached"
                )
            return
        # Scale up: while tasks are pending and the fleet is below the
        # ceiling, spawn one worker per pending task.
        alive = alive_before
        elapsed = time.monotonic() - self._started
        if backlog > 0 and alive < self.max_workers:
            for _ in range(min(backlog, self.max_workers - alive)):
                self._processes.append(self._spawn_worker())
            alive = len(self._processes)
            self._record_scale("scale-up", alive, backlog, elapsed)
        # A shrink (retired *or* crashed workers) is recorded against the
        # count the previous tick reported.
        if self._alive_reported is not None and alive < self._alive_reported:
            self._record_scale("scale-down", alive, backlog, elapsed)
        self._alive_reported = alive
        # Scale down: exactly as many retire credits as there are workers
        # beyond the unfinished tasks — only *idle* workers consume one, so
        # a worker mid-flight is never dismissed.
        self.queue.set_retire_credits(max(0, alive - outstanding))
        if alive_before or alive == 0:
            return
        # A wave was spawned into an all-dead fleet: it must make progress.
        completions = self.queue.stats_snapshot()["completions"]
        if completions == self._completions_at_wave:
            self._dead_waves += 1
        else:
            self._dead_waves = 1
            self._completions_at_wave = completions
        if self._dead_waves > _MAX_DEAD_WAVES:
            emit("crash-loop", "campaign.service",
                 waves=self._dead_waves, outstanding=outstanding)
            self._fail_runs(
                "autoscaler respawned an all-dead fleet "
                f"{self._dead_waves} times without progress "
                f"({outstanding} task(s) outstanding)"
            )
            self._dead_waves = 0

    def _record_scale(
        self, event: str, workers: int, backlog: int, elapsed: float
    ) -> None:
        entry = {
            "event": event,
            "workers": workers,
            "backlog": backlog,
            "elapsed": round(elapsed, 3),
        }
        self.scale_events.append(entry)
        default_registry().gauge(
            "repro_workers_alive",
            "Live service-spawned workers after the last scale event.",
        ).set(workers)
        emit(event, "campaign.service",
             workers=workers, backlog=backlog, elapsed=entry["elapsed"])
        logger.info(
            "autoscaler %s: %d worker(s), backlog %d (t=%.1fs)",
            event, workers, backlog, elapsed,
        )

    def _housekeeping(self, workers: int) -> None:
        # Fleet decisions are a handful of cheap probes and scale-up latency
        # is user-visible, so the tick is short; a submission wakes it early.
        tick = max(self.poll_interval, min(self.lease_timeout / 4.0, 0.5))
        while True:
            self._wake.wait(tick)
            self._wake.clear()
            if self._closing.is_set():
                return
            if workers:
                # The initial fleet is spawned here, on the first tick: a
                # campaign hosted right after construction is enqueued
                # before the first fork, and the fleet list has one writer.
                self._processes = [self._spawn_worker() for _ in range(workers)]
                workers = 0
            self.queue.reclaim_expired(self.lease_timeout)
            # Task runs have no driving thread; completion is observed here
            # (and on demand in run_results — this just keeps GET /runs
            # honest without a results poll).
            with self._lock:
                records = [
                    record for record in self._runs.values()
                    if record.kind == "tasks" and record.state == "running"
                ]
            for record in records:
                if len(self.queue.collect_run(record.run_id)) >= record.total:
                    self._finish_task_run(record)
            self._manage_fleet()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.service",
        description="Run the persistent multi-tenant campaign service: an "
        "HTTP coordinator daemon hosting many concurrent runs, served by "
        "one attached worker fleet.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port (default: 8765; 0 picks one)")
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker processes to spawn (default: 2; "
                        "0 = bring your own fleet via the worker CLI)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="result-store directory shared by hosted spec "
                        "runs (cells cached across tenants)")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="shared-secret token clients and workers must "
                        "present (default: $REPRO_CAMPAIGN_AUTH_TOKEN; "
                        "prefer the environment — argv is visible in "
                        "process listings)")
    parser.add_argument("--previous-auth-token", default=None, metavar="TOKEN",
                        help="additionally accepted old token(s), comma-"
                        "separated, for rotation without fleet restart "
                        "(default: $REPRO_CAMPAIGN_AUTH_TOKEN_PREVIOUS)")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        help="seconds without a heartbeat before a claimed "
                        "task is re-issued (default: 30)")
    parser.add_argument("--poll", type=float, default=0.05,
                        dest="poll_interval",
                        help="hosted-run result polling interval [s] "
                        "(default: 0.05)")
    parser.add_argument("--metrics-jsonl", metavar="PATH", default=None,
                        help="append structured JSONL event records (run "
                        "submissions/completions, worker spawns) to PATH")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    if args.log_json:
        configure_json_logging()
    event_log = None
    if args.metrics_jsonl is not None:
        event_log = EventLog(args.metrics_jsonl, run_id="service")
        set_event_log(event_log)
    try:
        tokens = resolve_auth_tokens(args.auth_token, args.previous_auth_token)
    except ValueError as exc:
        print(f"service: {exc}", file=sys.stderr)
        return 2
    try:
        service = CampaignService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store_dir=args.store,
            auth_tokens=tokens,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
        )
    except (OSError, ValueError) as exc:
        print(f"service: {exc}", file=sys.stderr)
        return 2
    host, port = service.address
    print(f"campaign service listening on http://{host}:{port} "
          f"(auth {'on' if tokens else 'off'}, "
          f"{args.workers} local worker(s))", flush=True)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: service._closing.set())
    try:
        service.serve_forever()
    finally:
        service.close()
        if event_log is not None:
            set_event_log(None)
            event_log.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
