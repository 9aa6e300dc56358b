"""Campaign work-queue worker: ``python -m repro.campaign.worker --connect-http URL``.

One worker process drains a coordinator's HTTP work queue (see
:mod:`repro.campaign.transport`): claim a task, heartbeat the lease while
executing it, publish the result, repeat until the coordinator raises the
stop sentinel.  Workers are stateless — any number may attach to the same
coordinator (a :class:`~repro.campaign.service.CampaignService` spawns local
ones, but workers started by hand on any host that can reach its URL —
directly or through a proxy — join the same fleet), and a worker killed
mid-task loses nothing: its lease expires and the task is re-issued.
An idle worker also exits when the coordinator grants it a *retire credit*
(autoscaling scale-down) or when the coordinator has been unreachable for
the orphan timeout.  While the coordinator is unreachable, idle polling
backs off exponentially with jitter (capped) instead of fixed-interval
ticks, so a large fleet does not synchronously hammer a restarting daemon;
a worker whose coordinator speaks a different protocol version exits
immediately with a clear message (see
:meth:`~repro.campaign.transport.HttpWorkQueueClient.check_protocol`).

Task payloads are ``(fn, item)`` pairs; results are ``("ok", fn(item))`` or
``("error", traceback_text)``.  ``fn`` must be importable on the worker
(module-level or ``functools.partial`` of one) — the same constraint a
process pool imposes.

Coordinators may require a shared-secret auth token (``--auth-token``, or
``$REPRO_CAMPAIGN_AUTH_TOKEN`` — preferred, since the environment does not
show up in process listings).  A worker whose token is missing or wrong is
rejected with a distinct error and **exits immediately with a clear
message** — authentication failures are configuration errors that retrying
cannot fix, so they never retry-loop.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
import time
import traceback
from typing import Any

from ..obs import EventLog, configure_json_logging, emit, set_event_log
from .workqueue import (
    WorkQueue,
    WorkQueueAuthError,
    WorkQueueProtocolError,
    resolve_auth_token,
)

__all__ = ["default_worker_id", "main", "run_worker"]


def default_worker_id(pid: int | None = None) -> str:
    """Lease label of a worker started without ``--worker-id``: ``w<pid>``
    (of this process unless ``pid`` names another)."""
    return f"w{os.getpid() if pid is None else pid}"


def _idle_delay(
    queue: WorkQueue, poll_interval: float, orphan_timeout: float
) -> float:
    """Sleep before the next idle poll tick.

    While the coordinator answers, this is the plain ``poll_interval``.
    While it is *unreachable* (the HTTP client counts
    ``consecutive_failures``; queues without the attribute never back off),
    the delay doubles per failed round trip up to a cap, with jitter — so a
    large fleet behind a restarting daemon spreads its reconnect attempts
    instead of synchronously hammering it every tick.  The cap stays well
    under the orphan timeout: backing off must never keep a worker alive
    past the point it should have given its coordinator up.
    """
    failures = getattr(queue, "consecutive_failures", 0)
    if failures <= 0:
        return poll_interval
    cap = max(poll_interval, min(5.0, orphan_timeout / 8.0))
    delay = min(cap, poll_interval * (2.0 ** min(failures, 16)))
    return delay * (0.5 + 0.5 * random.random())


class _Heartbeat:
    """Background thread refreshing one lease while a task runs."""

    def __init__(self, queue: WorkQueue, lease: Any, interval: float) -> None:
        self._queue = queue
        self._lease = lease
        self._interval = max(interval, 0.01)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._done.wait(self._interval):
            try:
                self._queue.heartbeat(self._lease)
            except WorkQueueAuthError:
                # A coordinator restarted mid-task with a rotated secret:
                # stop heartbeating (the lease expires there like any dead
                # worker's) instead of dying with a raw traceback; the main
                # loop surfaces the auth error on its next request.
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        self._thread.join()


def run_worker(
    connect_http: str | None = None,
    worker_id: str | None = None,
    lease_timeout: float = 30.0,
    poll_interval: float = 0.05,
    max_tasks: int | None = None,
    orphan_timeout: float | None = None,
    queue: WorkQueue | None = None,
    auth_token: str | None = None,
) -> int:
    """Drain the queue until stop is requested; returns the tasks completed.

    The queue is given as exactly one of ``connect_http="http://..."`` (a
    coordinator's base URL) or ``queue`` (an explicit
    :class:`~repro.campaign.workqueue.WorkQueue`, mainly for tests).

    ``lease_timeout`` must match the coordinator's: the heartbeat refreshes
    the lease every quarter of it.  ``max_tasks`` bounds the number of tasks
    (``None`` = unbounded) — useful for tests and one-shot workers.

    ``auth_token`` is the shared secret (``None`` falls back to
    ``$REPRO_CAMPAIGN_AUTH_TOKEN``); a coordinator rejecting it raises
    :class:`~repro.campaign.workqueue.WorkQueueAuthError` out of this
    function immediately — never a retry loop.

    ``orphan_timeout`` (default ``4 * lease_timeout``) guards against an
    abandoned queue: a coordinator killed without cleanup never raises the
    stop sentinel, so an idle worker whose coordinator has been
    *unreachable* this long exits on its own instead of polling forever.
    """
    if (connect_http is None) == (queue is None):
        raise ValueError("exactly one of connect_http or queue must be given")
    if queue is not None and auth_token is not None:
        # An explicit queue object carries its own credentials (or none),
        # so a token here could never take effect and must not be silently
        # dropped.
        raise ValueError(
            "auth_token cannot be applied to an explicit queue object; "
            "configure the token on the queue client itself"
        )
    if queue is None:
        from .transport import HttpWorkQueueClient

        queue = HttpWorkQueueClient(
            connect_http, auth_token=resolve_auth_token(auth_token)
        )
    if worker_id is None:
        worker_id = default_worker_id()
    if orphan_timeout is None:
        orphan_timeout = 4.0 * lease_timeout
    check_protocol = getattr(queue, "check_protocol", None)
    if check_protocol is not None:
        # Fail fast on daemon/client version skew with a clear message
        # (WorkQueueProtocolError) instead of decoding errors mid-campaign.
        # An unreachable coordinator returns None here and is handled by
        # the normal degrade/orphan path below.
        check_protocol()
    completed = 0
    while max_tasks is None or completed < max_tasks:
        # Stop is checked *before* claiming: an aborted campaign's leftover
        # tasks must not be drained by the fleet — only the task already in
        # hand is finished.
        if queue.stop_requested():
            break
        claimed = queue.claim(worker_id)
        if claimed is None:
            if queue.try_retire():
                break  # the autoscaler dismissed this (idle) worker
            age = queue.coordinator_age()
            if age is not None and age > orphan_timeout:
                break  # coordinator died without cleanup; don't poll forever
            time.sleep(_idle_delay(queue, poll_interval, orphan_timeout))
            continue
        index, payload, lease = claimed
        emit("task-claim", "campaign.worker", worker=worker_id, index=index)
        with _Heartbeat(queue, lease, lease_timeout / 4.0):
            try:
                fn, item = payload
                result = ("ok", fn(item))
            except Exception:
                # The failure travels back as data; the coordinator decides
                # whether to raise.  Worker-killing failures (os._exit, OOM)
                # are the lease-expiry path instead.
                result = ("error", traceback.format_exc())
        queue.complete(index, result, lease)
        completed += 1
        emit(
            "task-complete", "campaign.worker",
            worker=worker_id, index=index, ok=result[0] == "ok",
        )
    emit("worker-exit", "campaign.worker", worker=worker_id, completed=completed)
    return completed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.worker",
        description="Attach one campaign worker to a coordinator's HTTP "
        "work queue.",
    )
    parser.add_argument("--connect-http", required=True, metavar="URL",
                        help="coordinator base URL (http[s]://host:port"
                        "[/prefix]; works through reverse proxies and load "
                        "balancers)")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="shared-secret token (default: "
                        "$REPRO_CAMPAIGN_AUTH_TOKEN; prefer the environment "
                        "— argv is visible in process listings)")
    parser.add_argument("--worker-id", default=None,
                        help="lease label (default: w<pid>)")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        help="coordinator's lease expiry [s] (default: 30)")
    parser.add_argument("--poll", type=float, default=0.05, dest="poll_interval",
                        help="idle polling interval [s] (default: 0.05)")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="exit after completing this many tasks")
    parser.add_argument("--orphan-timeout", type=float, default=None,
                        help="exit when idle and the coordinator has been "
                        "unreachable this long [s] (default: 4x lease "
                        "timeout)")
    parser.add_argument("--metrics-jsonl", default=None, metavar="PATH",
                        help="append structured JSONL event records "
                        "(task claims/completions, worker exit) to PATH")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_json:
        configure_json_logging()
    event_log = None
    if args.metrics_jsonl is not None:
        event_log = EventLog(
            args.metrics_jsonl,
            run_id=args.worker_id or default_worker_id(),
        )
        set_event_log(event_log)
    try:
        run_worker(
            args.connect_http,
            worker_id=args.worker_id,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
            max_tasks=args.max_tasks,
            orphan_timeout=args.orphan_timeout,
            auth_token=args.auth_token,
        )
    except WorkQueueAuthError as exc:
        # A wrong shared secret is a configuration error: exit with a
        # clear message (no token in it), never retry-loop.
        print(f"worker: authentication failed: {exc}", file=sys.stderr)
        return 2
    except WorkQueueProtocolError as exc:
        # So is version skew: retrying cannot make the two sides speak the
        # same protocol, so exit loudly before claiming anything.
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Invalid connection parameters (e.g. a --connect-http URL with a
        # query string) are configuration errors too: fail loudly before
        # any request is made, never retry-loop on a malformed endpoint.
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    finally:
        if event_log is not None:
            set_event_log(None)
            event_log.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
