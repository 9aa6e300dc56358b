"""HTTP/JSON work-queue transport: the wire between coordinator and workers.

:class:`HttpWorkQueue` is the coordinator side — in-memory queue state for
any number of hosted *runs* behind a small HTTP server — and
:class:`HttpWorkQueueClient` is the worker side used by
``python -m repro.campaign.worker --connect-http URL``.  The one coordinator
that hosts the queue is :class:`~repro.campaign.service.CampaignService`
(also inside every :class:`~repro.campaign.backends.DistributedBackend`
campaign).

Wire protocol: each queue operation is one ``POST`` to an endpoint named
after it, with the message fields as a JSON body and the response as a JSON
body; task payloads and results are pickled and base64-encoded inside the
JSON::

    POST <base>/claim      {"worker": "w123"}
        -> 200 {"ok": true, "index": 3, "run": "r...", "payload": "<b64>",
                "lease": "<token>"}
        -> 200 {"ok": true, "index": null, "retire": false}  # nothing pending
    POST <base>/heartbeat  {"lease": "<token>"}        -> 200 {"ok": true}
    POST <base>/complete   {"index": 3, "run": "r...",
                            "lease": "...", "result": "<b64>"}
    POST <base>/stop       {}                          -> 200 {"ok": true, "stop": false}
    POST <base>/retire     {}                          -> 200 {"ok": true, "retire": false}
    POST <base>/ping       {}                          -> 200 {"ok": true, "protocol": 2, ...}
    GET  <base>/ping                                   -> 200 {"ok": true, "protocol": 2, ...}
    GET  <base>/metrics                                -> 200 Prometheus text
    GET  <base>/status                                 -> 200 {"pending": ..., "runs": ...}

The service's run-registry API is routed through the same server::

    POST   <base>/runs              {"spec": {...}} or {"tasks": [...]}
    GET    <base>/runs              registry listing
    GET    <base>/runs/<id>/status  one run's lifecycle + queue state
    GET    <base>/runs/<id>/results one run's results (auth required)
    DELETE <base>/runs/<id>         cancel the run, free its queue state
    POST   <base>/rotate-token      {"new_token": "..."} (auth required)

Every exchange is a single self-contained request/response — no streaming,
no connection reuse, no server push — so any reverse proxy, load balancer
or tunnel that can forward a POST can sit in front of the coordinator.
``--connect-http`` accepts a path prefix (``http://lb.example.com/campaign``)
and ``https://`` URLs for fleets whose proxy terminates TLS; ``GET /ping``
doubles as a load-balancer health check.

**Authentication** — a queue constructed with ``auth_token`` (one token or
an accepted set, see :meth:`HttpWorkQueue.rotate_auth_token`) requires every
wire request to carry a matching token, in the JSON body (``"token"``) or,
for bodyless GET/DELETE, the ``X-Auth-Token`` header.  The comparison is
constant-time (:func:`hmac.compare_digest`).  Rejections are the *distinct*
response ``401 {"ok": false, "denied": "auth", ...}`` — never the generic
degrade path — and the client raises
:class:`~repro.campaign.workqueue.WorkQueueAuthError` so a misconfigured
worker exits with a clear message instead of retry-looping.  The token never
appears in logs, error messages or results.  ``/ping``, ``/metrics``,
``/status``, ``GET /runs`` and per-run status stay unauthenticated
observability surfaces; they never expose lease tokens or payloads.

Fault semantics:

* **Heartbeat leases** — the server timestamps every heartbeat;
  :meth:`HttpWorkQueue.reclaim_expired` moves stale claims back into their
  run's pending set and the task is re-issued.  A worker whose connection
  dies mid-task simply stops heartbeating — the disconnect *is* the missed
  heartbeat.
* **Run namespacing** — ``complete`` messages carry the run id the task was
  claimed under; results of unknown, cancelled or removed runs are ignored,
  so a worker of a killed previous coordinator finishing late cannot
  smuggle its outcome into a new run listening on the same port.
* **Orphan detection** — server *reachability* is the coordinator
  heartbeat.  The client tracks its last successful round trip and reports
  the elapsed time as ``coordinator_age()``; transient unreachability (a
  coordinator restarting) merely degrades: ``claim`` returns ``None``,
  ``stop_requested`` returns ``False``, and the worker keeps polling until
  the server is back or the orphan timeout expires.

Pickles on the wire mean one trust model: only expose the endpoint (even
proxied) to hosts you would also hand a pickle file to.
"""

from __future__ import annotations

import base64
import hmac
import json
import logging
import pickle
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable, NamedTuple, Sequence

from ..obs import MetricsRegistry
from .workqueue import (
    PROTOCOL_VERSION,
    WorkQueueAuthError,
    WorkQueueProtocolError,
    validate_run_id,
)

logger = logging.getLogger(__name__)

__all__ = ["HttpWorkQueue", "HttpWorkQueueClient", "parse_http_url"]

#: Endpoints served (one per queue operation).
_OPS = ("claim", "heartbeat", "complete", "stop", "retire", "ping")


def parse_http_url(url: str) -> str:
    """Validate a coordinator base URL; returns it without a trailing slash.

    Accepts ``http://`` and ``https://`` (a TLS-terminating proxy in front
    of the coordinator) and an optional path prefix (a reverse proxy
    routing by path).
    """
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme not in ("http", "https"):
        raise ValueError(
            f"coordinator URL {url!r} must start with http:// or https://"
        )
    if not parsed.netloc:
        raise ValueError(f"coordinator URL {url!r} has no host")
    try:
        parsed.port
    except ValueError:
        # A malformed port would fail every request and degrade into idle
        # polling until the orphan timeout; reject it up front instead.
        raise ValueError(f"coordinator URL {url!r} has a non-numeric port") from None
    if parsed.query or parsed.fragment:
        # Operation paths are appended to the base URL, so a query/fragment
        # would end up *inside* the per-op endpoint ("...?team=a/claim") and
        # every request would 404 against the coordinator.
        raise ValueError(
            f"coordinator URL {url!r} must not contain a query string or "
            "fragment: per-operation paths (/claim, /heartbeat, ...) are "
            "appended to it"
        )
    return url.rstrip("/")


def _encode(value: Any) -> str:
    return base64.b64encode(pickle.dumps(value)).decode("ascii")


def _decode(blob: str) -> Any:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


class _Lease(NamedTuple):
    """Client-side lease handle: opaque to the worker loop, it carries the
    token plus the run id the task must be answered under."""

    token: str
    run: str
    index: int


class _Claim:
    """Server-side record of one leased task (of one hosted run)."""

    __slots__ = ("run", "index", "payload", "worker_id", "last_beat")

    def __init__(
        self, run: str, index: int, payload: bytes, worker_id: str
    ) -> None:
        self.run = run
        self.index = index
        self.payload = payload
        self.worker_id = worker_id
        self.last_beat = time.time()


class _RunState:
    """Queue state of one hosted run."""

    __slots__ = ("run_id", "pending", "results", "cancelled", "created",
                 "enqueued_total")

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pending: dict[int, bytes] = {}
        self.results: dict[int, Any] = {}
        self.cancelled = False
        self.created = time.time()
        self.enqueued_total = 0


class _HttpHandler(BaseHTTPRequestHandler):
    # Self-contained request/responses with explicit Content-Length; the
    # connection closes after each exchange (single-request semantics).
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the per-request stderr log: coordinators poll many times
        a second, and request logs are where secrets go to leak."""

    def _run_segments(self) -> list[str] | None:
        """``["<id>", ...]`` after a ``/runs`` segment, ``[]`` for ``/runs``
        itself, ``None`` when the path has no run-registry shape (or no
        service is attached to answer it)."""
        if self.server.service is None:
            return None
        path = urllib.parse.urlsplit(self.path).path
        segments = [part for part in path.split("/") if part]
        if "runs" not in segments:
            return None
        return segments[segments.index("runs") + 1:]

    def _service_denied(self, request: dict[str, Any]) -> dict[str, Any] | None:
        """Auth check for service endpoints: the token may arrive in the
        JSON body or (for bodyless GET/DELETE) the ``X-Auth-Token`` header."""
        if "token" not in request:
            header = self.headers.get("X-Auth-Token")
            if header:
                request = {**request, "token": header}
        return self.server.work_queue._check_auth(request)

    def do_GET(self) -> None:  # pragma: no cover - exercised via the client
        # Read-only observability surfaces.  Like /ping they are served
        # without authentication: they expose queue *state* (depths, worker
        # ids, lease ages — never lease tokens or payloads) so dashboards
        # and CI probes can scrape an authenticated coordinator without a
        # shared secret, and without bumping the auth-denial counter.
        # The exception is /runs/<id>/results — results are tenant data.
        tail = self._run_segments()
        if tail is not None:
            service = self.server.service
            if not tail:
                status, response = service.list_runs()
            elif len(tail) == 2 and tail[1] == "status":
                status, response = service.run_status(tail[0])
            elif len(tail) == 2 and tail[1] == "results":
                denied = self._service_denied({})
                if denied is not None:
                    self._reply(401, denied)
                    return
                status, response = service.run_results(tail[0])
            else:
                status, response = 404, {
                    "ok": False,
                    "error": "GET /runs, /runs/<id>/status or "
                             "/runs/<id>/results",
                }
            self._reply(status, response)
            return
        path = self.path.rstrip("/")
        if path.endswith("/ping") or self.path in ("/", ""):
            self._reply(200, self.server.work_queue.ping_info())
        elif path.endswith("/metrics"):
            self._reply_text(200, self.server.work_queue.metrics_text())
        elif path.endswith("/status"):
            self._reply(200, self.server.work_queue.status())
        else:
            self._reply(404, {"ok": False, "error": "POST to /<op>"})

    def do_POST(self) -> None:  # pragma: no cover - exercised via the client
        op = self.path.rstrip("/").rsplit("/", 1)[-1]
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length)
            request = json.loads(body) if body else {}
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
            response = self._dispatch_post(op, request)
        except Exception as exc:
            response = {"ok": False, "error": repr(exc)}
        if response.get("ok"):
            status = 200
        elif response.get("denied") == "auth":
            status = 401  # distinct: proxies/metrics see auth failures as such
        else:
            status = getattr(self, "_service_status", 400)
        self._reply(status, response)

    def _dispatch_post(
        self, op: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        self._service_status = 400
        service = self.server.service
        if service is not None and op in ("runs", "rotate-token"):
            denied = self._service_denied(request)
            if denied is not None:
                return denied
            request.pop("token", None)  # never hand the secret downstream
            if op == "runs":
                self._service_status, response = service.submit(request)
            else:
                self._service_status, response = service.rotate_token(request)
            return response
        if op not in _OPS:
            # An unknown endpoint must not dispatch with whatever "op"
            # the body smuggled in.
            return {"ok": False, "error": f"unknown endpoint {op!r}"}
        request["op"] = op
        return self.server.work_queue._handle(request)

    def do_DELETE(self) -> None:  # pragma: no cover - exercised via the client
        tail = self._run_segments()
        if tail is None or len(tail) != 1:
            self._reply(404, {"ok": False, "error": "DELETE /runs/<id>"})
            return
        denied = self._service_denied({})
        if denied is not None:
            self._reply(401, denied)
            return
        status, response = self.server.service.cancel(tail[0])
        self._reply(status, response)

    def _reply(self, status: int, response: dict[str, Any]) -> None:
        self._send_blob(
            status, "application/json", json.dumps(response).encode("ascii")
        )

    def _reply_text(self, status: int, text: str) -> None:
        # The content type Prometheus scrapers expect for text exposition.
        self._send_blob(
            status, "text/plain; version=0.0.4", text.encode("utf-8")
        )

    def _send_blob(self, status: int, content_type: str, blob: bytes) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(blob)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(blob)
        except OSError:
            pass  # client went away mid-response; its next poll retries
        self.close_connection = True


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True
    work_queue: "HttpWorkQueue"
    #: The CampaignService answering /runs requests; None on a bare queue
    #: (the endpoints then 404).
    service: Any = None


class HttpWorkQueue:
    """Coordinator-side work queue served over HTTP.

    Constructing the queue binds and starts the server — ``port=0`` picks
    an ephemeral port, published via :attr:`address`/:attr:`url` — and
    remote workers reach it through :class:`HttpWorkQueueClient` (directly
    or through any HTTP proxy).

    **Runs are the unit of state.**  The queue hosts a registry of
    :class:`_RunState` — one per run id — and claims hand out tasks of
    *whichever* non-cancelled run has work (round-robin across runs, lowest
    index within a run), so one attached worker fleet serves every hosted
    run and keeps serving when any single run drains.  The coordinator adds
    and retires runs on the fly (:meth:`add_run` / :meth:`cancel_run` /
    :meth:`remove_run`).  Lifecycle is split accordingly:
    :meth:`request_stop` raises the *transport-level* sentinel ("this
    coordinator is going away, workers may exit"), while cancelling or
    completing a run never touches it — a drained run must not send a
    shared fleet home while sibling runs still have work.

    Task payloads are pickled at :meth:`enqueue_in` time (so an unpicklable
    payload fails loudly in the coordinator, not silently on a worker) and
    kept in memory; nothing touches disk.

    With ``auth_token`` set — a single token or a small accepted set
    (primary first, then still-valid previous tokens; see
    :meth:`rotate_auth_token`) — every wire request must carry a matching
    token; in-process calls (the coordinator's own) bypass the wire and
    need none.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str | Sequence[str] | None = None,
    ) -> None:
        if isinstance(auth_token, str):
            auth_token = (auth_token,)
        elif auth_token is not None:
            auth_token = tuple(auth_token)
        if auth_token is not None and (
            not auth_token or not all(auth_token)
        ):
            raise ValueError("auth tokens must be non-empty strings")
        self._auth_tokens = auth_token
        self._lock = threading.Lock()
        self._runs: dict[str, _RunState] = {}
        self._claims: dict[str, _Claim] = {}
        self._rotation = 0
        self._stop = False
        self._retire_credits = 0
        self._started = time.time()
        #: Worker id -> time of its last claim or heartbeat.
        self._contacts: dict[str, float] = {}
        #: High-water mark of the pending depth summed over every run.
        self.pending_peak = 0
        # Every operation of every worker flows through this server, so
        # these counters are authoritative for the whole coordinator — they
        # are served at ``GET /metrics``.
        self.metrics = MetricsRegistry()
        self._m_enqueued = self.metrics.counter(
            "repro_queue_enqueued_total", "Tasks enqueued on this coordinator.")
        self._m_claims = self.metrics.counter(
            "repro_queue_claims_total", "Task leases issued.")
        self._m_completions = self.metrics.counter(
            "repro_queue_completions_total", "Results accepted (any run id).")
        self._m_heartbeats = self.metrics.counter(
            "repro_queue_heartbeats_total", "Lease heartbeats received.")
        self._m_reissues = self.metrics.counter(
            "repro_queue_lease_reissues_total", "Expired leases re-queued.")
        self._m_denied = self.metrics.counter(
            "repro_queue_auth_denials_total",
            "Wire requests rejected by the shared-secret check.")
        self._g_pending = self.metrics.gauge(
            "repro_queue_pending", "Tasks awaiting a claim right now.")
        self._g_claimed = self.metrics.gauge(
            "repro_queue_claimed", "Tasks currently under lease.")
        # Per-run views of the same flow, labeled by run id: the service
        # dashboard tells tenants apart while the unlabeled totals above
        # keep their whole-coordinator meaning (and their scrape names).
        self._m_run_enqueued = self.metrics.counter(
            "repro_run_enqueued_total", "Tasks enqueued, by run id.")
        self._m_run_completions = self.metrics.counter(
            "repro_run_completions_total", "Results accepted, by run id.")
        self._g_run_pending = self.metrics.gauge(
            "repro_run_pending", "Tasks awaiting a claim, by run id.")
        self._server = _HttpServer((host, port), _HttpHandler)
        self._server.work_queue = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="HttpWorkQueue",
            daemon=True,
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is listening on."""
        host, port = self._server.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        """Base URL workers on this host can reach the server under."""
        host, port = self.address
        if host in ("", "0.0.0.0", "::"):
            host = "127.0.0.1"
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving.  Workers observe connection failures from here on
        and retire via their orphan timeout."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "HttpWorkQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- run registry ------------------------------------------------------------

    def add_run(self, run_id: str) -> None:
        """Host a new run alongside the existing ones.

        Raises :class:`ValueError` if the id is invalid or already hosted —
        two tenants sharing a run id would merge their result sets.
        """
        validate_run_id(run_id)
        with self._lock:
            if run_id in self._runs:
                raise ValueError(f"run {run_id!r} is already hosted")
            self._runs[run_id] = _RunState(run_id)

    def remove_run(self, run_id: str) -> None:
        """Forget a hosted run entirely: pending tasks, results, and any
        live leases on it (late results are then ignored)."""
        with self._lock:
            self._runs.pop(run_id, None)
            self._drop_leases(run_id)

    def cancel_run(self, run_id: str) -> bool:
        """Stop one hosted run without touching its siblings or the
        transport: drop its pending tasks, release its leases (late results
        are then ignored), keep already-collected results readable.
        Returns ``False`` for an unknown run."""
        with self._lock:
            state = self._runs.get(run_id)
            if state is None:
                return False
            state.cancelled = True
            state.pending.clear()
            self._drop_leases(run_id)
        logger.info("run %s cancelled", run_id)
        return True

    def run_ids(self) -> list[str]:
        """Ids of every hosted run, sorted."""
        with self._lock:
            return sorted(self._runs)

    def enqueue_in(self, run_id: str, index: int, payload: Any) -> None:
        """Enqueue one task into a hosted run (KeyError if the run is
        unknown, ValueError if it was cancelled)."""
        blob = pickle.dumps(payload)
        with self._lock:
            state = self._runs[run_id]
            if state.cancelled:
                raise ValueError(f"run {run_id!r} is cancelled")
            state.pending[index] = blob
            state.enqueued_total += 1
            self.pending_peak = max(
                self.pending_peak,
                sum(len(run.pending) for run in self._runs.values()),
            )
        self._m_enqueued.inc()
        self._m_run_enqueued.inc(run=run_id)

    def collect_run(
        self, run_id: str, seen: Iterable[int] = ()
    ) -> dict[int, Any]:
        """Results of one hosted run not in ``seen`` (empty if unknown)."""
        known = set(seen)
        with self._lock:
            state = self._runs.get(run_id)
            if state is None:
                return {}
            return {
                index: result
                for index, result in state.results.items()
                if index not in known
            }

    def backlog(self) -> tuple[int, int]:
        """``(pending, outstanding)`` summed over the live runs: tasks
        awaiting a claim, and those plus the ones under lease."""
        with self._lock:
            pending = sum(
                len(state.pending) for state in self._runs.values()
                if not state.cancelled
            )
            return pending, pending + len(self._claims)

    def rotate_auth_token(self, new_token: str, keep_previous: int = 1) -> None:
        """Install ``new_token`` as the primary secret while the most
        recently accepted ``keep_previous`` old tokens stay valid, so an
        attached worker fleet re-configures at leisure instead of
        restarting.  Only valid on a coordinator that already requires
        auth: rotation must never silently turn an open coordinator into
        an authenticated one (workers would all start failing) or exist as
        a path that could do the reverse.
        """
        if not new_token:
            raise ValueError("auth tokens must be non-empty strings")
        if keep_previous < 0:
            raise ValueError("keep_previous must be >= 0")
        with self._lock:
            if self._auth_tokens is None:
                raise ValueError(
                    "cannot rotate tokens on a coordinator without auth"
                )
            kept = tuple(
                token for token in self._auth_tokens if token != new_token
            )[:keep_previous]
            self._auth_tokens = (new_token,) + kept
        logger.info("auth token rotated (%d previous kept)", len(kept))

    def ping_info(self) -> dict[str, Any]:
        """Structured ping body: protocol schema version and service mode,
        so clients and workers can fail fast on daemon/client version skew
        instead of hitting decode errors mid-campaign."""
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "mode": "service",
            "service": True,
        }

    # -- coordinator side --------------------------------------------------------

    def reclaim_expired(self, lease_timeout: float) -> list[int]:
        """Re-queue claimed tasks whose heartbeat is older than the lease;
        returns their indices.  A worker that is merely slow (not dead)
        keeps running and publishes a duplicate — equally valid — result.
        Workers not heard from within the lease are forgotten too (see
        :meth:`workers_seen`)."""
        now = time.time()
        reclaimed: list[int] = []
        with self._lock:
            for worker, seen in list(self._contacts.items()):
                if now - seen > lease_timeout:
                    del self._contacts[worker]
            for token, claim in list(self._claims.items()):
                if now - claim.last_beat <= lease_timeout:
                    continue
                del self._claims[token]
                state = self._runs.get(claim.run)
                if state is not None and not state.cancelled:
                    state.pending[claim.index] = claim.payload
                    reclaimed.append(claim.index)
        for index in reclaimed:
            self._m_reissues.inc()
            logger.warning("lease on task %d expired; re-queued", index)
        return reclaimed

    def workers_seen(self, within: float) -> set[str]:
        """Ids of the workers that claimed or heartbeated in the last
        ``within`` seconds."""
        cutoff = time.time() - within
        with self._lock:
            return {w for w, seen in self._contacts.items() if seen >= cutoff}

    def request_stop(self) -> None:
        """Raise the *transport-level* shutdown sentinel: this coordinator
        is going away and attached workers may exit.  A single run draining
        or being cancelled never calls this — the fleet outlives every
        individual run."""
        with self._lock:
            self._stop = True

    def stop_requested(self) -> bool:
        with self._lock:
            return self._stop

    def set_retire_credits(self, count: int) -> None:
        """Make exactly ``count`` retire credits available to idle workers.

        Setting (rather than adding) is idempotent: the autoscaler
        re-derives the surplus every tick, so credits left over from
        workers that died instead of retiring are withdrawn rather than
        stockpiled — a later scale-up cannot be instantly killed off by
        stale credits.
        """
        with self._lock:
            self._retire_credits = max(0, count)

    def try_retire(self) -> bool:
        """Consume one retire credit, if any: each credit dismisses exactly
        one idle worker."""
        with self._lock:
            if self._retire_credits > 0:
                self._retire_credits -= 1
                return True
        return False

    # -- observability -----------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Live queue state, JSON-ready (``GET /status``).  Leases are
        described — index, worker, heartbeat age — but their tokens are
        capability handles and never leave the server."""
        now = time.time()
        with self._lock:
            pending = sum(len(state.pending) for state in self._runs.values())
            done = sum(len(state.results) for state in self._runs.values())
            stop = self._stop
            retire = self._retire_credits
            claimed = [
                {
                    "run": claim.run,
                    "index": claim.index,
                    "worker": claim.worker_id,
                    "lease_age_s": round(max(0.0, now - claim.last_beat), 3),
                }
                for claim in self._claims.values()
            ]
            runs = {
                state.run_id: {
                    "pending": len(state.pending),
                    "claimed": sum(
                        1 for claim in self._claims.values()
                        if claim.run == state.run_id
                    ),
                    "done": len(state.results),
                    "enqueued_total": state.enqueued_total,
                    "cancelled": state.cancelled,
                    "age_s": round(max(0.0, now - state.created), 3),
                }
                for state in self._runs.values()
            }
        claimed.sort(key=lambda entry: (entry["run"], entry["index"]))
        return {
            "mode": "service",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(now - self._started, 3),
            "auth": self._auth_tokens is not None,
            "pending": pending,
            "claimed": claimed,
            "done": done,
            "stop": stop,
            "retire_credits": retire,
            "runs": runs,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of this queue's registry (depth
        gauges — total and per-run — are refreshed at render time)."""
        with self._lock:
            depths = {
                state.run_id: len(state.pending)
                for state in self._runs.values()
            }
            claimed = len(self._claims)
        self._g_pending.set(sum(depths.values()))
        self._g_claimed.set(claimed)
        for run_id, depth in depths.items():
            self._g_run_pending.set(depth, run=run_id)
        return self.metrics.render_prometheus()

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat counter snapshot plus current depths summed over every
        hosted run (JSON-ready)."""
        with self._lock:
            pending = sum(len(state.pending) for state in self._runs.values())
            claimed = len(self._claims)
        return {
            "enqueued": int(self._m_enqueued.value()),
            "claims": int(self._m_claims.value()),
            "completions": int(self._m_completions.value()),
            "heartbeats": int(self._m_heartbeats.value()),
            "lease_reissues": int(self._m_reissues.value()),
            "auth_denials": int(self._m_denied.value()),
            "pending": pending,
            "claimed": claimed,
        }

    # -- internal ----------------------------------------------------------------

    def _drop_leases(self, run_id: str) -> None:
        """Forget every lease on one run (caller holds the lock)."""
        for token, claim in list(self._claims.items()):
            if claim.run == run_id:
                del self._claims[token]

    def _claim_blob(self, worker_id: str) -> tuple[str, int, bytes, str] | None:
        with self._lock:
            self._contacts[worker_id] = time.time()
            # Round-robin across hosted runs so one worker fleet starves no
            # tenant, lowest index first within the chosen run.  Sorting by
            # run id keeps the rotation order stable between claims.
            active = sorted(
                (
                    state for state in self._runs.values()
                    if state.pending and not state.cancelled
                ),
                key=lambda state: state.run_id,
            )
            if not active:
                return None
            state = active[self._rotation % len(active)]
            self._rotation += 1
            run = state.run_id
            index = min(state.pending)
            blob = state.pending.pop(index)
            token = uuid.uuid4().hex
            self._claims[token] = _Claim(run, index, blob, worker_id)
        self._m_claims.inc()
        logger.debug("leased task %s/%d to worker %s", run, index, worker_id)
        return run, index, blob, token

    def _requeue(self, token: Any) -> None:
        """Return a claimed task to its run's pending set (failed hand-back).

        A ``None``/unknown token is a no-op: the lease was already
        reclaimed, so the task is pending (or completed by its re-claimer)
        already.  A task of a run cancelled or removed meanwhile is simply
        dropped with its lease.
        """
        with self._lock:
            claim = self._claims.pop(token, None) if token else None
            if claim is not None:
                state = self._runs.get(claim.run)
                if state is not None and not state.cancelled:
                    state.pending[claim.index] = claim.payload

    def _complete(
        self, index: int, run: str, result: Any, token: str | None
    ) -> None:
        accepted = False
        with self._lock:
            if token is not None:
                self._claims.pop(token, None)
            state = self._runs.get(run)
            if state is not None and not state.cancelled:
                state.results[index] = result
                accepted = True
        self._m_completions.inc()
        if accepted:
            self._m_run_completions.inc(run=run)
        # else: a late answer for an unknown or cancelled run — lease
        # released, result ignored.

    def _check_auth(self, request: dict[str, Any]) -> dict[str, Any] | None:
        """Denied-response for an unauthenticated request, ``None`` when ok.

        The check is constant-time (:func:`hmac.compare_digest`) and the
        responses never echo either token.  ``denied: "auth"`` is the
        distinct marker clients turn into a
        :class:`~repro.campaign.workqueue.WorkQueueAuthError` instead of
        the silent degrade every other failure gets.
        """
        accepted = self._auth_tokens
        if accepted is None:
            return None
        supplied = request.get("token")
        if not isinstance(supplied, str):
            self._m_denied.inc()
            logger.warning(
                "denied wire request op=%r: no auth token supplied",
                request.get("op"),
            )
            return {
                "ok": False,
                "denied": "auth",
                "error": "unauthenticated: this coordinator requires an "
                         "auth token and none was supplied (pass "
                         "--auth-token or set REPRO_CAMPAIGN_AUTH_TOKEN)",
            }
        supplied_bytes = supplied.encode("utf-8")
        matched = False
        for token in accepted:
            # No early break: every accepted token (primary + rotated-out
            # previous ones) is compared, so response timing reveals
            # neither which token matched nor how many are accepted.
            if hmac.compare_digest(supplied_bytes, token.encode("utf-8")):
                matched = True
        if not matched:
            self._m_denied.inc()
            logger.warning(
                "denied wire request op=%r: auth token rejected",
                request.get("op"),
            )
            return {
                "ok": False,
                "denied": "auth",
                "error": "unauthenticated: auth token rejected by the "
                         "coordinator",
            }
        return None

    def _handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one queue operation (called from server handler threads)."""
        denied = self._check_auth(request)
        if denied is not None:
            return denied
        op = request.get("op")
        if op == "claim":
            claimed = self._claim_blob(str(request.get("worker", "?")))
            if claimed is None:
                # A claim that finds nothing proves the worker is idle at
                # this very moment — the only state in which a retire
                # credit may dismiss it.  Answering the retire question
                # here saves the worker a dedicated round trip per poll.
                return {"ok": True, "index": None, "retire": self.try_retire()}
            run, index, blob, token = claimed
            return {
                "ok": True,
                "index": index,
                "run": run,
                "payload": base64.b64encode(blob).decode("ascii"),
                "lease": token,
            }
        if op == "heartbeat":
            with self._lock:
                claim = self._claims.get(str(request.get("lease", "")))
                if claim is not None:
                    claim.last_beat = time.time()
                    self._contacts[claim.worker_id] = claim.last_beat
            self._m_heartbeats.inc()
            return {"ok": True}
        if op == "complete":
            try:
                result = _decode(request["result"])
            except Exception as exc:
                # A result the coordinator cannot decode is dropped, but
                # the task must not be lost with it: put the claimed
                # payload straight back into the pending set (releasing
                # the lease alone would strand the task — reclaim only
                # scans live claims) so another worker re-flies it.
                self._requeue(request.get("lease"))
                return {"ok": False, "error": f"undecodable result: {exc!r}"}
            self._complete(
                int(request["index"]),
                str(request.get("run", "")),
                result,
                request.get("lease"),
            )
            return {"ok": True}
        if op == "stop":
            return {"ok": True, "stop": self.stop_requested()}
        if op == "retire":
            return {"ok": True, "retire": self.try_retire()}
        if op == "ping":
            return self.ping_info()
        return {"ok": False, "error": f"unknown op {op!r}"}


def _is_loopback(host: str | None) -> bool:
    if host is None:
        return False
    return host == "localhost" or host.startswith("127.") or host == "::1"


class HttpWorkQueueClient:
    """Worker-side :class:`~repro.campaign.workqueue.WorkQueue` over HTTP:
    one POST per operation against a coordinator (or proxy) base URL.

    Every operation is one short-lived request, so a worker holds no state
    the coordinator could leak: a dropped connection mid-task only stops
    the heartbeat, and the lease expires like any other death.  A
    temporarily unreachable coordinator degrades instead of raising —
    ``claim`` returns ``None``, ``stop_requested`` returns ``False`` — so a
    worker survives a coordinator *restart* on the same address and resumes
    claiming from the new run; :meth:`coordinator_age` grows from the last
    successful round trip so the standard orphan timeout eventually ends a
    worker whose coordinator never comes back.

    The one failure that does *not* degrade is an authentication rejection
    (``denied: "auth"`` from the server): polling can never fix a wrong
    shared secret, so it raises
    :class:`~repro.campaign.workqueue.WorkQueueAuthError` for the worker to
    surface and exit on.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        auth_token: str | None = None,
    ) -> None:
        if auth_token is not None and not auth_token:
            raise ValueError("auth_token must be a non-empty string")
        self._base_url = parse_http_url(base_url)
        self._timeout = timeout
        self._auth_token = auth_token
        self._last_contact = time.time()
        self._retire_answer: bool | None = None
        #: Failed round trips since the last successful one.  The worker
        #: loop reads this to back off exponentially while the coordinator
        #: is unreachable, instead of hammering a restarting daemon with
        #: fixed-interval ticks from the whole fleet at once.
        self.consecutive_failures = 0
        if _is_loopback(urllib.parse.urlsplit(self._base_url).hostname):
            # A loopback coordinator (notably: the one that spawned this
            # worker) must be reached directly — honouring an http_proxy
            # environment variable would route 127.0.0.1 through a proxy
            # that cannot reach it and silently hang the campaign as the
            # failures degrade into idle polling.  Non-loopback URLs keep
            # the default handlers, so workers behind forward proxies
            # still traverse them.
            self._opener = urllib.request.build_opener(
                urllib.request.ProxyHandler({})
            )
        else:
            self._opener = urllib.request.build_opener()

    def claim(self, worker_id: str) -> tuple[int, Any, Any] | None:
        response = self._request({"op": "claim", "worker": worker_id})
        if response is None:
            return None
        if response.get("index") is None:
            # An idle claim carries the retire answer (see the server);
            # cache it for the try_retire call that follows in the worker
            # loop, sparing it a request per poll tick.
            self._retire_answer = bool(response.get("retire"))
            return None
        index = int(response["index"])
        lease = _Lease(str(response["lease"]), str(response["run"]), index)
        try:
            payload = _decode(response["payload"])
        except Exception as exc:
            # Poison pill: a payload whose function is not importable here
            # must come back as a failed result, not crash-loop every
            # worker that claims it.
            self.complete(
                index, ("error", f"unreadable task payload: {exc!r}"), lease
            )
            return None
        return index, payload, lease

    def heartbeat(self, lease: Any) -> None:
        self._request({"op": "heartbeat", "lease": lease.token})

    def complete(self, index: int, result: Any, lease: Any | None = None) -> None:
        message = {
            "op": "complete",
            "index": index,
            "run": lease.run if isinstance(lease, _Lease) else "",
            "result": _encode(result),
        }
        if isinstance(lease, _Lease):
            message["lease"] = lease.token
        # Best effort: if the coordinator is gone the result is lost, the
        # lease expires on whatever coordinator replaces it, and the task is
        # re-issued — exactly the crashed-worker path.
        self._request(message)

    def stop_requested(self) -> bool:
        response = self._request({"op": "stop"})
        return bool(response and response.get("stop"))

    def coordinator_age(self) -> float | None:
        age = max(0.0, time.time() - self._last_contact)
        if age < self._timeout:
            # The stop/claim polls of the current worker tick already
            # probed reachability and refreshed the contact time; a
            # dedicated ping here would be a wasted request per tick.
            return age
        if self._request({"op": "ping"}) is not None:
            return 0.0
        return max(0.0, time.time() - self._last_contact)

    def try_retire(self) -> bool:
        answer, self._retire_answer = self._retire_answer, None
        if answer is not None:
            return answer  # piggybacked on the preceding idle claim
        response = self._request({"op": "retire"})
        return bool(response and response.get("retire"))

    def ping(self) -> dict[str, Any] | None:
        """One reachability round trip; the coordinator's structured ping
        body on success, ``None`` when unreachable."""
        return self._request({"op": "ping"})

    def check_protocol(self) -> dict[str, Any] | None:
        """Fail fast on daemon/client protocol skew.

        Returns the ping body when the versions agree and ``None`` when the
        coordinator is unreachable (the standard degrade path owns that
        case).  Raises
        :class:`~repro.campaign.workqueue.WorkQueueProtocolError` when the
        coordinator answers with a missing or different protocol version —
        a version-1 server is recognised by the *absence* of the field in
        its bare ``{"ok": true}`` ping reply.
        """
        response = self.ping()
        if response is None:
            return None
        version = response.get("protocol")
        if version != PROTOCOL_VERSION:
            described = "1 (no version field)" if version is None else version
            raise WorkQueueProtocolError(
                f"coordinator speaks work-queue protocol {described} but "
                f"this client requires {PROTOCOL_VERSION}; upgrade the "
                "older side"
            )
        return response

    def _request(self, message: dict[str, Any]) -> dict[str, Any] | None:
        """One round trip: ``None`` on failure, raises on auth rejection."""
        if self._auth_token is not None:
            message = {**message, "token": self._auth_token}
        response = self._post(message)
        if not response:
            self.consecutive_failures += 1
            return None
        # Any parsed response — even a denial — proves the coordinator is
        # reachable, which is all the reconnect backoff cares about.
        self.consecutive_failures = 0
        if not response.get("ok"):
            if response.get("denied") == "auth":
                # The one non-degradable failure: retrying cannot fix a
                # wrong shared secret, so surface it loudly.  The server's
                # message never contains a token.
                raise WorkQueueAuthError(
                    str(response.get("error") or "unauthenticated")
                )
            return None
        self._last_contact = time.time()
        return response

    def _post(self, message: dict[str, Any]) -> dict[str, Any] | None:
        """POST one message to ``<base>/<op>``; the parsed JSON response,
        ``None`` on any transport failure."""
        payload = dict(message)
        op = payload.pop("op")
        request = urllib.request.Request(
            f"{self._base_url}/{op}",
            data=json.dumps(payload).encode("ascii"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with self._opener.open(request, timeout=self._timeout) as reply:
                body = reply.read()
        except urllib.error.HTTPError as exc:
            # Non-2xx still carries the JSON response (e.g. 401 with
            # denied: "auth"); an HTML error page from a proxy in front
            # fails the JSON parse below and degrades like any outage.
            try:
                body = exc.read()
            except OSError:
                return None
        except (OSError, ValueError):
            return None
        try:
            return json.loads(body) if body else None
        except ValueError:
            return None
