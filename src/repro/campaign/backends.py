"""Executor backends: how a campaign's variants are mapped to outcomes.

:class:`~repro.campaign.runner.CampaignRunner` is policy (ordering, caching,
fallback); an :class:`ExecutorBackend` is mechanism.  A backend maps a pure
worker function over variants and yields the results **in input order** —
nothing about grids, stores or summaries leaks into it, so alternative
execution substrates (a cluster scheduler, a batch queue) only have to
implement :meth:`ExecutorBackend.map`.

Backends must yield results as they become available (lazily) rather than
collecting them first: the runner's fallback logic keeps every outcome that
was produced before a mid-campaign pool failure.  Backends whose ``map``
additionally accepts an ``on_complete(index, result)`` keyword invoke it the
moment each item finishes, **in completion order** — the runner uses it to
persist flights that completed but cannot be yielded yet because an earlier
item is still running, so a killed campaign loses nothing that finished.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from .workqueue import resolve_auth_token

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "BatchBackend",
    "ProcessPoolBackend",
    "DistributedBackend",
    "ServiceBackend",
    "get_backend",
    "ordered",
]

#: Completion-order callback: ``on_complete(input_index, result)``.
CompletionCallback = Callable[[int, Any], None]


def ordered(
    completions: Iterable[tuple[int, Any]],
    total: int,
    on_complete: CompletionCallback | None = None,
) -> Iterator[Any]:
    """Yield ``total`` results in input order from ``(index, result)`` pairs
    arriving in completion order.

    ``on_complete`` fires the moment each pair arrives, so the runner can
    persist a flight that finished while an earlier one is still running.
    Each index must arrive once: the polling callers drop a re-issued
    lease's second answer themselves.  The loop stops as soon as all
    ``total`` results have been yielded.
    """
    ready: dict[int, Any] = {}
    next_index = 0
    for index, result in completions:
        if on_complete is not None:
            on_complete(index, result)
        ready[index] = result
        while next_index in ready:
            yield ready.pop(next_index)
            next_index += 1
        if next_index >= total:
            return


def unwrap(source: str, index: int, raw: Any) -> Any:
    """Value of one work-queue result: ``("ok", value)`` is the value,
    ``("error", traceback)`` raises with the remote traceback."""
    status, value = raw
    if status != "ok":
        raise RuntimeError(f"{source} worker failed on item {index}:\n{value}")
    return value


@runtime_checkable
class ExecutorBackend(Protocol):
    """Maps a worker function over items, yielding results in input order."""

    #: Short identifier used in reports and CLI specs.
    name: str

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Any]:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class SerialBackend:
    """In-process, one-at-a-time execution (also the fallback substrate)."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        for item in items:
            yield fn(item)


@dataclass(frozen=True)
class BatchBackend:
    """Vectorised in-process execution over the structure-of-arrays core.

    Instead of flying one :class:`~repro.sim.flight.FlightSimulation` per
    variant, the whole campaign is handed to :func:`repro.sim.batch.run_batch`,
    which steps every scenario in lockstep with array operations and amortises
    one event-trace compile across all scenarios that share a timing class
    (see :mod:`repro.sim.batch`).

    The backend only understands the campaign runner's own worker function —
    it inspects ``fn`` for :func:`~repro.campaign.runner._execute_variant`
    (bare or wrapped in a ``record_arrays`` partial) and requires every item
    to carry a ``.scenario``.  Anything else (custom workers in tests,
    ad-hoc map calls) is executed serially, so selecting ``--backend batch``
    is always safe even for workloads the batch core cannot express.

    Error handling is coarser than the scalar path's per-variant capture: a
    failure anywhere in the batch propagates out of :meth:`map` as a backend
    failure, and the runner's fallback finishes the campaign serially —
    restoring per-variant tracebacks at scalar speed.
    """

    name = "batch"

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        record_arrays = self._runner_worker_mode(fn)
        if record_arrays is None or not all(
            hasattr(item, "scenario") for item in items
        ):
            for index, item in enumerate(items):
                result = fn(item)
                if on_complete is not None:
                    on_complete(index, result)
                yield result
            return
        yield from self._map_batched(items, record_arrays, on_complete)

    @staticmethod
    def _runner_worker_mode(fn: Callable[[Any], Any]) -> bool | None:
        """``record_arrays`` flag if ``fn`` is the runner's worker, else None."""
        from .runner import _execute_variant

        target: Any = fn
        record_arrays = False
        if isinstance(target, functools.partial):
            record_arrays = bool(target.keywords.get("record_arrays", False))
            target = target.func
        return record_arrays if target is _execute_variant else None

    @staticmethod
    def _map_batched(
        items: Sequence[Any],
        record_arrays: bool,
        on_complete: CompletionCallback | None,
    ) -> Iterator[Any]:
        from ..sim.batch import run_batch
        from .results import VariantOutcome
        from .runner import _summarise, trajectory_arrays

        start = time.perf_counter()
        results = run_batch([item.scenario for item in items])
        # Lockstep flights have no individual wall time; report each
        # variant's fair share so campaign totals still add up.
        share = (time.perf_counter() - start) / max(1, len(items))
        for index, (variant, result) in enumerate(zip(items, results)):
            outcome = VariantOutcome(
                name=variant.name,
                axes=variant.axes,
                seed=variant.scenario.seed,
                summary=_summarise(variant, result),
                error=None,
                wall_time=share,
            )
            raw: Any = outcome
            if record_arrays:
                raw = (outcome, trajectory_arrays(result))
            if on_complete is not None:
                on_complete(index, raw)
            yield raw


@dataclass(frozen=True)
class ProcessPoolBackend:
    """``concurrent.futures.ProcessPoolExecutor`` fan-out.

    Attributes
    ----------
    max_workers:
        Pool size; ``None`` uses the CPU count.  The effective size is
        additionally capped at the number of items.
    """

    max_workers: int | None = None

    name = "process-pool"

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        items = list(items)
        if not items:
            return
        workers = min(self.max_workers or os.cpu_count() or 1, len(items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            index_of = {pool.submit(fn, item): index
                        for index, item in enumerate(items)}
            yield from ordered(
                ((index_of[future], future.result())
                 for future in as_completed(index_of)),
                len(items), on_complete,
            )


@dataclass(frozen=True)
class DistributedBackend:
    """Work-queue executor: a coordinator plus N worker *processes*.

    Each :meth:`map` call starts an in-process
    :class:`~repro.campaign.service.CampaignService` on ``host``/``port``
    (the HTTP work queue of :mod:`repro.campaign.transport`), hosts the
    campaign there as one run, drains it and closes the service again.  The
    service spawns ``workers`` local worker processes
    (``python -m repro.campaign.worker --connect-http URL``); with a fixed
    ``port`` and ``workers=0`` an external fleet attaches instead, from any
    host that can reach the port — directly or through an HTTP proxy.

    Everything a fleet needs — spawning and reaping workers, lease
    re-issue, autoscaling, the crash-loop guard, failing the run when every
    spawned worker has died — is the service's; this backend only copies
    the run's :attr:`scale_events` and :attr:`queue_stats` out when it ends.
    Results arrive out of order and are yielded in input order;
    ``on_complete`` fires the moment each item finishes so the runner can
    persist it immediately.  A failed run raises :class:`RuntimeError`, and
    the runner finishes the campaign serially.

    Attributes
    ----------
    workers:
        Local worker processes to spawn up front (``0`` = start none; then
        either autoscaling spawns them on backlog, or an external fleet
        attaches on a fixed ``port``).
    lease_timeout:
        Seconds without a heartbeat before a claimed task is re-issued.
        Must exceed the slowest single flight's heartbeat gap (the heartbeat
        runs on a thread, so only a hard worker death stops it).
    poll_interval:
        Coordinator/worker polling period [s].
    host / port:
        Server bind address.  ``port=0`` picks an ephemeral port (fine for
        spawned workers, who are told the real port; an external fleet
        needs a fixed one).
    auth_token:
        Shared secret workers must present on every request; ``None`` falls
        back to ``$REPRO_CAMPAIGN_AUTH_TOKEN`` (unset = authentication
        disabled).  Spawned workers receive it through the environment,
        never argv; it is excluded from ``repr``, logs and results.
    max_workers:
        Autoscale ceiling for locally spawned workers; ``None`` disables
        autoscaling (the fleet stays at ``workers``).
    """

    workers: int = 2
    lease_timeout: float = 30.0
    poll_interval: float = 0.05
    host: str = "127.0.0.1"
    port: int = 0
    #: Shared secret; repr=False keeps it out of dataclass reprs (and
    #: thereby logs, warnings and failure reports).
    auth_token: str | None = field(default=None, repr=False)
    max_workers: int | None = None
    #: Scale decisions of the most recent ``map`` call, in order: dicts with
    #: ``event`` ("scale-up" / "scale-down"), ``workers`` (alive after),
    #: ``backlog`` and ``elapsed`` [s] since the service started.
    scale_events: list = field(default_factory=list, compare=False, repr=False)
    #: Queue telemetry of the most recent ``map`` call: the queue's counter
    #: snapshot (claims, completions, lease re-issues, ...) plus
    #: ``pending_peak``.  Surfaced as ``CampaignResult.telemetry["queue"]``.
    queue_stats: dict = field(default_factory=dict, compare=False, repr=False)

    name = "distributed"

    def __post_init__(self) -> None:
        from .service import CampaignService

        CampaignService.check_fleet(
            port=self.port,
            workers=self.workers,
            max_workers=self.max_workers,
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
        )
        if self.auth_token is not None and not self.auth_token:
            raise ValueError("auth_token must be a non-empty string")
        if self.workers == 0 and self.max_workers is None and self.port == 0:
            raise ValueError(
                "workers=0 needs a fixed port for external workers to "
                "connect to (or max_workers for autoscaling)"
            )

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        from .service import CampaignService, RunCancelled, RunFailed

        items = list(items)
        if not items:
            return
        del self.scale_events[:]  # events describe the current map call only
        self.queue_stats.clear()
        token = resolve_auth_token(self.auth_token)
        service = CampaignService(
            host=self.host,
            port=self.port,
            workers=self.workers,
            max_workers=self.max_workers,
            auth_tokens=None if token is None else (token,),
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
        )
        try:
            yield from service.host_run(label=self.name).map(
                fn, items, on_complete
            )
        except (RunCancelled, RunFailed) as exc:
            # The runner falls back to serial on an Exception; the service
            # signals run ends as BaseExceptions so its own hosted runs
            # unwind instead.
            raise RuntimeError(f"distributed run ended: {exc}") from None
        finally:
            service.close()
            self.scale_events.extend(service.scale_events)
            self.queue_stats.update(
                service.queue.stats_snapshot(),
                pending_peak=service.queue.pending_peak,
            )


@dataclass(frozen=True)
class ServiceBackend:
    """Client-mode executor: rent a remote campaign service's worker fleet.

    Where :class:`DistributedBackend` *owns* a coordinator (starts a
    service, spawns workers, tears both down), this backend owns nothing: it
    submits the campaign's tasks to a persistent
    :class:`~repro.campaign.service.CampaignService` daemon as one hosted
    *run* (``POST /runs`` with pickled task payloads), polls that run's
    results, and deletes the run when done.  The
    :class:`~repro.campaign.runner.CampaignRunner` — and with it store
    caching, ordering and fallback policy — stays entirely client-side;
    only execution is remote.  Select it with
    ``--backend service --connect-http URL``.

    The task function must be importable on the daemon's workers (the usual
    work-queue constraint), and the daemon must speak the same protocol
    version — a mismatch fails fast at submit time with a clear message,
    as does an endpoint that is not a campaign service.

    Attributes
    ----------
    url:
        Service base URL (``http[s]://host:port[/prefix]``).
    auth_token:
        Shared secret (``None`` falls back to
        ``$REPRO_CAMPAIGN_AUTH_TOKEN``); excluded from ``repr`` and logs.
    poll_interval:
        Result polling period [s].
    timeout:
        Per-request HTTP timeout [s].
    label:
        Optional run label shown in the daemon's ``GET /runs`` registry.
    """

    url: str = ""
    auth_token: str | None = field(default=None, repr=False)
    poll_interval: float = 0.2
    timeout: float = 10.0
    label: str | None = None

    name = "service"

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError(
                "ServiceBackend needs the service base URL (--connect-http "
                "URL, or backend_options = {url = \"http://...\"})"
            )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.auth_token is not None and not self.auth_token:
            raise ValueError("auth_token must be a non-empty string")

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        from .client import ServiceClient

        items = list(items)
        if not items:
            return
        client = ServiceClient(
            self.url,
            auth_token=resolve_auth_token(self.auth_token),
            timeout=self.timeout,
        )
        run_id = client.submit_tasks(
            [(fn, item) for item in items],
            label=self.label or "service-backend",
        )
        try:
            yield from ordered(
                self._completions(client, run_id, len(items)),
                len(items), on_complete,
            )
        finally:
            # Free the daemon-side queue state whether we finished, failed
            # over to serial, or were interrupted; the registry record
            # survives for post-mortem status queries.
            client.cancel(run_id, missing_ok=True)

    def _completions(
        self, client: Any, run_id: str, total: int
    ) -> Iterator[tuple[int, Any]]:
        """Poll the run's results; yield each new one as it arrives."""
        seen: set[int] = set()
        while True:
            state, results = client.task_results(run_id)
            if state in ("cancelled", "failed"):
                raise RuntimeError(
                    f"service run {run_id} ended as {state} with "
                    f"{total - len(seen)} of {total} items outstanding"
                )
            for index in sorted(set(results) - seen):
                seen.add(index)
                yield index, unwrap("service", index, results[index])
            time.sleep(self.poll_interval)


#: Registry of backend factories selectable by name (CLI / spec files).
_BACKENDS: dict[str, Callable[..., ExecutorBackend]] = {
    "serial": SerialBackend,
    "batch": BatchBackend,
    "process-pool": ProcessPoolBackend,
    "distributed": DistributedBackend,
    "service": ServiceBackend,
}


def get_backend(name: str, **options: Any) -> ExecutorBackend:
    """Instantiate a backend by registry name.

    ``options`` are passed to the backend constructor (e.g.
    ``get_backend("process-pool", max_workers=4)`` or
    ``get_backend("distributed", workers=2)``).
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor backend {name!r} (available: {sorted(_BACKENDS)})"
        ) from None
    return factory(**options)
