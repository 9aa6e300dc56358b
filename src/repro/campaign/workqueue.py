"""Work-queue protocol: what a worker needs from its coordinator.

A campaign coordinator (:class:`~repro.campaign.service.CampaignService`)
holds the queue state; workers (``python -m repro.campaign.worker``) claim
tasks, heartbeat their lease while executing, and publish results over the
HTTP transport (:mod:`repro.campaign.transport`).  This module holds what
both sides share: the worker-side :class:`WorkQueue` protocol the worker
loop is written against, the wire-protocol version, the two errors that
must never degrade into polling, and the shared-secret resolution rules.
"""

from __future__ import annotations

import os
from typing import Any, Protocol, Sequence, runtime_checkable

__all__ = [
    "AUTH_TOKEN_ENV",
    "AUTH_TOKEN_PREVIOUS_ENV",
    "PROTOCOL_VERSION",
    "WorkItem",
    "WorkQueue",
    "WorkQueueAuthError",
    "WorkQueueProtocolError",
    "resolve_auth_token",
    "resolve_auth_tokens",
]

#: Environment variable coordinators and workers read the shared-secret
#: auth token from when none is passed explicitly.  The environment is the
#: preferred channel for worker processes: unlike a ``--auth-token``
#: argument, it never shows up in process listings.
AUTH_TOKEN_ENV = "REPRO_CAMPAIGN_AUTH_TOKEN"

#: Environment variable a *coordinator* reads additional still-valid tokens
#: from (comma-separated) — the rotation window: a daemon restarted with the
#: new secret as :data:`AUTH_TOKEN_ENV` and the old one here accepts workers
#: that have not been re-keyed yet.  Workers only ever present one token.
AUTH_TOKEN_PREVIOUS_ENV = "REPRO_CAMPAIGN_AUTH_TOKEN_PREVIOUS"

#: Version of the wire protocol the transport speaks.  Served in
#: every ``ping`` response so clients and workers can fail fast with a clear
#: message on a daemon/client mismatch instead of hitting decoding errors
#: mid-campaign.  Bump whenever a wire message or response changes shape.
#:
#: * 2 — multi-run claims (``claim`` answers carry the claimed task's run
#:   id, which may differ per claim on a service-mode coordinator) and
#:   structured ``ping`` bodies.  Version 1 servers answered ``ping`` with
#:   a bare ``{"ok": true}``; the *absence* of a version is how they are
#:   detected.
PROTOCOL_VERSION = 2


class WorkQueueAuthError(RuntimeError):
    """The coordinator rejected this worker's shared-secret token.

    Deliberately *not* an :class:`OSError`: transient unreachability makes
    the transport client degrade (claim -> ``None``) so workers survive
    coordinator restarts, but an authentication rejection is a
    configuration error that polling will never fix — the worker must
    surface it and exit instead of retry-looping.
    """


class WorkQueueProtocolError(RuntimeError):
    """The coordinator speaks a different wire-protocol version.

    Raised by the client's startup check (see
    ``HttpWorkQueueClient.check_protocol``) so a version-skewed worker or
    service client exits with one clear message instead of degrading into
    decoding errors or silent idle polling mid-campaign.  Like
    :class:`WorkQueueAuthError`, retrying can never fix it.
    """


def resolve_auth_token(explicit: str | None = None) -> str | None:
    """Auth token to use: the explicit one, else :data:`AUTH_TOKEN_ENV`.

    Returns ``None`` when neither is set (authentication disabled).  An
    empty environment value counts as unset, so ``REPRO_CAMPAIGN_AUTH_TOKEN=""``
    cannot silently configure an empty shared secret.
    """
    if explicit is not None:
        return explicit
    return os.environ.get(AUTH_TOKEN_ENV) or None


def resolve_auth_tokens(
    explicit: str | Sequence[str] | None = None,
    previous: str | Sequence[str] | None = None,
) -> tuple[str, ...] | None:
    """Coordinator-side accepted-token set: primary first, then previous.

    ``explicit`` falls back to :data:`AUTH_TOKEN_ENV` and ``previous`` to
    the comma-separated :data:`AUTH_TOKEN_PREVIOUS_ENV` — the rotation
    window that lets a daemon accept not-yet-re-keyed workers.  Previous
    tokens without a primary are a configuration error (there would be no
    current secret to rotate *to*); no tokens at all returns ``None``
    (authentication disabled).
    """
    def _listed(
        value: str | Sequence[str] | None, env: str, split: bool
    ) -> list[str]:
        if value is None:
            value = os.environ.get(env) or ""
        if isinstance(value, str):
            if split:
                return [part.strip() for part in value.split(",") if part.strip()]
            return [value] if value else []
        return [token for token in value]

    # Only the *previous* set is documented as comma-separated: it is a
    # list by nature (one entry per not-yet-finished rotation), while the
    # primary is one opaque secret that may legally contain a comma.
    primary = _listed(explicit, AUTH_TOKEN_ENV, split=False)
    older = _listed(previous, AUTH_TOKEN_PREVIOUS_ENV, split=True)
    if not primary:
        if older:
            raise ValueError(
                "previous auth tokens need a primary token (set "
                f"${AUTH_TOKEN_ENV} or pass one explicitly)"
            )
        return None
    tokens: list[str] = []
    for token in (*primary, *older):
        if not token:
            raise ValueError("auth tokens must be non-empty strings")
        if token not in tokens:
            tokens.append(token)
    return tuple(tokens)


#: ``(index, payload, lease)`` of one claimed task.  The lease handle is
#: opaque to the worker loop: it is only ever passed back to
#: :meth:`WorkQueue.heartbeat` / :meth:`WorkQueue.complete`.
WorkItem = tuple[int, Any, Any]


@runtime_checkable
class WorkQueue(Protocol):
    """Worker-side view of a campaign work queue.

    :func:`~repro.campaign.worker.run_worker` is written against these
    methods: claim a task, heartbeat its lease while executing, publish the
    result, and stop on the coordinator's sentinel, a retire credit, or a
    coordinator that has been unreachable for the orphan timeout.
    :class:`~repro.campaign.transport.HttpWorkQueueClient` implements it
    over the wire; tests may pass any object with the same methods.

    Contract highlights:

    * exactly one claimer wins a task; claims hand out the lowest pending
      index of a run first;
    * a lease whose heartbeat is older than the coordinator's lease timeout
      may be re-issued; the original claimer completing late publishes a
      duplicate — equally valid — result;
    * one retire credit allows exactly one *idle* worker to exit.
    """

    def claim(self, worker_id: str) -> WorkItem | None: ...

    def heartbeat(self, lease: Any) -> None: ...

    def complete(self, index: int, result: Any, lease: Any | None = None) -> None: ...

    def stop_requested(self) -> bool: ...

    def coordinator_age(self) -> float | None: ...

    def try_retire(self) -> bool: ...


def validate_run_id(run_id: str) -> None:
    """Run ids travel in wire messages and URL paths (``/runs/<id>``), so
    they may not contain '.' or path separators."""
    if "." in run_id or os.sep in run_id:
        raise ValueError(
            f"run id {run_id!r} must not contain '.' or path separators"
        )
