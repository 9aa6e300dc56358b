"""Client for the campaign service: ``python -m repro.campaign.client``.

:class:`ServiceClient` is the programmatic face of a
:class:`~repro.campaign.service.CampaignService` daemon's ``/runs`` API:
submit a campaign spec (or raw task payloads), poll status, fetch results,
cancel.  :class:`~repro.campaign.backends.ServiceBackend` builds on it so a
local :class:`~repro.campaign.runner.CampaignRunner` can rent the daemon's
fleet; the CLI makes the same API scriptable::

    python -m repro.campaign.client URL submit spec.toml [--wait]
    python -m repro.campaign.client URL list
    python -m repro.campaign.client URL status RUN
    python -m repro.campaign.client URL results RUN
    python -m repro.campaign.client URL cancel RUN
    python -m repro.campaign.client URL ping

Every request is one self-contained HTTP exchange (the service transport's
single-request semantics), so any proxy that forwards a POST works.  The
shared secret comes from ``--auth-token`` or ``$REPRO_CAMPAIGN_AUTH_TOKEN``
(preferred — argv is visible in process listings) and never appears in
output.  Version skew fails fast: the client checks the daemon's ``/ping``
protocol version before submitting and raises
:class:`~repro.campaign.workqueue.WorkQueueProtocolError` on mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Mapping, Sequence

from .transport import _decode, _encode, parse_http_url
from .workqueue import (
    PROTOCOL_VERSION,
    WorkQueueAuthError,
    WorkQueueProtocolError,
    resolve_auth_token,
)

__all__ = ["ServiceClient", "ServiceError", "main"]


class ServiceError(RuntimeError):
    """The service answered, but with an error (bad spec, unknown run, ...)."""


class ServiceUnreachableError(ServiceError):
    """No (parseable) answer from the service at all."""


class ServiceClient:
    """HTTP client for one campaign service daemon.

    Unlike the worker-side queue client — which *degrades* on an
    unreachable coordinator because polling forever is a worker's job —
    this client raises: a human or script submitting a run needs the
    failure now, not an idle loop.  :class:`ServiceUnreachableError` for
    transport failures, :class:`ServiceError` for service-level rejections,
    :class:`~repro.campaign.workqueue.WorkQueueAuthError` for a bad secret.
    """

    def __init__(
        self,
        base_url: str,
        auth_token: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        if auth_token is not None and not auth_token:
            raise ValueError("auth_token must be a non-empty string")
        self._base_url = parse_http_url(base_url)
        self._auth_token = auth_token
        self._timeout = timeout

    # -- API wrappers ------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """The daemon's structured ping body (``GET /ping``)."""
        return self._request("GET", "/ping")

    def check_service(self) -> dict[str, Any]:
        """Fail fast unless the endpoint is a campaign service speaking this
        client's protocol version (older single-campaign coordinators
        answer ``/ping`` with ``"service": false`` and have no ``/runs``
        API)."""
        info = self.ping()
        version = info.get("protocol")
        if version != PROTOCOL_VERSION:
            described = "1 (no version field)" if version is None else version
            raise WorkQueueProtocolError(
                f"service speaks work-queue protocol {described} but this "
                f"client requires {PROTOCOL_VERSION}; upgrade the older side"
            )
        if not info.get("service"):
            raise ServiceError(
                "endpoint is a single-campaign coordinator, not a campaign "
                "service (start one with python -m repro.campaign.service)"
            )
        return info

    def submit_spec(
        self,
        spec: Mapping[str, Any],
        label: str | None = None,
        run_id: str | None = None,
    ) -> str:
        """Submit a JSON campaign spec; returns the assigned run id."""
        self.check_service()
        body: dict[str, Any] = {"spec": dict(spec)}
        if label:
            body["label"] = label
        if run_id:
            body["run"] = run_id
        return str(self._request("POST", "/runs", body)["run"])

    def submit_tasks(
        self, payloads: Sequence[Any], label: str | None = None
    ) -> str:
        """Submit raw ``(fn, item)`` task payloads; returns the run id."""
        self.check_service()
        body: dict[str, Any] = {
            "tasks": [_encode(payload) for payload in payloads]
        }
        if label:
            body["label"] = label
        return str(self._request("POST", "/runs", body)["run"])

    def list_runs(self) -> list[dict[str, Any]]:
        """The daemon's run registry (``GET /runs``)."""
        return list(self._request("GET", "/runs")["runs"])

    def status(self, run_id: str) -> dict[str, Any]:
        """One run's lifecycle + queue state (``GET /runs/<id>/status``)."""
        return self._request("GET", f"/runs/{run_id}/status")

    def results(self, run_id: str) -> dict[str, Any]:
        """One run's raw results document (``GET /runs/<id>/results``)."""
        return self._request("GET", f"/runs/{run_id}/results")

    def task_results(self, run_id: str) -> tuple[str, dict[int, Any]]:
        """Decoded results of a *task* run: ``(state, {index: result})``."""
        document = self.results(run_id)
        results = {
            int(index): _decode(blob)
            for index, blob in (document.get("results") or {}).items()
        }
        return str(document.get("state")), results

    def cancel(self, run_id: str, missing_ok: bool = False) -> bool:
        """Cancel a run (``DELETE /runs/<id>``); True if it was running.

        ``missing_ok`` makes the call best-effort (unknown run, daemon
        already gone): cleanup paths must not mask the original failure.
        """
        try:
            return bool(self._request(
                "DELETE", f"/runs/{run_id}")["cancelled"])
        except ServiceError:
            if missing_ok:
                return False
            raise

    def rotate_token(self, new_token: str, keep_previous: int = 1) -> None:
        """Install a new primary auth secret on the daemon (the current one
        stays accepted for ``keep_previous`` rotations)."""
        self._request("POST", "/rotate-token",
                      {"new_token": new_token,
                       "keep_previous": keep_previous})

    def wait(
        self,
        run_id: str,
        timeout: float | None = None,
        poll_interval: float = 0.5,
    ) -> dict[str, Any]:
        """Poll until the run leaves ``running``; returns the final status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(run_id)
            if status.get("state") != "running":
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id} still running after {timeout:.1f}s"
                )
            time.sleep(poll_interval)

    # -- internal ----------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        payload = dict(body or {})
        if self._auth_token is not None and method == "POST":
            payload["token"] = self._auth_token
        headers = {"Content-Type": "application/json"}
        if self._auth_token is not None:
            # GET/DELETE have no body to carry the token in; the header
            # form is accepted everywhere for symmetry.
            headers["X-Auth-Token"] = self._auth_token
        data = json.dumps(payload).encode("ascii") if method == "POST" else None
        request = urllib.request.Request(
            f"{self._base_url}{path}", data=data, headers=headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self._timeout
            ) as reply:
                raw = reply.read()
        except urllib.error.HTTPError as exc:
            try:
                raw = exc.read()
            except OSError:
                raise ServiceUnreachableError(
                    f"no response from {self._base_url}"
                ) from None
        except (OSError, ValueError) as exc:
            raise ServiceUnreachableError(
                f"cannot reach campaign service at {self._base_url}: {exc}"
            ) from None
        try:
            response = json.loads(raw)
        except ValueError:
            raise ServiceUnreachableError(
                f"non-JSON response from {self._base_url} (a proxy error "
                "page, or not a campaign service?)"
            ) from None
        if not isinstance(response, dict) or not response.get("ok"):
            if isinstance(response, dict) and response.get("denied") == "auth":
                raise WorkQueueAuthError(
                    str(response.get("error") or "unauthenticated")
                )
            error = "malformed response"
            if isinstance(response, dict):
                error = str(response.get("error") or "request rejected")
            raise ServiceError(error)
        return response


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.client",
        description="Talk to a running campaign service: submit campaign "
        "specs as hosted runs, list/inspect/cancel them, fetch results.",
    )
    parser.add_argument("url", help="service base URL (http[s]://host:port)")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="shared-secret token (default: "
                        "$REPRO_CAMPAIGN_AUTH_TOKEN; prefer the environment "
                        "— argv is visible in process listings)")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-request HTTP timeout [s] (default: 10)")
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="submit a campaign spec file as a hosted run")
    submit.add_argument("spec", help="path to the campaign spec (.json/.toml)")
    submit.add_argument("--label", default=None,
                        help="run label shown in the service registry")
    submit.add_argument("--run-id", default=None,
                        help="explicit run id (default: service-assigned)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the run finishes, then print its "
                        "results document")
    commands.add_parser("list", help="list the service's hosted runs")
    status = commands.add_parser("status", help="show one run's status")
    status.add_argument("run", help="run id")
    results = commands.add_parser("results", help="fetch one run's results")
    results.add_argument("run", help="run id")
    cancel = commands.add_parser("cancel", help="cancel one run")
    cancel.add_argument("run", help="run id")
    commands.add_parser("ping", help="check reachability, protocol and mode")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    client = ServiceClient(
        args.url,
        auth_token=resolve_auth_token(args.auth_token),
        timeout=args.timeout,
    )
    try:
        if args.command == "submit":
            from .spec import load_spec

            run_id = client.submit_spec(
                load_spec(args.spec), label=args.label, run_id=args.run_id
            )
            if not args.wait:
                print(run_id)
                return 0
            status = client.wait(run_id)
            document = client.results(run_id)
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0 if status.get("state") == "done" else 2
        if args.command == "list":
            print(json.dumps(client.list_runs(), indent=2, sort_keys=True))
        elif args.command == "status":
            print(json.dumps(client.status(args.run), indent=2,
                             sort_keys=True))
        elif args.command == "results":
            print(json.dumps(client.results(args.run), indent=2,
                             sort_keys=True))
        elif args.command == "cancel":
            cancelled = client.cancel(args.run)
            print("cancelled" if cancelled else "already finished")
        elif args.command == "ping":
            print(json.dumps(client.ping(), indent=2, sort_keys=True))
        return 0
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ServiceError, WorkQueueProtocolError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkQueueAuthError as exc:
        print(f"error: authentication failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
