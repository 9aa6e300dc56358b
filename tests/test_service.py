"""Tests for the campaign service, the one coordinator.

Five layers, bottom up:

* the multi-run queue state (run-id-namespaced pending/results, round-robin
  claims, cancellation and lease reclaim scoped to the owning run),
* token rotation and the structured ping / protocol fail-fast handshake,
* the worker's reconnect backoff,
* the daemon end-to-end: two concurrent campaigns on ONE daemon served by
  one shared fleet, results never crossing runs, cancellation leaving the
  sibling untouched, the daemon accepting new submissions afterwards, and
  finished or deleted runs leaving no queue state behind,
* the dead-fleet check: a service whose spawned workers have all exited
  fails its running runs, and :class:`~repro.campaign.DistributedBackend`
  and :class:`~repro.campaign.ServiceBackend` fall back to serial.

End-to-end tests run the worker loop in threads against the daemon's HTTP
endpoint (``CampaignService(workers=0)``) so no subprocess spawn/interpreter
start is paid per test; the subprocess fleet path is covered by the
dead-fleet tests and by ``tests/test_transport.py`` (spawn, autoscaling, the
crash-loop guard).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    PROTOCOL_VERSION,
    CampaignRunner,
    DistributedBackend,
    GridVariant,
    HttpWorkQueue,
    HttpWorkQueueClient,
    ScenarioGrid,
    ServiceBackend,
    WorkQueueAuthError,
    WorkQueueProtocolError,
)
from repro.campaign.client import (
    ServiceClient,
    ServiceError,
    ServiceUnreachableError,
)
from repro.campaign.service import CampaignService, RunCancelled
from repro.campaign.worker import _idle_delay, run_worker
from repro.campaign.workqueue import (
    AUTH_TOKEN_ENV,
    AUTH_TOKEN_PREVIOUS_ENV,
    resolve_auth_tokens,
)
from repro.sim import FlightScenario


def _double(value):
    return 2 * value


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _triple(value):
    return 3 * value


class _KillsWorkerOnUnpickle:
    """An axis value that kills whichever other process unpickles it — a
    campaign whose every task takes its worker down, while the serial
    fallback (in this process) flies it normally."""

    def __init__(self) -> None:
        self.pid = os.getpid()

    def __setstate__(self, state) -> None:
        if state["pid"] != os.getpid():
            os._exit(9)
        self.__dict__.update(state)


def _worker_killing_variants(name: str, seeds: int = 2) -> list:
    poison = _KillsWorkerOnUnpickle()
    return [
        GridVariant(name=variant.name, axes=(*variant.axes, ("poison", poison)),
                    scenario=variant.scenario)
        for variant in _tiny_grid(name, seeds).variants()
    ]


def _run_in_thread(target, timeout: float):
    """``target()``'s return value, or fail when it outlives ``timeout``
    (a coordinator that never notices its dead fleet polls forever)."""
    outcome: list = []
    thread = threading.Thread(target=lambda: outcome.append(target()),
                              daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout:.0f} s"
    [value] = outcome
    return value


def _wait_until(condition, timeout: float = 30.0):
    """Poll ``condition()`` until it is truthy; returns its last value."""
    deadline = time.monotonic() + timeout
    while not (value := condition()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return value


def _pending(queue, run: str) -> int:
    return queue.status()["runs"][run]["pending"]


def _tiny_spec(name: str, seeds: int = 2) -> dict:
    """A JSON campaign spec small enough to fly in well under a second."""
    return {
        "scenario": {"name": name, "duration": 0.4, "record_hz": 20.0},
        "axes": {"seed": list(range(seeds))},
    }


def _tiny_grid(name: str, seeds: int = 2) -> ScenarioGrid:
    return ScenarioGrid(
        FlightScenario(name=name, duration=0.4, record_hz=20.0),
        axes={"seed": list(range(seeds))},
    )


@pytest.fixture
def queue():
    server = HttpWorkQueue()
    yield server
    server.close()


def _worker_thread(url: str, max_tasks: int, done: list, token=None):
    thread = threading.Thread(
        target=lambda: done.append(run_worker(
            connect_http=url, poll_interval=0.01, max_tasks=max_tasks,
            lease_timeout=5.0, auth_token=token,
        )),
        daemon=True,
    )
    thread.start()
    return thread


# ---------------------------------------------------------------------------
# Multi-run queue state
# ---------------------------------------------------------------------------


class TestMultiRunQueueState:
    def test_runs_are_namespaced(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, "task-a")
        queue.enqueue_in("b", 0, "task-b")
        queue.enqueue_in("b", 1, "task-b1")
        assert _pending(queue, "a") == 1
        assert _pending(queue, "b") == 2
        assert queue.run_ids() == ["a", "b"]

    def test_duplicate_run_id_is_rejected(self, queue):
        queue.add_run("a")
        with pytest.raises(ValueError, match="already"):
            queue.add_run("a")

    def test_claims_round_robin_across_runs(self, queue):
        # Two runs with two tasks each: a fleet draining the queue must
        # alternate between tenants, not finish one before starting the
        # other (lowest index first within each run).
        queue.add_run("a")
        queue.add_run("b")
        for index in range(2):
            queue.enqueue_in("a", index, f"a{index}")
            queue.enqueue_in("b", index, f"b{index}")
        order = [queue._claim_blob("w")[0] for _ in range(4)]
        assert order == ["a", "b", "a", "b"]

    def test_results_land_in_the_owning_run(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, (_double, 1))
        queue.enqueue_in("b", 0, (_double, 100))
        client = HttpWorkQueueClient(queue.url, timeout=5.0)
        for _ in range(2):
            index, payload, lease = client.claim("w")
            fn, item = payload
            client.complete(index, ("ok", fn(item)), lease)
        assert queue.collect_run("a") == {0: ("ok", 2)}
        assert queue.collect_run("b") == {0: ("ok", 200)}

    def test_cancel_clears_pending_and_keeps_results(self, queue):
        queue.add_run("a")
        queue.enqueue_in("a", 0, "t0")
        queue.enqueue_in("a", 1, "t1")
        run = queue._runs["a"]
        run.results[0] = ("ok", "done-before-cancel")
        assert queue.cancel_run("a") is True
        assert queue.status()["runs"]["a"]["cancelled"] is True
        assert _pending(queue, "a") == 0
        assert queue.collect_run("a") == {0: ("ok", "done-before-cancel")}
        # Cancelling again (or an unknown run) is a polite no-op.
        assert queue.cancel_run("a") is True
        assert queue.cancel_run("nope") is False

    def test_enqueue_into_cancelled_or_unknown_run_fails(self, queue):
        queue.add_run("a")
        queue.cancel_run("a")
        with pytest.raises(ValueError, match="cancelled"):
            queue.enqueue_in("a", 0, "task")
        with pytest.raises(KeyError):
            queue.enqueue_in("never-added", 0, "task")

    def test_removed_run_frees_its_state_and_ignores_late_results(self, queue):
        queue.add_run("a")
        queue.enqueue_in("a", 0, "t0")
        queue.enqueue_in("a", 1, "t1")
        _, _, _, token = queue._claim_blob("w")
        queue.remove_run("a")
        assert queue.run_ids() == []
        assert queue.status()["claimed"] == []
        queue._complete(0, "a", ("ok", "late"), token)
        assert queue.collect_run("a") == {}
        assert queue.run_ids() == []

    def test_cancelled_runs_leases_are_dropped_not_reissued(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, "task-a")
        queue.enqueue_in("b", 0, "task-b")
        assert queue._claim_blob("w") is not None  # leases a's task
        assert queue._claim_blob("w") is not None  # leases b's task
        queue.cancel_run("a")
        # Both leases are expired; only the surviving run's task returns.
        reissued = queue.reclaim_expired(lease_timeout=0.0)
        assert _pending(queue, "b") == 1
        assert _pending(queue, "a") == 0
        assert reissued == [0]  # b's task only; a's lease vanished with it

    def test_stop_is_transport_level_not_per_run(self, queue):
        # Cancelling every hosted run must not send the fleet home.
        queue.add_run("a")
        queue.cancel_run("a")
        assert queue.stop_requested() is False

    def test_status_reports_per_run_state(self, queue):
        queue.add_run("a")
        queue.enqueue_in("a", 0, "task")
        queue.add_run("b")
        status = queue.status()
        assert status["runs"]["a"]["pending"] == 1
        assert status["runs"]["b"]["pending"] == 0
        # Top-level keys stay (CI and dashboards scrape them) as totals.
        assert status["pending"] == 1
        assert status["mode"] == "service"
        assert status["protocol"] == PROTOCOL_VERSION

    def test_per_run_metrics_labels(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, "task")
        queue.enqueue_in("b", 0, "task")
        text = queue.metrics_text()
        assert 'repro_run_pending{run="a"} 1' in text
        # The unlabeled counter is the cross-run total, same name as ever.
        assert "repro_queue_enqueued_total 2" in text
        assert f'repro_run_enqueued_total{{run="a"}} 1' in text


# ---------------------------------------------------------------------------
# Token rotation + protocol handshake
# ---------------------------------------------------------------------------


class TestTokenRotation:
    def test_old_and_new_tokens_accepted_after_rotation(self):
        server = HttpWorkQueue(auth_token="old-secret")
        try:
            server.rotate_auth_token("new-secret")
            for token in ("old-secret", "new-secret"):
                client = HttpWorkQueueClient(
                    server.url, timeout=5.0, auth_token=token)
                assert client.stop_requested() is False
            # One more rotation retires the original.
            server.rotate_auth_token("newer-secret")
            stale = HttpWorkQueueClient(
                server.url, timeout=5.0, auth_token="old-secret")
            with pytest.raises(WorkQueueAuthError):
                stale.stop_requested()
        finally:
            server.close()

    def test_rotation_requires_auth_enabled(self, queue):
        with pytest.raises(ValueError, match="auth"):
            queue.rotate_auth_token("secret")

    def test_rotation_never_drops_below_one_token(self):
        server = HttpWorkQueue(auth_token="a")
        try:
            server.rotate_auth_token("b", keep_previous=0)
            good = HttpWorkQueueClient(server.url, timeout=5.0, auth_token="b")
            assert good.stop_requested() is False
            old = HttpWorkQueueClient(server.url, timeout=5.0, auth_token="a")
            with pytest.raises(WorkQueueAuthError):
                old.stop_requested()
        finally:
            server.close()

    def test_previous_token_accepted_from_construction(self):
        # The daemon restart path: new primary via AUTH_TOKEN, old fleet
        # still presenting the previous one via AUTH_TOKEN_PREVIOUS.
        server = HttpWorkQueue(auth_token=("new", "old"))
        try:
            for token in ("new", "old"):
                client = HttpWorkQueueClient(
                    server.url, timeout=5.0, auth_token=token)
                assert client.stop_requested() is False
        finally:
            server.close()

    def test_resolve_auth_tokens(self, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        monkeypatch.delenv(AUTH_TOKEN_PREVIOUS_ENV, raising=False)
        assert resolve_auth_tokens(None, None) is None
        assert resolve_auth_tokens("a", None) == ("a",)
        assert resolve_auth_tokens("a", "b,c") == ("a", "b", "c")
        monkeypatch.setenv(AUTH_TOKEN_ENV, "envtok")
        monkeypatch.setenv(AUTH_TOKEN_PREVIOUS_ENV, "p1, p2")
        assert resolve_auth_tokens(None, None) == ("envtok", "p1", "p2")
        # Previous tokens without a primary would silently disable auth on
        # the primary path; that has to be a loud configuration error.
        monkeypatch.setenv(AUTH_TOKEN_ENV, "")
        with pytest.raises(ValueError):
            resolve_auth_tokens(None, None)


class TestProtocolHandshake:
    def test_ping_carries_protocol_and_mode(self, queue):
        client = HttpWorkQueueClient(queue.url, timeout=5.0)
        body = client.ping()
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["mode"] == "service"
        assert client.check_protocol() == body

    def test_version_skew_fails_fast_with_clear_message(self, queue):
        # A version-1 coordinator is recognised by the *absence* of the
        # protocol field in its bare {"ok": true} ping body.
        queue.ping_info = lambda: {"ok": True}
        client = HttpWorkQueueClient(queue.url, timeout=5.0)
        with pytest.raises(WorkQueueProtocolError, match="no version field"):
            client.check_protocol()
        with pytest.raises(WorkQueueProtocolError):
            run_worker(connect_http=queue.url, poll_interval=0.01)

    def test_unreachable_coordinator_is_not_a_protocol_error(self):
        server = HttpWorkQueue()
        url = server.url
        server.close()
        client = HttpWorkQueueClient(url, timeout=0.5)
        assert client.check_protocol() is None


class TestWorkerBackoff:
    def test_reachable_queue_polls_at_the_configured_interval(self):
        class Healthy:
            consecutive_failures = 0

        assert _idle_delay(Healthy(), 0.05, 10.0) == 0.05

    def test_unreachable_queue_backs_off_exponentially_with_jitter(self):
        class Failing:
            consecutive_failures = 3

        delays = {_idle_delay(Failing(), 0.05, 10.0) for _ in range(64)}
        # 0.05 * 2**3 = 0.4, jittered into [0.2, 0.4].
        assert all(0.2 <= delay <= 0.4 for delay in delays)
        assert len(delays) > 1  # jitter actually varies

    def test_backoff_is_capped_below_the_orphan_timeout(self):
        class Dead:
            consecutive_failures = 1000

        for _ in range(32):
            # Cap is min(5, orphan_timeout/8) so a worker always probes the
            # coordinator several times before declaring it orphaned.
            assert _idle_delay(Dead(), 0.05, 8.0) <= 1.0

    def test_file_queues_never_back_off(self):
        class InProcess:  # no consecutive_failures attribute
            pass

        assert _idle_delay(InProcess(), 0.05, 10.0) == 0.05


# ---------------------------------------------------------------------------
# The daemon end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture
def service():
    daemon = CampaignService(workers=0, poll_interval=0.02, lease_timeout=5.0)
    yield daemon
    daemon.close()


class TestServiceEndToEnd:
    def test_two_concurrent_campaigns_share_one_fleet(self, service):
        """The acceptance core: one daemon, two tenants, one fleet.

        Both campaigns are submitted before any worker runs, then a shared
        two-thread fleet drains the queue.  Each run's report must match a
        serial run of the same grid exactly, proving results never crossed.
        """
        client = ServiceClient(service.url)
        run_a = client.submit_spec(_tiny_spec("tenant-a"), label="a")
        run_b = client.submit_spec(_tiny_spec("tenant-b"), label="b")
        done: list = []
        threads = [
            _worker_thread(service.url, max_tasks=2, done=done)
            for _ in range(2)
        ]
        status_a = client.wait(run_a, timeout=60.0, poll_interval=0.05)
        status_b = client.wait(run_b, timeout=60.0, poll_interval=0.05)
        for thread in threads:
            thread.join(timeout=10.0)
        assert status_a["state"] == "done"
        assert status_b["state"] == "done"
        assert sum(done) == 4  # 2 variants per campaign, shared fleet

        for run_id, name in ((run_a, "tenant-a"), (run_b, "tenant-b")):
            document = client.results(run_id)
            serial = CampaignRunner(mode="serial").run(_tiny_grid(name))
            expected = json.loads(serial.to_json())
            assert document["result"]["rows"] == expected["rows"]
            assert document["result"]["cells"] == expected["cells"]
            assert document["result"]["failures"] == 0

        registry = client.list_runs()
        assert [entry["run"] for entry in registry] == [run_a, run_b]
        assert all(entry["state"] == "done" for entry in registry)

    def test_cancelling_one_run_leaves_the_sibling_alone(self, service):
        client = ServiceClient(service.url)
        slow = client.submit_tasks(
            [(_nap, 30.0) for _ in range(2)], label="slow")
        quick = client.submit_tasks([(_double, index) for index in range(3)],
                                    label="quick")
        assert client.cancel(slow) is True
        done: list = []
        thread = _worker_thread(service.url, max_tasks=3, done=done)
        thread.join(timeout=30.0)
        assert not thread.is_alive()

        state, results = client.task_results(quick)
        assert state == "done"
        assert results == {0: ("ok", 0), 1: ("ok", 2), 2: ("ok", 4)}
        assert client.status(slow)["state"] == "cancelled"
        # Cancelled-run status survives (post-mortem), results stay empty.
        assert client.results(slow).get("results") == {}
        assert client.cancel(slow) is False  # already cancelled: not running

    def test_daemon_accepts_new_runs_after_completion(self, service):
        client = ServiceClient(service.url)
        for round_number in range(2):
            run_id = client.submit_tasks(
                [(_double, round_number)], label=f"round-{round_number}")
            done: list = []
            thread = _worker_thread(service.url, max_tasks=1, done=done)
            thread.join(timeout=30.0)
            state, results = client.task_results(run_id)
            assert state == "done"
            assert results == {0: ("ok", 2 * round_number)}
        assert len(client.list_runs()) == 2

    def test_service_backend_runs_a_local_campaign_on_the_fleet(self, service):
        done: list = []
        threads = [
            _worker_thread(service.url, max_tasks=1, done=done)
            for _ in range(2)
        ]
        backend = ServiceBackend(url=service.url, poll_interval=0.02)
        result = CampaignRunner(backend=backend).run(_tiny_grid("svc-backend"))
        for thread in threads:
            thread.join(timeout=10.0)
        serial = CampaignRunner(mode="serial").run(_tiny_grid("svc-backend"))
        assert result.fallback_reason is None
        assert result.summaries() == serial.summaries()
        # The backend's hosted run was cleaned up from the daemon queue; its
        # registry record stays for post-mortem status queries.
        assert list(ServiceClient(service.url).list_runs())[0]["state"] in (
            "done", "cancelled")
        assert service.queue.run_ids() == []

    def test_spec_validation_errors_are_client_errors(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="exactly one of"):
            client.submit_spec({"scenario": {"duration": 0.4}})
        with pytest.raises(ServiceError, match="exactly one of"):
            client._request("POST", "/runs", {})
        with pytest.raises(ServiceError, match="unknown run"):
            client.status("never-submitted")
        with pytest.raises(ServiceError, match="unknown run"):
            client.cancel("never-submitted")
        assert client.cancel("never-submitted", missing_ok=True) is False

    def test_duplicate_run_id_is_conflict(self, service):
        from repro.campaign.transport import _encode

        client = ServiceClient(service.url)
        client.submit_tasks([(_nap, 30.0)], label="first")
        run_id = client.list_runs()[0]["run"]
        with pytest.raises(ServiceError, match="already"):
            client._request(
                "POST", "/runs",
                {"tasks": [_encode((_double, 1))], "run": run_id,
                 "label": "second"})

    def test_subprocess_fleet_end_to_end(self, tmp_path):
        """Once, with real worker subprocesses — the production shape."""
        with CampaignService(workers=2, poll_interval=0.02,
                             lease_timeout=10.0) as daemon:
            client = ServiceClient(daemon.url)
            run_id = client.submit_spec(_tiny_spec("subprocess-fleet"))
            status = client.wait(run_id, timeout=120.0, poll_interval=0.1)
            assert status["state"] == "done"
            document = client.results(run_id)
            serial = CampaignRunner(mode="serial").run(
                _tiny_grid("subprocess-fleet"))
            assert document["result"]["rows"] == json.loads(
                serial.to_json())["rows"]


class TestServiceAuth:
    TOKEN = "service-secret"

    @pytest.fixture
    def auth_service(self):
        daemon = CampaignService(
            workers=0, poll_interval=0.02, lease_timeout=5.0,
            auth_tokens=(self.TOKEN,),
        )
        yield daemon
        daemon.close()

    def test_submission_requires_the_token(self, auth_service):
        anonymous = ServiceClient(auth_service.url)
        with pytest.raises(WorkQueueAuthError):
            anonymous.submit_tasks([(_double, 1)])
        trusted = ServiceClient(auth_service.url, auth_token=self.TOKEN)
        run_id = trusted.submit_tasks([(_double, 1)])
        # Observability endpoints stay open (parity with /status, /metrics)
        # but results carry pickled payloads and need the token.
        assert anonymous.status(run_id)["state"] == "running"
        assert anonymous.list_runs()[0]["run"] == run_id
        with pytest.raises(WorkQueueAuthError):
            anonymous.results(run_id)
        with pytest.raises(WorkQueueAuthError):
            anonymous.cancel(run_id)
        assert trusted.cancel(run_id) is True

    def test_rotation_over_http_without_fleet_restart(self, auth_service):
        client = ServiceClient(auth_service.url, auth_token=self.TOKEN)
        run_id = client.submit_tasks([(_double, 21)], label="pre-rotation")
        client.rotate_token("fresh-secret")
        # The old token (the "fleet") keeps working through the rotation...
        done: list = []
        thread = _worker_thread(
            auth_service.url, max_tasks=1, done=done, token=self.TOKEN)
        thread.join(timeout=30.0)
        state, results = client.task_results(run_id)
        assert state == "done" and results == {0: ("ok", 42)}
        # ...and the new token is live for new clients.
        fresh = ServiceClient(auth_service.url, auth_token="fresh-secret")
        fresh.submit_tasks([(_double, 1)], label="post-rotation")
        with pytest.raises(ServiceError, match="new_token"):
            fresh._request("POST", "/rotate-token", {"new_token": ""})

    def test_tokens_never_appear_in_service_output(self, auth_service):
        client = ServiceClient(auth_service.url, auth_token=self.TOKEN)
        run_id = client.submit_tasks([(_double, 1)])
        surfaces = [
            json.dumps(client.list_runs()),
            json.dumps(client.status(run_id)),
            json.dumps(client.ping()),
            auth_service.queue.metrics_text(),
            json.dumps(auth_service.queue.status()),
        ]
        for surface in surfaces:
            assert self.TOKEN not in surface


class TestServiceClientSurface:
    def test_check_service_rejects_plain_coordinators(self, queue):
        # An older single-campaign coordinator answers /ping with
        # "service": false and hosts no /runs API; submitting to it must
        # fail with a pointer, not a 404 puzzle.
        queue.ping_info = lambda: {"ok": True, "protocol": PROTOCOL_VERSION,
                                   "mode": "campaign", "service": False}
        client = ServiceClient(queue.url)
        with pytest.raises(ServiceError, match="not a campaign service"):
            client.check_service()

    def test_unreachable_service_raises_not_degrades(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.3)
        with pytest.raises(ServiceUnreachableError):
            client.list_runs()

    def test_service_ping_advertises_service_mode(self, service):
        info = ServiceClient(service.url).check_service()
        assert info["service"] is True
        assert info["mode"] == "service"
        assert info["protocol"] == PROTOCOL_VERSION

    def test_get_runs_is_plain_http(self, service):
        # No client library needed: the registry is one curl away.
        with urllib.request.urlopen(f"{service.url}/runs", timeout=5.0) as reply:
            body = json.loads(reply.read())
        assert body == {"ok": True, "mode": "service", "runs": []}

    def test_unknown_service_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{service.url}/runs/x/unknown", timeout=5.0)
        assert excinfo.value.code == 404

    def test_run_cancelled_bypasses_serial_fallback(self):
        # RunCancelled must NOT be an Exception: the campaign runner's
        # backend-failure fallback would otherwise fly a cancelled tenant's
        # grid serially on the daemon thread.
        assert not issubclass(RunCancelled, Exception)
        assert issubclass(RunCancelled, BaseException)


# ---------------------------------------------------------------------------
# Queue state is freed when a run ends
# ---------------------------------------------------------------------------


class TestRunStateIsFreed:
    def test_service_backend_campaigns_leave_no_queue_state(self, service):
        # ServiceBackend deletes its run after every campaign; the delete
        # must free the run's queue state, results included.
        for round_number in range(3):
            done: list = []
            thread = _worker_thread(service.url, max_tasks=4, done=done)
            backend = ServiceBackend(url=service.url, poll_interval=0.02)
            values = list(range(round_number, round_number + 4))
            assert list(backend.map(_double, values)) == [2 * v for v in values]
            thread.join(timeout=10.0)
        assert service.queue.run_ids() == []
        status = service.queue.status()
        assert status["runs"] == {} and status["done"] == 0
        # The registry keeps one post-mortem record per campaign.
        assert len(ServiceClient(service.url).list_runs()) == 3

    def test_delete_frees_a_finished_task_runs_results(self, service):
        client = ServiceClient(service.url)
        run_id = client.submit_tasks([(_double, 1)])
        done: list = []
        _worker_thread(service.url, max_tasks=1, done=done).join(timeout=10.0)
        assert client.task_results(run_id) == ("done", {0: ("ok", 2)})
        assert client.cancel(run_id) is False  # finished: nothing to cancel
        assert service.queue.run_ids() == []
        assert client.results(run_id)["results"] == {}
        assert client.status(run_id)["state"] == "done"

    def test_finished_spec_run_frees_queue_state_and_keeps_its_report(
        self, service
    ):
        client = ServiceClient(service.url)
        run_id = client.submit_spec(_tiny_spec("freed"))
        done: list = []
        thread = _worker_thread(service.url, max_tasks=2, done=done)
        status = client.wait(run_id, timeout=60.0, poll_interval=0.05)
        thread.join(timeout=10.0)
        assert status["state"] == "done"
        assert run_id not in service.queue.run_ids()
        assert "queue" not in client.status(run_id)
        assert client.results(run_id)["result"]["failures"] == 0


class TestHostedRuns:
    def test_each_map_call_gets_its_own_results(self, service):
        # An adaptive search maps wave after wave over one hosted run: a
        # later wave must never be answered with an earlier wave's results
        # (both number their tasks from 0 as far as the runner knows).
        backend = service.host_run(label="waves")
        done: list = []
        thread = _worker_thread(service.url, max_tasks=4, done=done)
        assert list(backend.map(_double, [1, 2])) == [2, 4]
        assert list(backend.map(_triple, [1, 2])) == [3, 6]
        thread.join(timeout=10.0)
        assert done == [4]

    def test_cancelled_run_unwinds_instead_of_falling_back(self, service):
        backend = service.host_run(label="doomed")
        [run_id] = service.queue.run_ids()
        iterator = backend.map(_double, [1])
        service.cancel(run_id)
        with pytest.raises(RunCancelled):
            next(iterator)


# ---------------------------------------------------------------------------
# The fleet's dead-fleet check (spawn, autoscaling and the crash-loop guard
# are tested in tests/test_transport.py)
# ---------------------------------------------------------------------------


class TestFleet:
    @pytest.mark.filterwarnings("ignore:campaign executor backend")
    def test_dead_fleet_fails_the_run_and_service_backend_falls_back(self):
        # Every task kills the worker that unpickles it.  The service must
        # notice its spawned fleet is gone and fail the run; the client's
        # runner then finishes serially with the reason recorded — instead
        # of polling a run no worker will ever drain.
        with CampaignService(workers=1, poll_interval=0.02,
                             lease_timeout=60.0) as daemon:
            backend = ServiceBackend(url=daemon.url, poll_interval=0.02)
            variants = _worker_killing_variants("dead-service-fleet")
            result = _run_in_thread(
                lambda: CampaignRunner(backend=backend).run(variants), 60.0)
            [record] = ServiceClient(daemon.url).list_runs()
        assert "failed" in result.fallback_reason
        assert result.failures() == () and len(result) == 2
        assert record["state"] == "failed"
        assert "workers exited" in record["error"]

    @pytest.mark.filterwarnings("ignore:campaign executor backend")
    def test_dead_fleet_fails_the_run_and_distributed_backend_falls_back(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0,
                                     poll_interval=0.02)
        variants = _worker_killing_variants("dead-distributed-fleet")
        result = _run_in_thread(
            lambda: CampaignRunner(backend=backend).run(variants), 60.0)
        assert "workers exited" in result.fallback_reason
        assert result.failures() == () and len(result) == 2

    def test_killed_fleet_fails_a_hosted_spec_run(self):
        # The only worker is killed mid-flight: the spec run ends failed
        # and frees its queue state, the dead daemon refuses the next
        # submission outright, and takes runs again once a worker attaches.
        with CampaignService(workers=1, poll_interval=0.02,
                             lease_timeout=60.0) as daemon:
            client = ServiceClient(daemon.url)
            slow = _tiny_spec("orphaned")
            slow["scenario"]["duration"] = 5.0
            run_id = client.submit_spec(slow)
            assert _wait_until(lambda: daemon.queue.status()["claimed"])
            [worker] = daemon._processes
            worker.kill()
            worker.wait()
            status = client.wait(run_id, timeout=30.0, poll_interval=0.05)
            assert status["state"] == "failed"
            assert "workers exited" in status["error"]
            daemon._runs[run_id].thread.join(timeout=10.0)
            assert daemon.queue.run_ids() == []
            with pytest.raises(ServiceError, match="no live worker"):
                client.submit_tasks([(_double, 1)])
            done: list = []
            thread = _worker_thread(daemon.url, max_tasks=1, done=done)
            assert _wait_until(lambda: not daemon._fleet_dead())
            backend = ServiceBackend(url=daemon.url, poll_interval=0.02)
            assert list(backend.map(_double, [21])) == [42]
            thread.join(timeout=10.0)
            assert done == [1]

    def test_external_worker_keeps_serving_after_the_spawned_fleet_dies(self):
        # A daemon's local and external workers are one fleet: with the
        # spawned worker dead, an attached external worker still drains
        # new runs, so none of them is failed.
        with CampaignService(workers=1, poll_interval=0.02,
                             lease_timeout=60.0) as daemon:
            done: list = []
            thread = _worker_thread(daemon.url, max_tasks=3, done=done)
            assert _wait_until(lambda: daemon._processes)
            [worker] = daemon._processes
            worker.kill()
            worker.wait()
            assert _wait_until(lambda: not daemon._processes)
            backend = ServiceBackend(url=daemon.url, poll_interval=0.02)
            assert list(backend.map(_double, [1, 2, 3])) == [2, 4, 6]
            [record] = ServiceClient(daemon.url).list_runs()
            thread.join(timeout=10.0)
        assert record["state"] == "done"
        assert done == [3]

