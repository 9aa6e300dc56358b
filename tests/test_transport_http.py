"""Tests for the HTTP/JSON work-queue transport and its authentication.

* :class:`~repro.campaign.transport.HttpWorkQueue` /
  :class:`~repro.campaign.transport.HttpWorkQueueClient` primitives over a
  real HTTP server — exclusive claims, heartbeat leases, run namespacing,
  retire credits, poison pills, undecodable-result requeue, URL validation;
* the auth failure paths: wrong/missing token rejected with a distinct
  (HTTP 401) error, the worker exits with a clear message instead of
  retry-looping, and the token never leaks into logs or results;
* :class:`~repro.campaign.DistributedBackend` end-to-end over real
  subprocess workers, plus spec/CLI plumbing.

The fleet as it runs — a campaign service's port, the worker CLI in its own
process, autoscaling — is tested in ``tests/test_transport.py``.  The
expensive acceptance run (12 real flights over authenticated HTTP ==
serial) lives in ``benchmarks/test_distributed_backend.py``.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.campaign import (
    CampaignRunner,
    DistributedBackend,
    HttpWorkQueue,
    HttpWorkQueueClient,
    ScenarioGrid,
    WorkQueueAuthError,
)
from repro.campaign.spec import build_runner
from repro.campaign.transport import parse_http_url
from repro.campaign.worker import main as worker_main, run_worker
from repro.campaign.workqueue import (
    AUTH_TOKEN_ENV,
    PROTOCOL_VERSION,
    WorkQueue,
    resolve_auth_token,
)
from repro.sim import FlightScenario

RUN = "rtest"


# -- picklable worker functions (module-level so queue workers can import them) --


def _double(item):
    return item * 2


def _boom(item):
    raise RuntimeError(f"boom on {item!r}")


@pytest.fixture
def queue():
    with HttpWorkQueue() as server:
        server.add_run(RUN)
        yield server


def client_for(server: HttpWorkQueue, **kwargs) -> HttpWorkQueueClient:
    kwargs.setdefault("timeout", 5.0)
    return HttpWorkQueueClient(server.url, **kwargs)


def pending(server: HttpWorkQueue, run: str = RUN) -> int:
    return server.status()["runs"][run]["pending"]


class TestParseHttpUrl:
    def test_plain_host_port(self):
        assert parse_http_url("http://example.org:9000") == "http://example.org:9000"

    def test_trailing_slash_stripped(self):
        assert parse_http_url("http://example.org:9000/") == "http://example.org:9000"

    def test_path_prefix_kept_for_reverse_proxies(self):
        url = "https://lb.example.org/campaign"
        assert parse_http_url(url) == url

    def test_non_http_scheme_rejected(self):
        with pytest.raises(ValueError, match="http"):
            parse_http_url("ftp://example.org:9000")
        with pytest.raises(ValueError, match="http"):
            parse_http_url("example.org:9000")

    def test_query_string_rejected(self):
        # Per-op paths are appended to the base URL; a query would end up
        # inside the endpoint ("...?team=a/claim") and every request 404s.
        with pytest.raises(ValueError, match="query"):
            parse_http_url("http://lb.example.com/campaign?team=a")

    def test_fragment_rejected(self):
        with pytest.raises(ValueError, match="fragment"):
            parse_http_url("http://lb.example.com/campaign#section")

    def test_worker_cli_rejects_query_url_with_exit_2(self, capsys):
        # The malformed URL must be a clean configuration error (exit 2
        # plus the ValueError message), not a retry loop against endpoints
        # that can never resolve.
        code = worker_main(
            ["--connect-http", "http://lb.example.com/campaign?team=a"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("worker:")
        assert "query" in err


class TestHttpWorkQueuePrimitives:
    def test_satisfies_the_workqueue_protocol(self, queue):
        assert isinstance(client_for(queue), WorkQueue)

    def test_enqueue_claim_complete_roundtrip_over_http(self, queue):
        for index, payload in enumerate(["x", "y"]):
            queue.enqueue_in(RUN, index, payload)
        assert pending(queue) == 2

        client = client_for(queue)
        index, payload, lease = client.claim("w1")
        assert (index, payload) == (0, "x")  # lowest index first
        client.complete(index, ("ok", "done"), lease)
        assert queue.collect_run(RUN) == {0: ("ok", "done")}
        assert queue.collect_run(RUN, seen={0}) == {}
        assert pending(queue) == 1

    def test_claims_are_exclusive(self, queue):
        queue.enqueue_in(RUN, 0, "only")
        assert client_for(queue).claim("w1") is not None
        assert client_for(queue).claim("w2") is None

    def test_disconnected_worker_lease_is_reissued(self, queue):
        # A client claims a task and then vanishes (no heartbeat ever
        # arrives — a dropped connection and a dead worker are
        # indistinguishable on purpose).  The lease expires and another
        # worker gets the task.
        queue.enqueue_in(RUN, 0, "task")
        assert client_for(queue).claim("gone") is not None
        assert client_for(queue).claim("w2") is None  # still leased
        time.sleep(0.05)
        assert queue.reclaim_expired(lease_timeout=0.01) == [0]
        index, payload, _ = client_for(queue).claim("w2")
        assert (index, payload) == (0, "task")

    def test_heartbeat_keeps_the_lease(self, queue):
        queue.enqueue_in(RUN, 0, "task")
        client = client_for(queue)
        _, _, lease = client.claim("w1")
        time.sleep(0.2)
        client.heartbeat(lease)
        assert queue.reclaim_expired(lease_timeout=0.15) == []

    def test_results_of_other_runs_are_ignored(self, queue):
        # A lease claimed from a previous coordinator carries the old run
        # id; a new coordinator must not collect its result.
        queue.enqueue_in(RUN, 0, "old-task")
        client = client_for(queue)
        index, _, old_lease = client.claim("w1")

        with HttpWorkQueue() as successor:
            successor.add_run("rnew")
            heir = client_for(successor)
            heir.complete(index, ("ok", "stale"), old_lease)
            assert successor.collect_run("rnew") == {}
            successor.enqueue_in("rnew", 0, _double)
            fresh_index, _, fresh_lease = heir.claim("w2")
            heir.complete(fresh_index, ("ok", 10), fresh_lease)
            assert successor.collect_run("rnew") == {0: ("ok", 10)}

    def test_stop_and_retire_travel_over_the_wire(self, queue):
        client = client_for(queue)
        assert client.stop_requested() is False
        queue.request_stop()
        assert client.stop_requested() is True
        queue.set_retire_credits(1)
        assert client.try_retire() is True
        assert client.try_retire() is False

    def test_each_retire_credit_dismisses_exactly_one_worker(self, queue):
        queue.set_retire_credits(2)
        client = client_for(queue)
        assert client.try_retire() is True
        assert client.try_retire() is True
        assert client.try_retire() is False

    def test_retire_credits_are_set_not_added(self, queue):
        queue.set_retire_credits(5)
        queue.set_retire_credits(1)  # the autoscaler re-derives the surplus
        client = client_for(queue)
        assert client.try_retire() is True
        assert client.try_retire() is False

    def test_unreadable_payload_is_a_poison_pill_not_a_crash(self, queue):
        # A payload whose module is not importable on the worker raises
        # from pickle.loads at claim time; the client must ship the failure
        # back and keep going, not crash-loop over it.
        with queue._lock:
            queue._runs[RUN].pending[0] = b"cdefinitely_missing_module\nboom\n."
        assert client_for(queue).claim("w1") is None
        status, text = queue.collect_run(RUN)[0]
        assert status == "error"
        assert "unreadable task payload" in text

    def test_unpicklable_payload_fails_loudly_in_the_coordinator(self, queue):
        with pytest.raises(Exception):
            queue.enqueue_in(RUN, 0, lambda x: x)  # locals never pickle
        assert pending(queue) == 0

    def test_undecodable_result_requeues_the_task(self, queue):
        # A result blob the coordinator cannot decode must not take the
        # task down with it: the claim is rolled back into the pending set
        # and another worker re-flies it (releasing the lease alone would
        # strand the task — reclaim_expired only scans live claims).
        queue.enqueue_in(RUN, 0, "task")
        client = client_for(queue)
        index, _, lease = client.claim("w1")
        assert pending(queue) == 0
        response = client._request({
            "op": "complete", "index": index, "run": lease.run,
            "lease": lease.token, "result": "!!!not-a-pickle!!!",
        })
        assert response is None  # server answered ok: false (HTTP 400)
        assert queue.collect_run(RUN) == {}
        assert pending(queue) == 1  # task is claimable again
        assert client.claim("w2") is not None

    def test_client_degrades_when_coordinator_is_unreachable(self):
        server = HttpWorkQueue()
        client = client_for(server)
        assert client.coordinator_age() < 1.0
        server.close()
        time.sleep(0.05)
        assert client.claim("w1") is None
        assert client.stop_requested() is False
        assert client.try_retire() is False
        assert client.coordinator_age() > 0.0

    def test_get_ping_serves_as_health_check(self, queue):
        # Load balancers probe with GET; every queue operation is a POST.
        # The body carries protocol + mode so clients can fail fast on skew.
        with urllib.request.urlopen(f"{queue.url}/ping", timeout=5.0) as reply:
            body = json.loads(reply.read())
        assert body["ok"] is True
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["mode"] == "service"
        assert body["service"] is True

    def test_unknown_endpoint_is_an_error_not_a_dispatch(self, queue):
        # The path names the operation; a body-smuggled "op" must not win.
        queue.enqueue_in(RUN, 0, "task")
        request = urllib.request.Request(
            f"{queue.url}/definitely-not-an-op",
            data=json.dumps({"op": "claim", "worker": "w1"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 400
        assert pending(queue) == 1  # nothing was claimed


class TestHttpAuthentication:
    TOKEN = "http-test-secret"

    @pytest.fixture
    def auth_queue(self):
        with HttpWorkQueue(auth_token=self.TOKEN) as server:
            server.add_run(RUN)
            server.enqueue_in(RUN, 0, "guarded")
            yield server

    def test_matching_token_claims_normally(self, auth_queue):
        client = client_for(auth_queue, auth_token=self.TOKEN)
        index, payload, lease = client.claim("w1")
        assert (index, payload) == (0, "guarded")
        client.complete(index, ("ok", "done"), lease)
        assert auth_queue.collect_run(RUN) == {0: ("ok", "done")}

    def test_missing_token_is_rejected_distinctly(self, auth_queue):
        client = client_for(auth_queue)
        with pytest.raises(WorkQueueAuthError, match="none was supplied"):
            client.claim("w1")
        assert pending(auth_queue) == 1  # nothing was leased

    def test_wrong_token_is_rejected_distinctly(self, auth_queue):
        client = client_for(auth_queue, auth_token="not-the-secret")
        with pytest.raises(WorkQueueAuthError, match="rejected"):
            client.stop_requested()

    def test_rejection_is_http_401(self, auth_queue):
        # The distinct status lets proxies and their metrics see auth
        # failures as auth failures, not generic 4xx noise.
        request = urllib.request.Request(
            f"{auth_queue.url}/stop", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 401
        body = json.loads(excinfo.value.read())
        assert body["denied"] == "auth"
        assert self.TOKEN not in json.dumps(body)

    def test_worker_exits_immediately_instead_of_retry_looping(self, auth_queue):
        start = time.monotonic()
        with pytest.raises(WorkQueueAuthError):
            run_worker(
                connect_http=auth_queue.url, worker_id="t",
                poll_interval=0.2, auth_token="wrong",
            )
        assert time.monotonic() - start < 2.0

    def test_worker_cli_exits_with_clear_message(self, auth_queue, capsys):
        code = worker_main([
            "--connect-http", auth_queue.url, "--auth-token", "wrong",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "authentication failed" in err
        assert self.TOKEN not in err and "wrong" not in err

    def test_worker_reads_token_from_the_environment(self, auth_queue, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, self.TOKEN)
        completed = run_worker(
            connect_http=auth_queue.url, worker_id="t",
            poll_interval=0.01, max_tasks=1,
        )
        assert completed == 1

    def test_explicit_token_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        assert resolve_auth_token("explicit") == "explicit"
        assert resolve_auth_token(None) == "from-env"
        monkeypatch.setenv(AUTH_TOKEN_ENV, "")
        assert resolve_auth_token(None) is None


class TestRunWorkerOverHttp:
    def test_worker_drains_queue(self, queue):
        for index, item in enumerate([1, 2, 3]):
            queue.enqueue_in(RUN, index, (_double, item))
        completed = run_worker(
            connect_http=queue.url, worker_id="t", poll_interval=0.01,
            max_tasks=3,
        )
        assert completed == 3
        assert queue.collect_run(RUN) == {0: ("ok", 2), 1: ("ok", 4), 2: ("ok", 6)}

    def test_worker_ships_exceptions_as_data(self, queue):
        queue.enqueue_in(RUN, 0, (_boom, "it"))
        run_worker(connect_http=queue.url, worker_id="t",
                   poll_interval=0.01, max_tasks=1)
        status, text = queue.collect_run(RUN)[0]
        assert status == "error"
        assert "RuntimeError" in text and "boom on 'it'" in text

    def test_stop_prevents_draining_an_aborted_campaign(self, queue):
        # Stop is checked before claiming: leftover tasks of an aborted
        # campaign must not be flown by the fleet.
        queue.enqueue_in(RUN, 0, (_double, 1))
        queue.enqueue_in(RUN, 1, (_double, 2))
        queue.request_stop()
        assert run_worker(connect_http=queue.url, worker_id="t",
                          poll_interval=0.01) == 0
        assert pending(queue) == 2

    def test_idle_worker_exits_when_coordinator_is_unreachable(self):
        server = HttpWorkQueue()
        url = server.url
        server.close()
        completed = run_worker(
            connect_http=url, worker_id="t", poll_interval=0.01,
            orphan_timeout=0.05,
        )
        assert completed == 0

    def test_worker_survives_a_coordinator_restart(self):
        first = HttpWorkQueue()
        first.add_run("first")
        host, port = first.address
        first.enqueue_in("first", 0, (_double, 21))

        done: list[int] = []

        def worker() -> None:
            done.append(run_worker(
                connect_http=f"http://{host}:{port}", worker_id="survivor",
                poll_interval=0.01, max_tasks=2, orphan_timeout=30.0,
            ))

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        deadline = time.time() + 10.0
        while not first.collect_run("first") and time.time() < deadline:
            time.sleep(0.01)
        assert first.collect_run("first") == {0: ("ok", 42)}
        first.close()

        second = HttpWorkQueue(host, port)
        try:
            second.add_run("second")
            second.enqueue_in("second", 0, (_double, 100))
            while not second.collect_run("second") and time.time() < deadline:
                time.sleep(0.01)
            assert second.collect_run("second") == {0: ("ok", 200)}
        finally:
            second.request_stop()
            thread.join(timeout=10.0)
            second.close()
        assert done == [2]

    def test_exactly_one_queue_source_required(self, queue):
        with pytest.raises(ValueError, match="exactly one"):
            run_worker("http://localhost:1", queue=client_for(queue))
        with pytest.raises(ValueError, match="exactly one"):
            run_worker()

    def test_explicit_queue_object_rejects_an_auth_token(self, queue):
        # A token that cannot take effect on an explicit queue object must
        # not be silently dropped.
        with pytest.raises(ValueError, match="explicit queue object"):
            run_worker(queue=client_for(queue), auth_token="pointless")

    def test_loopback_client_ignores_proxy_environment(self, queue, monkeypatch):
        # A coordinator-spawned worker talks to 127.0.0.1; an inherited
        # http_proxy must not route (and blackhole) that loopback traffic.
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")  # dead port
        monkeypatch.setenv("no_proxy", "")
        queue.enqueue_in(RUN, 0, (_double, 5))
        completed = run_worker(
            connect_http=queue.url, worker_id="t", poll_interval=0.01,
            max_tasks=1,
        )
        assert completed == 1
        assert queue.collect_run(RUN) == {0: ("ok", 10)}


class TestDistributedBackendHttpTransport:
    def test_spawned_workers_complete_over_http(self):
        backend = DistributedBackend(
            workers=2, lease_timeout=60.0, poll_interval=0.02,
            auth_token="fleet-secret",
        )
        completions = []
        results = list(backend.map(
            _double, [10, 20, 30], on_complete=lambda i, r: completions.append(i)
        ))
        assert results == [20, 40, 60]
        assert sorted(completions) == [0, 1, 2]

    def test_remote_failure_raises_with_traceback(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0)
        with pytest.raises(RuntimeError, match="distributed worker failed"):
            list(backend.map(_boom, [1]))

    def test_autoscales_from_zero_over_http(self):
        backend = DistributedBackend(
            workers=0, max_workers=2, lease_timeout=60.0, poll_interval=0.02,
        )
        assert list(backend.map(_double, [4, 5])) == [8, 10]
        assert any(e["event"] == "scale-up" for e in backend.scale_events)

    def test_external_worker_drains_and_exits_on_stop(self):
        # The proxied bring-your-own-fleet flow: workers=0 on a fixed port,
        # an authenticated worker attached by URL (starting *before* the
        # server exists — early connection failures must degrade, not
        # crash).  After the campaign the coordinator lingers long enough
        # for the idle worker to observe the stop sentinel and exit
        # promptly, not via the (minutes-long) orphan timeout.
        import socket as socket_module

        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = DistributedBackend(
            workers=0, port=port, lease_timeout=60.0, poll_interval=0.02,
            auth_token="ext-secret",
        )
        done: list[int] = []
        thread = threading.Thread(
            target=lambda: done.append(run_worker(
                connect_http=f"http://127.0.0.1:{port}", worker_id="ext",
                poll_interval=0.02, orphan_timeout=60.0,
                auth_token="ext-secret",
            )),
            daemon=True,
        )
        thread.start()
        assert list(backend.map(_double, [1, 2, 3])) == [2, 4, 6]
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "worker must exit on the stop sentinel"
        assert done == [3]

    def test_token_never_reaches_the_campaign_result(self, tmp_path):
        # Full-stack hygiene: a real (tiny) campaign over authenticated
        # HTTP, then every user-facing rendering of the result is checked
        # for the secret.
        token = "result-must-not-see-me"
        grid = ScenarioGrid(
            FlightScenario(name="http-tiny", duration=0.4, record_hz=20.0),
            axes={"seed": [1, 2]},
        )
        backend = DistributedBackend(
            workers=2, lease_timeout=120.0, auth_token=token,
        )
        result = CampaignRunner(backend=backend).run(grid)
        assert result.failures() == ()
        json_path = tmp_path / "result.json"
        result.to_json(json_path)
        assert token not in json_path.read_text()
        assert token not in result.to_text()
        assert token not in repr(result)
        assert token not in repr(backend)


class TestHttpSpecPlumbing:
    def test_spec_backend_options_select_http_transport(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 2,
                                               "auth_token": "spec-secret"}}}
        runner = build_runner(spec)
        assert isinstance(runner.backend, DistributedBackend)
        assert runner.backend.workers == 2
        assert runner.backend.auth_token == "spec-secret"
        assert "spec-secret" not in repr(runner.backend)

    def test_spec_http_transport_rejects_queue_dir(self, tmp_path):
        # A spec naming a shared queue directory is an error, not silently
        # a different substrate.
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"queue_dir": str(tmp_path)}}}
        with pytest.raises(TypeError, match="queue_dir"):
            build_runner(spec)

    def test_validation_matrix(self):
        with pytest.raises(ValueError, match="fixed port"):
            DistributedBackend(workers=0)
        with pytest.raises(ValueError, match="fixed port"):
            DistributedBackend(max_workers=4, port=18766)
        with pytest.raises(ValueError, match="non-empty"):
            DistributedBackend(auth_token="")
        with pytest.raises(ValueError, match="max_workers must be >= workers"):
            DistributedBackend(workers=4, max_workers=2)
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            DistributedBackend(max_workers=0)
        # Legal corners: an external fleet on a fixed port, and
        # autoscaling from zero without any attachment point.
        DistributedBackend(workers=0, port=18767)
        DistributedBackend(workers=0, max_workers=2)
        DistributedBackend(auth_token="fine")
