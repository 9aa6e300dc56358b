"""Tests for the campaign fleet over TCP: workers on one end of a real
socket, a coordinator's HTTP port on the other.

``tests/test_transport_http.py`` covers the queue primitives on a bare
:class:`~repro.campaign.transport.HttpWorkQueue` with in-process clients.
This module covers the shapes a fleet actually runs in:

* the address a coordinator publishes and the URL forms a worker accepts;
* authentication on a :class:`~repro.campaign.service.CampaignService`'s
  port, the worker CLI's exit on a rejected token, and the token's route
  to spawned workers (the environment — never argv, logs or scale events);
* the worker CLI in its own process: draining, shipping exceptions,
  leaving an unreachable coordinator, surviving a coordinator restart;
* :class:`~repro.campaign.DistributedBackend` with spawned and external
  fleets, and the service's autoscaler (spawn on backlog, retire idle
  workers, crash-loop guard).

The expensive acceptance run (12 real flights over authenticated HTTP ==
serial) lives in ``benchmarks/test_distributed_backend.py``.
"""

import json
import logging
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    DistributedBackend,
    HttpWorkQueue,
    HttpWorkQueueClient,
    ServiceBackend,
    WorkQueueAuthError,
)
from repro.campaign.service import CampaignService
from repro.campaign.transport import parse_http_url
from repro.campaign.worker import main as worker_main, run_worker
from repro.campaign.workqueue import AUTH_TOKEN_ENV

RUN = "rtest"


# -- picklable worker functions (module-level so queue workers can import them) --


def _double(item):
    return item * 2


def _boom(item):
    raise RuntimeError(f"boom on {item!r}")


def _exit_hard(item):
    os._exit(3)  # worker killed mid-task: no heartbeat survives


def _sleepy(item):
    time.sleep(item)
    return item


@pytest.fixture
def queue():
    with HttpWorkQueue() as server:
        server.add_run(RUN)
        yield server


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _worker_cli(url: str, *args: str, env: dict | None = None) -> subprocess.Popen:
    """Start ``python -m repro.campaign.worker`` attached to ``url`` — the
    command an external fleet runs.  Task payloads name functions of this
    module, so the worker gets this process's import path."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path if entry)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.campaign.worker",
         "--connect-http", url, "--poll", "0.02", *args],
        env=env, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture
def worker_processes():
    """Worker processes a test starts; any still running at teardown (a
    failed assertion) are killed so none outlives the test."""
    started: list[subprocess.Popen] = []
    yield started
    for proc in started:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def _wait_for_results(server: HttpWorkQueue, run: str, count: int) -> dict:
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        results = server.collect_run(run)
        if len(results) >= count:
            return results
        time.sleep(0.01)
    return server.collect_run(run)


class TestParseAddress:
    """The address a coordinator publishes and the URL forms a worker
    accepts."""

    def test_host_port(self):
        # The coordinator publishes host and bound port; the URL built from
        # them is one a worker accepts and reaches the coordinator under.
        with CampaignService(workers=0) as daemon:
            host, port = daemon.address
            assert host == "127.0.0.1" and port > 0
            assert daemon.url == f"http://127.0.0.1:{port}"
            assert parse_http_url(daemon.url) == daemon.url
            assert HttpWorkQueueClient(daemon.url, timeout=5.0).ping() is not None

    def test_bracketed_ipv6(self):
        assert parse_http_url("http://[::1]:9000") == "http://[::1]:9000"

    def test_non_numeric_port_rejected(self):
        with pytest.raises(ValueError, match="non-numeric port"):
            parse_http_url("http://example.org:http")


class TestSocketAuthentication:
    """The shared secret on a campaign service's port, as a fleet meets it:
    worker processes holding the secret in their environment, with a
    missing or a wrong one, and the service's spawned fleet.  Rejections
    are *distinct* (never the silent degrade that keeps a worker polling),
    and the token stays out of every output."""

    TOKEN = "socket-test-secret"

    @pytest.fixture
    def service(self):
        with CampaignService(workers=0, auth_tokens=(self.TOKEN,)) as daemon:
            daemon.queue.add_run(RUN)
            daemon.queue.enqueue_in(RUN, 0, (_double, 21))
            yield daemon

    @staticmethod
    def _env(token: str | None) -> dict:
        """This process's environment with ``token`` as the only secret."""
        env = {k: v for k, v in os.environ.items() if k != AUTH_TOKEN_ENV}
        if token is not None:
            env[AUTH_TOKEN_ENV] = token
        return env

    def test_matching_token_claims_normally(self, service, worker_processes):
        # A worker process with the secret in its environment drains the
        # service's queue, and nothing is denied on the way.
        worker = _worker_cli(service.url, "--max-tasks", "1",
                             env=self._env(self.TOKEN))
        worker_processes.append(worker)
        _, err = worker.communicate(timeout=60.0)
        assert worker.returncode == 0, err
        assert service.queue.collect_run(RUN) == {0: ("ok", 42)}
        assert service.queue.stats_snapshot()["auth_denials"] == 0

    def test_missing_token_is_rejected_distinctly(self, service, worker_processes):
        # A worker process started without the secret exits 2, saying none
        # was supplied, and leases nothing.
        worker = _worker_cli(service.url, env=self._env(None))
        worker_processes.append(worker)
        _, err = worker.communicate(timeout=60.0)
        assert worker.returncode == 2
        assert "none was supplied" in err
        assert service.queue.status()["runs"][RUN]["pending"] == 1
        assert service.queue.stats_snapshot()["auth_denials"] == 1

    def test_wrong_token_is_rejected_distinctly(self, service):
        # A rejected claim leases nothing and never counts the claimant as
        # an attached worker, so it cannot keep a service whose own fleet
        # died from failing its runs.
        client = HttpWorkQueueClient(service.url, timeout=5.0,
                                     auth_token="not-the-secret")
        with pytest.raises(WorkQueueAuthError, match="rejected"):
            client.claim("intruder")
        assert service.queue.workers_seen(60.0) == set()
        assert service.queue.status()["runs"][RUN]["pending"] == 1

    def test_rejection_message_never_contains_either_token(self, service):
        client = HttpWorkQueueClient(service.url, timeout=5.0,
                                     auth_token="attacker-guess")
        with pytest.raises(WorkQueueAuthError) as excinfo:
            client.claim("w1")
        assert self.TOKEN not in str(excinfo.value)
        assert "attacker-guess" not in str(excinfo.value)

    def test_server_without_auth_ignores_a_client_token(self):
        with CampaignService(workers=0) as daemon:
            daemon.queue.add_run(RUN)
            daemon.queue.enqueue_in(RUN, 0, "open")
            client = HttpWorkQueueClient(daemon.url, timeout=5.0,
                                         auth_token="superfluous")
            assert client.claim("w1") is not None

    def test_empty_token_rejected_on_both_sides(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignService(workers=0, auth_tokens=("",))
        with pytest.raises(ValueError, match="non-empty"):
            HttpWorkQueueClient("http://127.0.0.1:1", auth_token="")

    def test_worker_exits_immediately_instead_of_retry_looping(
        self, service, worker_processes
    ):
        # A worker process that polls every 30 s still exits at once: its
        # first rejected request ends it, no retry waits out a poll.
        worker = _worker_cli(service.url, "--poll", "30",
                             env=self._env("wrong"))
        worker_processes.append(worker)
        worker.communicate(timeout=20.0)
        assert worker.returncode == 2

    def test_worker_cli_exits_with_clear_message(self, service, worker_processes):
        # A real worker process handed a wrong secret the recommended way
        # (the environment) exits 2 with a message naming neither token.
        worker = _worker_cli(service.url, env=self._env("guessed-secret"))
        worker_processes.append(worker)
        _, err = worker.communicate(timeout=60.0)
        assert worker.returncode == 2
        assert "authentication failed" in err
        assert self.TOKEN not in err and "guessed-secret" not in err

    def test_spawned_fleet_token_travels_via_env_not_argv(self, monkeypatch):
        # The service hands its token to spawned workers through the
        # environment; the subprocess command line must never carry it.
        recorded: list[tuple[list[str], dict]] = []
        real_popen = subprocess.Popen

        def spy(cmd, env=None, **kwargs):
            recorded.append((cmd, env or {}))
            return real_popen(cmd, env=env, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", spy)
        backend = DistributedBackend(
            workers=1, lease_timeout=60.0, poll_interval=0.02,
            auth_token="argv-must-not-see-me",
        )
        assert list(backend.map(_double, [21])) == [42]
        assert recorded, "a worker must have been spawned"
        for cmd, env in recorded:
            assert all("argv-must-not-see-me" not in part for part in cmd)
            assert env.get(AUTH_TOKEN_ENV) == "argv-must-not-see-me"

    def test_token_stays_out_of_repr_logs_and_scale_events(self, caplog):
        backend = DistributedBackend(
            workers=0, max_workers=2, lease_timeout=60.0, poll_interval=0.02,
            auth_token="log-must-not-see-me",
        )
        with caplog.at_level(logging.DEBUG):
            assert list(backend.map(_double, [1, 2])) == [2, 4]
        assert "log-must-not-see-me" not in repr(backend)
        assert "log-must-not-see-me" not in caplog.text
        assert backend.scale_events, "autoscaler must have recorded events"
        assert "log-must-not-see-me" not in json.dumps(backend.scale_events)


class TestRunWorkerOverTcp:
    """The worker CLI in its own process, as every fleet member runs."""

    def test_worker_drains_queue(self, queue, worker_processes):
        for index, item in enumerate([1, 2, 3]):
            queue.enqueue_in(RUN, index, (_double, item))
        worker = _worker_cli(queue.url, "--max-tasks", "3")
        worker_processes.append(worker)
        assert worker.wait(timeout=60.0) == 0
        assert queue.collect_run(RUN) == {0: ("ok", 2), 1: ("ok", 4), 2: ("ok", 6)}

    def test_worker_ships_exceptions_as_data(self, queue, worker_processes):
        # The task's exception is a result, not the worker's death: the
        # process finishes its quota and exits cleanly.
        queue.enqueue_in(RUN, 0, (_boom, "it"))
        worker = _worker_cli(queue.url, "--max-tasks", "1")
        worker_processes.append(worker)
        assert worker.wait(timeout=60.0) == 0
        status, text = queue.collect_run(RUN)[0]
        assert status == "error"
        assert "RuntimeError" in text and "boom on 'it'" in text

    def test_idle_worker_exits_when_coordinator_is_unreachable(
        self, worker_processes
    ):
        server = HttpWorkQueue()
        url = server.url
        server.close()
        worker = _worker_cli(url, "--orphan-timeout", "0.05")
        worker_processes.append(worker)
        assert worker.wait(timeout=60.0) == 0

    def test_worker_survives_a_coordinator_restart(self, worker_processes):
        # The live worker process keeps polling through the outage
        # (connection refused degrades to "nothing to claim") and serves
        # the successor coordinator on the same port.
        first = HttpWorkQueue()
        first.add_run("first")
        host, port = first.address
        first.enqueue_in("first", 0, (_double, 21))
        worker = _worker_cli(
            f"http://{host}:{port}", "--max-tasks", "2",
            "--orphan-timeout", "30",
        )
        worker_processes.append(worker)
        try:
            assert _wait_for_results(first, "first", 1) == {0: ("ok", 42)}
        finally:
            first.close()

        second = HttpWorkQueue(host, port)
        try:
            second.add_run("second")
            second.enqueue_in("second", 0, (_double, 100))
            assert _wait_for_results(second, "second", 1) == {0: ("ok", 200)}
            assert worker.wait(timeout=30.0) == 0  # its two tasks are done
        finally:
            second.close()

    def test_exactly_one_queue_source_required(self, queue, tmp_path, capsys):
        # The worker finds its queue one way: --connect-http.  Neither a
        # missing URL nor a queue directory is a source.
        with pytest.raises(SystemExit) as excinfo:
            worker_main([])
        assert excinfo.value.code == 2
        assert "--connect-http" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--connect-http", queue.url, str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(ValueError, match="exactly one"):
            run_worker()


class TestDistributedBackendSocketTransport:
    """:class:`~repro.campaign.DistributedBackend` on its in-process
    service: the options it accepts, empty campaigns, a spawned fleet,
    remote failures and a fleet that dies."""

    def test_validation(self):
        # HTTP is the one transport: the options that picked another are
        # gone, and naming one is an error rather than a silent default.
        with pytest.raises(TypeError, match="transport"):
            DistributedBackend(transport="socket")
        with pytest.raises(TypeError, match="queue_dir"):
            DistributedBackend(queue_dir="shared")
        # The fleet rules are the service's own, checked before it binds.
        with pytest.raises(ValueError, match="fixed port"):
            CampaignService(max_workers=2, port=_free_port())
        with pytest.raises(ValueError, match="max_workers must be >= workers"):
            CampaignService(workers=3, max_workers=2)

    def test_empty_items(self):
        # An empty campaign starts no service: no fleet is spawned, nothing
        # is recorded, and a fixed port does not linger for external workers.
        for backend in (
            DistributedBackend(workers=0, max_workers=2),
            DistributedBackend(workers=0, port=_free_port()),
        ):
            start = time.monotonic()
            assert list(backend.map(_double, [])) == []
            assert time.monotonic() - start < 2.0  # the fixed-port linger
            assert backend.scale_events == [] and backend.queue_stats == {}

    def test_spawned_workers_complete_over_tcp(self, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        backend = DistributedBackend(
            workers=2, lease_timeout=60.0, poll_interval=0.02,
        )
        completions = []
        results = list(backend.map(
            _double, [10, 20, 30], on_complete=lambda i, r: completions.append(i)
        ))
        assert results == [20, 40, 60]
        assert sorted(completions) == [0, 1, 2]
        assert backend.queue_stats["completions"] == 3
        assert backend.queue_stats["auth_denials"] == 0

    def test_remote_failure_raises_with_traceback(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0)
        with pytest.raises(RuntimeError) as excinfo:
            list(backend.map(_boom, [1]))
        message = str(excinfo.value)
        assert "distributed worker failed on item 0" in message
        # The worker's own traceback travels with the failure.
        assert "Traceback" in message and "RuntimeError: boom on 1" in message

    def test_all_workers_dead_fails_loudly(self):
        backend = DistributedBackend(workers=2, lease_timeout=60.0,
                                     poll_interval=0.05)
        with pytest.raises(RuntimeError, match="all 2 spawned workers exited"):
            list(backend.map(_exit_hard, [1, 2, 3]))


class TestExternalSocketFleet:
    """A worker process attached by hand to a coordinator's fixed port."""

    def test_external_worker_drains_and_exits_on_stop(self, worker_processes):
        # The documented bring-your-own-fleet flow: workers=0 on a fixed
        # port, a worker process attached by hand — started *before* the
        # server exists, so early connection failures must degrade, not
        # crash.  After the campaign the coordinator lingers long enough
        # for the idle worker to observe the stop sentinel and exit
        # promptly — not via the (minutes-long) orphan timeout.
        port = _free_port()
        worker = _worker_cli(f"http://127.0.0.1:{port}", "--orphan-timeout", "60")
        worker_processes.append(worker)
        backend = DistributedBackend(
            workers=0, port=port, lease_timeout=60.0, poll_interval=0.02,
        )
        assert list(backend.map(_double, [1, 2, 3])) == [2, 4, 6]
        assert worker.wait(timeout=10.0) == 0, "worker must exit on the stop sentinel"
        assert backend.queue_stats["completions"] == 3


class TestAutoscaling:
    def test_scales_up_from_zero_on_backlog(self):
        backend = DistributedBackend(
            workers=0, max_workers=2, lease_timeout=60.0, poll_interval=0.02,
        )
        assert list(backend.map(_double, [1, 2, 3])) == [2, 4, 6]
        ups = [e for e in backend.scale_events if e["event"] == "scale-up"]
        assert ups, "backlog must have triggered a scale-up"
        assert ups[0]["workers"] == 2  # ceiling respected (backlog was 3)
        assert ups[0]["backlog"] == 3
        assert set(ups[0]) == {"event", "workers", "backlog", "elapsed"}

    def test_scales_up_from_zero_over_tcp(self):
        # A standalone daemon scales up from zero for a tenant whose tasks
        # arrive over its port, not from an in-process run.
        with CampaignService(workers=0, max_workers=2, lease_timeout=60.0,
                             poll_interval=0.02) as daemon:
            backend = ServiceBackend(url=daemon.url, poll_interval=0.02)
            assert list(backend.map(_double, [4, 5])) == [8, 10]
            events = list(daemon.scale_events)
        assert any(e["event"] == "scale-up" for e in events), (
            "the tenant's backlog must have triggered a scale-up")
        assert all(e["workers"] <= 2 for e in events)  # ceiling respected

    def test_idle_workers_retire_once_backlog_drains(self):
        # Three workers spawn for four tasks; the long tail keeps exactly
        # one busy, so the surplus receives retire credits, exits, and the
        # shrink is recorded as a scale-down event.
        backend = DistributedBackend(
            workers=0, max_workers=3, lease_timeout=60.0, poll_interval=0.02,
        )
        results = list(backend.map(_sleepy, [0.0, 0.0, 0.0, 2.5]))
        assert results == [0.0, 0.0, 0.0, 2.5]
        events = [e["event"] for e in backend.scale_events]
        assert "scale-up" in events
        assert "scale-down" in events, backend.scale_events

    def test_events_reset_between_campaigns(self):
        backend = DistributedBackend(
            workers=0, max_workers=2, lease_timeout=60.0, poll_interval=0.02,
        )
        list(backend.map(_double, [1]))
        first = list(backend.scale_events)
        assert first, "first campaign records its events"
        list(backend.map(_double, [2]))
        assert backend.scale_events, "second campaign records its own events"
        # None of the first campaign's event records is carried over.
        assert not any(
            event is old for event in backend.scale_events for old in first
        )

    def test_crash_looping_fleet_is_not_respawned_forever(self):
        backend = DistributedBackend(
            workers=0, max_workers=1, lease_timeout=0.4, poll_interval=0.02,
        )
        with pytest.raises(RuntimeError, match="without progress"):
            list(backend.map(_exit_hard, [1]))
