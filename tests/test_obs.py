"""Tests for the observability plane (``repro.obs``) and its wiring.

Layered like the package itself:

* metrics primitives — counters/gauges/histograms with labels, the
  Prometheus text rendering (including the explicit-zero line for series
  that never fired), plain-data snapshots, and the process-wide kill
  switch;
* timing spans and per-run :class:`~repro.obs.SpanCollector` aggregation;
* the JSONL :class:`~repro.obs.EventLog` (envelope, thread safety,
  never-raises writes) and the process-wide emit sink;
* queue instrumentation — ``status()`` hygiene (no lease tokens),
  operation and depth metrics, auth-denial counting;
* the coordinator's live ``GET /metrics`` + ``GET /status`` endpoints,
  including the acceptance-criterion scrape of a campaign *while it is
  running*;
* telemetry flowing into :class:`~repro.campaign.CampaignResult` and out
  through the JSON export and the ``--metrics-jsonl`` CLI flag.
"""

import io
import json
import logging
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    DistributedBackend,
    HttpWorkQueue,
    HttpWorkQueueClient,
    ScenarioGrid,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.worker import _build_parser as worker_parser
from repro.obs import (
    EVENT_SCHEMA,
    EventLog,
    MetricsRegistry,
    SpanCollector,
    configure_json_logging,
    emit,
    set_enabled,
    set_event_log,
    span,
)
from repro.sim import FlightScenario

TINY = FlightScenario(name="obs-tiny", duration=0.4, record_hz=20.0)


@pytest.fixture(autouse=True)
def _clean_global_obs_state():
    """No test may leak a disabled switch or an installed sink."""
    yield
    set_enabled(True)
    set_event_log(None)


# -- metrics primitives --


class TestCounter:
    def test_counts_per_label_set(self):
        counter = MetricsRegistry().counter("jobs_total", help="Jobs.")
        counter.inc()
        counter.inc(2, status="ok")
        counter.inc(status="ok")
        assert counter.value() == 1
        assert counter.value(status="ok") == 3
        assert counter.value(status="missing") == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("jobs_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine_total").inc(**{"bad-label": 1})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.gauge("depth")
        with pytest.raises(TypeError, match="already registered as gauge"):
            registry.counter("depth")

    def test_reregistration_returns_the_same_instance(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth") is registry.gauge("depth")


class TestHistogram:
    def test_summary_aggregates(self):
        histogram = MetricsRegistry().histogram("lat", buckets=[0.1, 1.0])
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total_s"] == pytest.approx(2.55)
        assert summary["min_s"] == pytest.approx(0.05)
        assert summary["max_s"] == pytest.approx(2.0)
        assert MetricsRegistry().histogram("lat").summary() is None

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            MetricsRegistry().histogram("lat", buckets=[])


class TestKillSwitch:
    def test_disabled_mutations_are_no_ops(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        histogram = registry.histogram("h")
        set_enabled(False)
        counter.inc()
        registry.gauge("g").set(9)
        histogram.observe(1.0)
        with span("dead.phase"):
            pass
        set_enabled(True)
        assert counter.value() == 0
        assert registry.gauge("g").value() == 0
        assert histogram.summary() is None
        assert obs.default_registry().histogram(
            "repro_span_seconds"
        ).summary(phase="dead.phase") is None


class TestPrometheusRendering:
    def test_headers_series_and_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("req_total", help="Requests.").inc(3, path='a"b\\c')
        text = registry.render_prometheus()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{path="a\\"b\\\\c"} 3' in text

    def test_empty_counter_and_gauge_render_explicit_zero(self):
        # "auth denials: 0" must be scrapeable as a statement — a missing
        # series would be indistinguishable from a missing metric.
        registry = MetricsRegistry()
        registry.counter("denials_total")
        registry.gauge("fleet")
        text = registry.render_prometheus()
        assert "denials_total 0" in text
        assert "fleet 0" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=[0.1, 1.0])
        for value in (0.05, 0.06, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'lat_bucket{le="0.1"} 2' in text
        assert 'lat_bucket{le="1"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        assert "lat_sum" in text

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc(2)
        registry.counter("labelled_total").inc(status="ok")
        registry.histogram("lat").observe(0.2)
        snapshot = registry.snapshot()
        assert snapshot["plain_total"] == 2
        assert snapshot["labelled_total"] == {'{status="ok"}': 1}
        assert snapshot["lat"][""]["count"] == 1
        json.dumps(snapshot)  # must be JSON-ready as-is


# -- spans --


class TestSpans:
    def test_span_lands_in_default_registry_histogram(self):
        with span("test.unique-phase-a"):
            time.sleep(0.01)
        summary = obs.default_registry().histogram("repro_span_seconds").summary(
            phase="test.unique-phase-a"
        )
        assert summary is not None
        assert summary["count"] >= 1
        assert summary["max_s"] >= 0.01

    def test_collector_sees_only_spans_while_active(self):
        with span("test.before-collector"):
            pass
        with SpanCollector() as collector:
            with span("test.inside"):
                pass
            with span("test.inside"):
                pass
        with span("test.after-collector"):
            pass
        summaries = collector.summaries()
        assert set(summaries) == {"test.inside"}
        assert summaries["test.inside"]["count"] == 2
        for key in ("count", "total_s", "mean_s", "min_s", "max_s"):
            assert key in summaries["test.inside"]

    def test_collectors_nest(self):
        with SpanCollector() as outer:
            with span("test.outer-only"):
                pass
            with SpanCollector() as inner:
                with span("test.both"):
                    pass
        assert set(outer.summaries()) == {"test.outer-only", "test.both"}
        assert set(inner.summaries()) == {"test.both"}

    def test_span_records_even_when_the_body_raises(self):
        with SpanCollector() as collector:
            with pytest.raises(RuntimeError):
                with span("test.failing"):
                    raise RuntimeError("phase failed")
        assert collector.summaries()["test.failing"]["count"] == 1


# -- event log --


class TestEventLog:
    def test_envelope_and_file_append(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, run_id="r1") as log:
            log.emit("variant-complete", "campaign.runner", variant="v0", ok=True)
        record = json.loads(path.read_text())
        assert record["schema"] == EVENT_SCHEMA
        assert record["run"] == "r1"
        assert record["component"] == "campaign.runner"
        assert record["event"] == "variant-complete"
        assert record["variant"] == "v0" and record["ok"] is True
        assert isinstance(record["ts"], float)

    def test_default_run_id_is_generated(self):
        assert len(EventLog(io.StringIO()).run_id) == 12

    def test_non_serialisable_values_are_stringified(self):
        stream = io.StringIO()
        EventLog(stream, run_id="r").emit("e", "c", obj=object(), nan=math.inf)
        record = json.loads(stream.getvalue())
        assert record["obj"].startswith("<object object")

    def test_envelope_keys_cannot_be_overridden(self):
        stream = io.StringIO()
        EventLog(stream, run_id="real").emit("e", "c", run="forged", schema=99)
        record = json.loads(stream.getvalue())
        assert record["run"] == "real" and record["schema"] == EVENT_SCHEMA

    def test_write_to_closed_stream_does_not_raise(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", run_id="r")
        log.close()
        log.emit("after-close", "c")  # must not raise

    def test_concurrent_emits_stay_line_atomic(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, run_id="r") as log:
            def hammer(worker: int) -> None:
                for i in range(50):
                    log.emit("tick", "test", worker=worker, i=i)
            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        lines = path.read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            assert json.loads(line)["event"] == "tick"

    def test_process_wide_sink_install_and_restore(self):
        stream = io.StringIO()
        emit("dropped", "test")  # no sink installed: a silent no-op
        log = EventLog(stream, run_id="r")
        previous = set_event_log(log)
        assert previous is None
        emit("captured", "test")
        assert set_event_log(previous) is log
        emit("dropped-again", "test")
        events = [json.loads(line)["event"]
                  for line in stream.getvalue().splitlines()]
        assert events == ["captured"]


class TestJsonLogging:
    def test_records_render_as_json_lines(self):
        stream = io.StringIO()
        handler = configure_json_logging(stream=stream, logger_name="repro")
        try:
            logging.getLogger("repro.campaign.runner").info(
                "campaign %s done", "c1"
            )
        finally:
            logging.getLogger("repro").removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.campaign.runner"
        assert record["message"] == "campaign c1 done"

    def test_package_logger_has_a_null_handler(self):
        handlers = logging.getLogger("repro.campaign").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


# -- queue and transport instrumentation --


def _double(item):
    return item * 2


class TestNetworkQueueObservability:
    def test_status_shape_and_token_hygiene(self):
        token = "status-must-not-see-me"
        with HttpWorkQueue(auth_token=token) as server:
            server.add_run("robs")
            server.enqueue_in("robs", 0, "a")
            server.enqueue_in("robs", 1, "b")
            client = HttpWorkQueueClient(server.url, auth_token=token,
                                         timeout=5.0)
            client.claim("w1")
            status = server.status()
        assert status["runs"]["robs"]["claimed"] == 1
        assert status["auth"] is True
        assert status["pending"] == 1
        assert status["done"] == 0
        assert status["stop"] is False
        assert status["uptime_s"] >= 0
        [claim] = status["claimed"]
        assert claim["run"] == "robs"
        assert claim["index"] == 0 and claim["worker"] == "w1"
        assert claim["lease_age_s"] >= 0
        assert token not in json.dumps(status)

    def test_snapshot_counts_operations_and_depths(self):
        with HttpWorkQueue() as server:
            server.add_run("robs")
            server.enqueue_in("robs", 0, "a")
            server.enqueue_in("robs", 1, "b")
            client = HttpWorkQueueClient(server.url, timeout=5.0)
            index, _payload, lease = client.claim("w1")
            client.complete(index, ("ok", 1), lease)
            stats = server.stats_snapshot()
        assert stats["enqueued"] == 2
        assert stats["claims"] == 1
        assert stats["completions"] == 1
        assert stats["lease_reissues"] == 0
        assert stats["pending"] == 1
        assert stats["claimed"] == 0

    def test_lease_reissue_is_counted(self):
        with HttpWorkQueue() as server:
            server.add_run("robs")
            server.enqueue_in("robs", 0, "a")
            assert server._claim_blob("gone") is not None
            time.sleep(0.05)
            assert server.reclaim_expired(lease_timeout=0.01) == [0]
            assert server.stats_snapshot()["lease_reissues"] == 1

    def test_metrics_text_counts_operations_and_depths(self):
        with HttpWorkQueue() as server:
            server.add_run("robs")
            server.enqueue_in("robs", 0, "a")
            text = server.metrics_text()
        assert "# TYPE repro_queue_enqueued_total counter" in text
        assert "repro_queue_enqueued_total 1" in text
        assert "repro_queue_pending 1" in text
        assert "repro_queue_claimed 0" in text
        assert "repro_queue_auth_denials_total 0" in text

    def test_auth_denials_are_counted(self):
        with HttpWorkQueue(auth_token="sekrit-tok") as server:
            request = urllib.request.Request(
                f"{server.url}/claim",
                data=json.dumps({"worker": "w1"}).encode(), method="POST",
            )
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(request, timeout=5.0)
            assert server.stats_snapshot()["auth_denials"] == 1
            assert "repro_queue_auth_denials_total 1" in server.metrics_text()


def _http_get(url: str, timeout: float = 5.0) -> tuple[str, str]:
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return reply.read().decode(), reply.headers.get("Content-Type", "")


class TestCoordinatorEndpoints:
    def test_get_metrics_serves_prometheus_text(self):
        with HttpWorkQueue() as server:
            server.add_run("robs")
            server.enqueue_in("robs", 0, "a")
            body, content_type = _http_get(f"{server.url}/metrics")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "repro_queue_pending 1" in body

    def test_get_status_serves_json(self):
        with HttpWorkQueue() as server:
            server.add_run("robs")
            body, content_type = _http_get(f"{server.url}/status")
        assert content_type.startswith("application/json")
        assert "robs" in json.loads(body)["runs"]

    def test_observability_endpoints_skip_auth(self):
        # Read-only surfaces stay scrapeable (like /ping) so a dashboard
        # or CI probe needs no secret — and the probe itself must not
        # pollute the denial counter it is checking.
        with HttpWorkQueue(auth_token="sekrit-tok") as server:
            metrics, _ = _http_get(f"{server.url}/metrics")
            status, _ = _http_get(f"{server.url}/status")
        assert "repro_queue_auth_denials_total 0" in metrics
        assert json.loads(status)["auth"] is True
        assert "sekrit-tok" not in metrics and "sekrit-tok" not in status


class TestLiveCampaignScrape:
    """Acceptance criterion: scrape /metrics + /status mid-campaign."""

    def test_endpoints_answer_while_the_campaign_runs(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        grid = ScenarioGrid(TINY, axes={"seed": [1, 2, 3]})
        backend = DistributedBackend(
            workers=1, port=port,
            lease_timeout=120.0, poll_interval=0.02,
            auth_token="live-scrape-secret",
        )
        runner = CampaignRunner(backend=backend)
        results: list = []
        thread = threading.Thread(
            target=lambda: results.append(runner.run(grid)), daemon=True
        )
        thread.start()
        base = f"http://127.0.0.1:{port}"
        scraped: dict[str, str] = {}
        deadline = time.monotonic() + 30.0
        # The coordinator only listens while the campaign drains; any
        # successful scrape is by construction mid-flight.
        while time.monotonic() < deadline and thread.is_alive():
            try:
                scraped["metrics"], _ = _http_get(f"{base}/metrics", timeout=1.0)
                scraped["status"], _ = _http_get(f"{base}/status", timeout=1.0)
                break
            except (urllib.error.URLError, OSError):
                time.sleep(0.02)
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "campaign did not finish"
        assert scraped, "coordinator endpoints never answered mid-campaign"

        assert "repro_queue_enqueued_total 3" in scraped["metrics"]
        assert "repro_queue_auth_denials_total 0" in scraped["metrics"]
        status = json.loads(scraped["status"])
        assert status["auth"] is True
        assert status["pending"] + len(status["claimed"]) + status["done"] <= 3
        assert "live-scrape-secret" not in scraped["metrics"]
        assert "live-scrape-secret" not in scraped["status"]

        [result] = results
        assert result.failures() == ()
        queue_stats = result.telemetry["queue"]
        assert queue_stats["enqueued"] == 3
        assert queue_stats["completions"] == 3
        assert queue_stats["auth_denials"] == 0
        assert queue_stats["pending_peak"] >= 1


# -- telemetry through results, exports and the CLI --


class TestResultTelemetry:
    def test_serial_run_carries_spans_and_backend(self, tmp_path):
        result = CampaignRunner(mode="serial").run(
            ScenarioGrid(TINY, axes={"seed": [1, 2]})
        )
        telemetry = result.telemetry
        assert telemetry["schema"] == 1
        assert telemetry["backend"] == "serial"
        assert telemetry["store"] is None
        assert telemetry["queue"] is None
        assert telemetry["spans"]["campaign.variant"]["count"] == 2
        assert telemetry["spans"]["campaign.execute"]["count"] == 1

    def test_store_delta_counts_this_run_only(self, tmp_path):
        from repro.store import CampaignStore

        runner = CampaignRunner(mode="serial",
                                store=CampaignStore(tmp_path / "cells"))
        grid = ScenarioGrid(TINY, axes={"seed": [1, 2]})
        first = runner.run(grid)
        assert first.telemetry["store"]["writes"] == 2
        assert first.telemetry["store"]["hits"] == 0
        second = runner.run(grid)
        assert second.telemetry["store"]["hits"] == 2
        assert second.telemetry["store"]["writes"] == 0

    def test_telemetry_can_be_disabled(self):
        result = CampaignRunner(mode="serial", telemetry=False).run(
            ScenarioGrid(TINY, axes={"seed": [1]})
        )
        assert result.telemetry is None

    def test_telemetry_flows_through_json_export(self, tmp_path):
        result = CampaignRunner(mode="serial").run(
            ScenarioGrid(TINY, axes={"seed": [1]})
        )
        path = tmp_path / "result.json"
        result.to_json(path)
        data = json.loads(path.read_text())
        assert data["telemetry"]["schema"] == 1
        assert data["telemetry"]["backend"] == "serial"
        assert "campaign.variant" in data["telemetry"]["spans"]

    def test_telemetry_does_not_change_summaries(self):
        grid = ScenarioGrid(TINY, axes={"seed": [1, 2]})
        with_obs = CampaignRunner(mode="serial").run(grid)
        without = CampaignRunner(mode="serial", telemetry=False).run(grid)
        assert with_obs.summaries() == without.summaries()


class TestCliFlags:
    def _spec(self, tmp_path):
        spec = {"scenario": {"name": "cli-obs", "duration": 0.4,
                             "record_hz": 20.0},
                "axes": {"seed": [1]}, "runner": {"mode": "serial"}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_metrics_jsonl_writes_a_self_contained_record(
        self, tmp_path, capsys
    ):
        jsonl = tmp_path / "metrics.jsonl"
        code = campaign_main([
            str(self._spec(tmp_path)), "--metrics-jsonl", str(jsonl),
        ])
        assert code == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in jsonl.read_text().splitlines()]
        events = [record["event"] for record in records]
        assert "campaign-start" in events
        assert "variant-complete" in events
        assert "campaign-end" in events
        assert events[-1] == "metrics-snapshot"
        snapshot = records[-1]["metrics"]
        assert "repro_campaign_variants_total" in snapshot
        assert all(record["schema"] == EVENT_SCHEMA for record in records)

    def test_metrics_jsonl_sink_is_removed_after_the_run(self, tmp_path, capsys):
        jsonl = tmp_path / "metrics.jsonl"
        campaign_main([str(self._spec(tmp_path)),
                       "--metrics-jsonl", str(jsonl)])
        capsys.readouterr()
        assert obs.get_event_log() is None

    def test_log_json_renders_runner_logs_as_json(self, tmp_path, capsys):
        code = campaign_main([str(self._spec(tmp_path)), "--log-json"])
        try:
            assert code == 0
            err = capsys.readouterr().err
            starts = [json.loads(line) for line in err.splitlines()
                      if "campaign starting" in line]
            assert starts, f"no JSON campaign-starting log line in {err!r}"
            assert starts[0]["logger"] == "repro.campaign.runner"
        finally:
            for handler in list(logging.getLogger("repro").handlers):
                if not isinstance(handler, logging.NullHandler):
                    logging.getLogger("repro").removeHandler(handler)

    def test_worker_parser_accepts_observability_flags(self):
        args = worker_parser().parse_args([
            "--connect-http", "http://localhost:1",
            "--metrics-jsonl", "/tmp/x.jsonl", "--log-json",
        ])
        assert args.metrics_jsonl == "/tmp/x.jsonl"
        assert args.log_json is True
