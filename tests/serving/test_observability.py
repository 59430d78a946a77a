"""The serving observability plane: request ids, exposition, SLO, freshness.

End-to-end over a live :class:`ColdHTTPServer`: the ``X-Request-Id``
contract (adopt/mint, echo header, uniform envelope field on success and
error responses), content-negotiated Prometheus exposition validated by the
in-repo strict parser — including under concurrent chaos load — SLO
detail on readiness, publish freshness gauges, and the ``metrics_out``
snapshot stream that feeds ``cold monitor --serving``.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.serving.chaos import ServingFaultPlan, SlowRequest
from repro.telemetry import parse_prometheus_text, read_jsonl

RETWEET_BODY = {"source": 0, "candidates": [1], "words": [0]}


def request(server, method, path, body=None, headers=None, timeout=15.0):
    """One HTTP request against a booted server; (status, payload, headers)."""
    conn = HTTPConnection("127.0.0.1", server.server_address[1], timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        decoded = json.loads(raw) if raw else None
        return response.status, decoded, dict(response.getheaders())
    finally:
        conn.close()


class TestRequestIdContract:
    def test_minted_id_in_envelope_and_header(self, serve, engine):
        server = serve(engine=engine)
        status, payload, headers = request(
            server, "POST", "/v1/query/retweet", RETWEET_BODY
        )
        assert status == 200
        rid = payload["request_id"]
        assert rid
        assert headers["X-Request-Id"] == rid
        assert payload["api_version"] == "v1"

    def test_client_supplied_id_is_adopted(self, serve, engine):
        server = serve(engine=engine)
        status, payload, headers = request(
            server,
            "POST",
            "/v1/query/retweet",
            RETWEET_BODY,
            headers={"X-Request-Id": "client-rid-001"},
        )
        assert status == 200
        assert payload["request_id"] == "client-rid-001"
        assert headers["X-Request-Id"] == "client-rid-001"

    def test_unsafe_client_id_is_replaced(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            RETWEET_BODY,
            headers={"X-Request-Id": "bad id with spaces"},
        )
        assert status == 200
        assert payload["request_id"] != "bad id with spaces"

    def test_error_responses_carry_request_id(self, serve, engine):
        server = serve(engine=engine)
        status, payload, headers = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"candidates": [1], "words": [0]},
            headers={"X-Request-Id": "err-rid"},
        )
        assert status == 400
        assert payload["request_id"] == "err-rid"
        assert headers["X-Request-Id"] == "err-rid"

    def test_get_endpoints_echo_header(self, serve, engine):
        server = serve(engine=engine)
        for path in ("/healthz", "/readyz", "/metrics"):
            _, _, headers = request(
                server, "GET", path, headers={"X-Request-Id": f"get{path[1:4]}"}
            )
            assert headers["X-Request-Id"] == f"get{path[1:4]}"


class TestPrometheusExposition:
    def test_json_snapshot_is_the_default(self, serve, engine):
        server = serve(engine=engine)
        status, payload, headers = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert "counters" in payload
        assert "slo" in payload
        assert "freshness" in payload

    def _scrape(self, server, path="/metrics", accept="text/plain"):
        conn = HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=15
        )
        try:
            conn.request("GET", path, headers={"Accept": accept})
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            return response.status, body, dict(response.getheaders())
        finally:
            conn.close()

    def test_accept_negotiates_text_exposition(self, serve, engine):
        server = serve(engine=engine)
        request(server, "POST", "/v1/query/retweet", RETWEET_BODY)
        status, body, headers = self._scrape(server)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus_text(body)
        assert parsed.value("serving_requests_total", endpoint="retweet") >= 1
        assert parsed.types["serving_requests_total"] == "counter"
        assert parsed.types["serving_latency_seconds"] == "histogram"
        assert parsed.value("model_generation") == 1.0

    def test_query_parameter_forces_exposition(self, serve, engine):
        server = serve(engine=engine)
        status, body, headers = self._scrape(
            server, path="/metrics?format=prometheus", accept="application/json"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parse_prometheus_text(body)

    def test_exposition_under_concurrent_chaos_load(self, serve, engine):
        """Scrapes interleaved with chaotic traffic parse and stay monotonic."""
        chaos = ServingFaultPlan(
            slow_requests=[
                SlowRequest(endpoint="retweet", seconds=0.05, times=3)
            ],
        )
        server = serve(
            engine=engine, chaos=chaos, deadline_ms=20, max_inflight=4
        )
        stop = threading.Event()
        client_errors: list[Exception] = []

        def hammer() -> None:
            while not stop.is_set():
                try:
                    request(server, "POST", "/v1/query/retweet", RETWEET_BODY)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    client_errors.append(exc)
                    return

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            previous = 0.0
            for _ in range(10):
                status, body, _ = self._scrape(server)
                assert status == 200
                parsed = parse_prometheus_text(body)  # raises on torn output
                total = sum(
                    s.value for s in parsed.series("serving_requests_total")
                )
                assert total >= previous, "counters must be monotonic"
                previous = total
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10)
        assert not client_errors
        assert previous > 0


class TestSLOSurface:
    def test_readyz_includes_slo_summary(self, serve, engine):
        server = serve(engine=engine)
        request(server, "POST", "/v1/query/retweet", RETWEET_BODY)
        status, ready, _ = request(server, "GET", "/readyz")
        assert status == 200
        slo = ready["slo"]
        assert slo["availability"] == 1.0
        assert slo["burn_rate"] == 0.0

    def test_metrics_snapshot_tracks_slo_outcomes(self, serve, engine):
        server = serve(engine=engine, slo_availability_target=0.9)
        request(server, "POST", "/v1/query/retweet", RETWEET_BODY)
        # A malformed-but-parseable query is a client error: not an SLO hit.
        request(
            server,
            "POST",
            "/v1/query/retweet",
            {"candidates": [1], "words": [0]},
        )
        _, payload, _ = request(server, "GET", "/metrics")
        slo = payload["slo"]
        assert slo["total_requests"] == 1
        assert slo["total_errors"] == 0
        assert slo["availability_target"] == 0.9
        _, body, _ = TestPrometheusExposition._scrape(self, server)
        parsed = parse_prometheus_text(body)
        assert parsed.value("slo_availability", window="fast") == 1.0
        assert parsed.value("slo_burn_rate", window="slow") == 0.0


class TestFreshness:
    def test_record_publish_freshness_sets_gauges(self, serve, engine):
        server = serve(engine=engine)
        now = time.time()
        server.record_publish_freshness(
            generation=7,
            published_at=now - 2.0,
            event_high_watermark=now - 10.0,
            updates=42,
        )
        _, payload, _ = request(server, "GET", "/metrics")
        gauges = payload["gauges"]
        assert gauges["model_trainer_generation"] == 7
        assert gauges["model_updates_applied"] == 42
        assert gauges["event_to_servable_seconds"] == pytest.approx(
            10.0, abs=1.0
        )
        assert gauges["model_staleness_seconds"] == pytest.approx(2.0, abs=1.0)
        assert payload["freshness"]["trainer_generation"] == 7

    def test_partial_freshness_is_tolerated(self, serve, engine):
        server = serve(engine=engine)
        server.record_publish_freshness(generation=2)
        _, payload, _ = request(server, "GET", "/metrics")
        assert payload["gauges"]["model_trainer_generation"] == 2
        assert "event_to_servable_seconds" not in payload["gauges"]


class TestMetricsSnapshotStream:
    def test_snapshotter_writes_and_closes_stream(self, serve, engine, tmp_path):
        out = tmp_path / "serving.jsonl"
        server = serve(
            engine=engine, metrics_out=out, metrics_interval_seconds=0.05
        )
        request(server, "POST", "/v1/query/retweet", RETWEET_BODY)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(
                r.get("kind") == "serving" for r in read_jsonl(out)
            ):
                break
            time.sleep(0.02)
        server.begin_drain()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            records = read_jsonl(out)
            if any(r.get("kind") == "serving_end" for r in records):
                break
            time.sleep(0.05)
        kinds = [r.get("kind") for r in records]
        assert "serving" in kinds
        assert kinds[-1] == "serving_end"
        snapshot = next(r for r in records if r.get("kind") == "serving")
        assert snapshot["breaker"] == "closed"
        assert snapshot["generation"] == 1
        assert "counters" in snapshot
        assert "slo" in snapshot
        assert json.dumps(snapshot)  # JSON-clean end to end
