"""HTTP front-end tests: endpoints, error mapping, shedding, breaker, reload."""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.core.estimates import EstimateError
from repro.serving import (
    FailRequest,
    ModelServer,
    ServerConfig,
    ServingError,
    ServingFaultPlan,
    SlowRequest,
)
from repro.serving.robustness import DegenerateScoreError


def request(server, method, path, body=None, headers=None, timeout=15.0):
    """One HTTP request against a booted server; returns (status, payload)."""
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


class TestQueryEndpoints:
    def test_retweet_scores(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1, 2, 3], "words": [0, 4]},
        )
        assert status == 200
        assert len(payload["result"]["scores"]) == 3
        assert all(0.0 <= s <= 1.0 for s in payload["result"]["scores"])
        assert payload["model_generation"] == 1
        assert payload["elapsed_ms"] >= 0

    def test_link_batch_and_broadcast(self, serve, engine, estimates):
        server = serve(engine=engine)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/link",
            {"sources": [0, 1], "targets": [2, 3]},
        )
        assert status == 200
        assert len(payload["result"]["scores"]) == 2
        status, scalar, _ = request(
            server, "POST", "/v1/query/link", {"source": 0, "targets": [2, 3]}
        )
        assert status == 200
        assert len(scalar["result"]["scores"]) == 2

    def test_timestamp_single_and_batch(self, serve, engine, estimates):
        server = serve(engine=engine)
        status, one, _ = request(
            server, "POST", "/v1/query/timestamp", {"author": 0, "words": [0, 1]}
        )
        assert status == 200
        assert len(one["result"]["slices"]) == 1
        assert 0 <= one["result"]["slices"][0] < estimates.num_time_slices
        np.testing.assert_allclose(
            sum(one["result"]["confidences"][0]), 1.0, rtol=1e-6
        )
        status, many, _ = request(
            server,
            "POST",
            "/v1/query/timestamp",
            {"authors": [0, 1], "words_per_post": [[0], [1, 2]]},
        )
        assert status == 200
        assert len(many["result"]["slices"]) == 2

    def test_influential(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/influential",
            {"topic": 0, "size": 2, "top_users": 3},
        )
        assert status == 200
        assert len(payload["result"]["communities"]) == 2
        assert len(payload["result"]["top_users"]) == 3

    def test_health_and_ready(self, serve, engine):
        server = serve(engine=engine)
        status, health, _ = request(server, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["generation"] == 1
        assert health["breaker"] == "closed"
        status, ready, _ = request(server, "GET", "/readyz")
        assert status == 200
        assert ready["status"] == "ready"

    def test_metrics_endpoint_counts_requests(self, serve, engine):
        server = serve(engine=engine)
        request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        status, metrics, _ = request(server, "GET", "/metrics")
        assert status == 200
        assert metrics["counters"]['serving_requests_total{endpoint="retweet"}'] >= 1
        assert 'serving_latency_seconds{endpoint="retweet"}' in metrics["histograms"]


class TestErrorMapping:
    def test_bad_request_payloads(self, serve, engine):
        server = serve(engine=engine)
        cases = [
            ("/v1/query/retweet", {"source": 0, "candidates": [1], "words": []}),
            ("/v1/query/retweet", {"candidates": [1], "words": [0]}),
            ("/v1/query/retweet", "not a dict"),
            ("/v1/query/link", {"sources": [0], "targets": [10**6]}),
        ]
        for path, body in cases:
            status, payload, _ = request(server, "POST", path, body)
            assert status == 400, (path, body, payload)
            assert payload["error"] == "bad_request"
            assert "detail" in payload

    def test_unknown_path_404(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(server, "POST", "/v1/query/nope", {})
        assert status == 404
        assert payload["error"] == "not_found"
        status, payload, _ = request(server, "GET", "/nope")
        assert status == 404

    def test_invalid_deadline_400(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0], "deadline_ms": -5},
        )
        assert status == 400

    def test_malformed_json_400(self, serve, engine):
        server = serve(engine=engine)
        conn = HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/query/retweet",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"] == "bad_request"
        finally:
            conn.close()

    def test_oversized_body_413(self, serve, engine):
        server = serve(engine=engine, max_body_bytes=128)
        big = {"source": 0, "candidates": list(range(500)), "words": [0]}
        status, payload, _ = request(server, "POST", "/v1/query/retweet", big)
        assert status == 413
        assert payload["error"] == "payload_too_large"
        # The oversized body was never buffered and the server keeps serving.
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        assert status == 200

    def test_no_second_response_after_partial_write(self):
        """A failure after headers went out must close the connection, not
        emit a second status line on the same keep-alive connection."""
        from types import SimpleNamespace

        from repro.serving.server import _Handler
        from repro.telemetry.metrics import MetricsRegistry

        sent = []

        class Stub:
            path = "/v1/query/retweet"
            close_connection = False
            _response_started = True
            server = SimpleNamespace(registry=MetricsRegistry())

            def _send_json(self, *args, **kwargs):
                sent.append(args)

        stub = Stub()
        _Handler._internal_error(stub)
        assert stub.close_connection is True
        assert sent == []


class TestDeadlines:
    def test_slow_handler_times_out_504(self, serve, engine):
        chaos = ServingFaultPlan(
            slow_requests=[SlowRequest(endpoint="retweet", seconds=30.0, times=1)]
        )
        server = serve(engine=engine, chaos=chaos, deadline_ms=100)
        start = time.monotonic()
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        elapsed = time.monotonic() - start
        assert status == 504
        assert payload["error"] == "deadline_exceeded"
        assert elapsed < 5.0, "504 must arrive at the deadline, not after the delay"
        status, metrics, _ = request(server, "GET", "/metrics")
        assert metrics["counters"]['serving_timeouts_total{endpoint="retweet"}'] == 1
        # The next request (past the fault window) succeeds.
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        assert status == 200

    def test_per_request_deadline_header(self, serve, engine):
        chaos = ServingFaultPlan(
            slow_requests=[SlowRequest(endpoint="link", seconds=30.0, times=1)]
        )
        server = serve(engine=engine, chaos=chaos, deadline_ms=60_000)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/link",
            {"sources": [0], "targets": [1]},
            headers={"X-Deadline-Ms": "100"},
        )
        assert status == 504


class TestLoadShedding:
    def test_overload_sheds_503_with_retry_after(self, serve, engine):
        chaos = ServingFaultPlan(
            slow_requests=[
                SlowRequest(endpoint="retweet", seconds=1.0, start=0, times=1)
            ]
        )
        server = serve(
            engine=engine,
            chaos=chaos,
            max_inflight=1,
            max_waiting=0,
            deadline_ms=10_000,
        )

        results = []

        def fire():
            results.append(
                request(
                    server,
                    "POST",
                    "/v1/query/retweet",
                    {"source": 0, "candidates": [1], "words": [0]},
                )
            )

        slow = threading.Thread(target=fire)
        slow.start()
        time.sleep(0.3)  # let the slow request occupy the only slot
        status, payload, headers = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 1, "candidates": [2], "words": [0]},
        )
        slow.join(timeout=10)
        assert status == 503
        assert payload["error"] == "shed"
        assert "Retry-After" in headers
        assert results[0][0] == 200  # the admitted request still completed
        _, metrics, _ = request(server, "GET", "/metrics")
        assert metrics["counters"]["serving_shed_total"] == 1


class TestCircuitBreaker:
    class _FlakyEngine(ModelServer):
        """Engine whose retweet path always reports degenerate scores."""

        def retweet(self, *args, **kwargs):
            raise DegenerateScoreError("retweet: scores contain NaN")

    def test_degenerate_scores_trip_breaker(self, serve, estimates):
        flaky = self._FlakyEngine(estimates, ic_simulations=10)
        server = serve(
            engine=flaky, breaker_threshold=2, breaker_cooldown_seconds=60.0
        )
        body = {"source": 0, "candidates": [1], "words": [0]}
        for _ in range(2):
            status, payload, _ = request(server, "POST", "/v1/query/retweet", body)
            assert status == 503
            assert payload["error"] == "degenerate"
        # Breaker is now open: requests fail fast without touching the engine.
        status, payload, _ = request(server, "POST", "/v1/query/retweet", body)
        assert status == 503
        assert payload["error"] == "circuit_open"
        # Readiness goes red; liveness stays green.
        status, ready, _ = request(server, "GET", "/readyz")
        assert status == 503
        assert ready["error"] == "circuit_open"
        status, _, _ = request(server, "GET", "/healthz")
        assert status == 200
        _, metrics, _ = request(server, "GET", "/metrics")
        assert metrics["counters"]["serving_degenerate_total"] == 2
        assert metrics["counters"]["serving_circuit_rejections_total"] >= 1

    def test_chaos_failure_maps_to_structured_500(self, serve, engine):
        chaos = ServingFaultPlan(
            failures=[FailRequest(endpoint="retweet", start=0, times=1)]
        )
        server = serve(engine=engine, chaos=chaos, breaker_threshold=10)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        assert status == 500
        assert payload["error"] == "internal"
        _, metrics, _ = request(server, "GET", "/metrics")
        assert metrics["counters"]["serving_internal_errors_total"] == 1

    class _TogglableEngine(ModelServer):
        """Engine whose retweet path is degenerate until told otherwise."""

        degenerate = True

        def retweet(self, *args, **kwargs):
            if self.degenerate:
                raise DegenerateScoreError("retweet: scores contain NaN")
            return super().retweet(*args, **kwargs)

    def test_aborted_probe_does_not_wedge_breaker(self, serve, estimates):
        engine = self._TogglableEngine(estimates, ic_simulations=10)
        server = serve(
            engine=engine, breaker_threshold=1, breaker_cooldown_seconds=0.1
        )
        body = {"source": 0, "candidates": [1], "words": [0]}
        status, payload, _ = request(server, "POST", "/v1/query/retweet", body)
        assert (status, payload["error"]) == (503, "degenerate")
        assert server.breaker.state == "open"
        time.sleep(0.15)
        assert server.breaker.state == "half-open"
        # The probe request dies on bad input (missing "source" -> 400)
        # without ever recording a verdict; the probe slot must be freed.
        status, payload, _ = request(
            server, "POST", "/v1/query/retweet", {"candidates": [1], "words": [0]}
        )
        assert (status, payload["error"]) == (400, "bad_request")
        # The model has recovered: the next request becomes the new probe,
        # scores cleanly, and closes the breaker (a leaked slot would pin
        # every request here to 503 circuit_open forever).
        engine.degenerate = False
        status, payload, _ = request(server, "POST", "/v1/query/retweet", body)
        assert status == 200, payload
        assert server.breaker.state == "closed"

    def test_readyz_flags_half_open_as_degraded(self, serve, engine):
        server = serve(
            engine=engine, breaker_threshold=1, breaker_cooldown_seconds=0.05
        )
        server.breaker.record_failure()
        status, ready, _ = request(server, "GET", "/readyz")
        assert status == 503
        time.sleep(0.1)
        status, ready, _ = request(server, "GET", "/readyz")
        assert status == 200
        assert ready["status"] == "degraded"
        assert ready["degraded"] is True
        assert ready["breaker"] == "half-open"


class TestReload:
    def test_reload_bumps_generation(self, serve, model_path):
        server = serve(model_path=model_path)
        status, payload, _ = request(server, "POST", "/v1/admin/reload", {})
        assert status == 200
        assert payload["result"]["status"] == "reloaded"
        assert payload["model_generation"] == 2
        # Queries keep working on the new generation.
        status, scored, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        assert status == 200
        assert scored["model_generation"] == 2

    def test_corrupt_candidate_rolls_back(self, serve, model_path, tmp_path):
        from repro.serving.chaos import corrupt_model_copy

        corrupt = corrupt_model_copy(model_path, tmp_path)
        server = serve(model_path=model_path)
        status, payload, _ = request(
            server, "POST", "/v1/admin/reload", {"path": str(corrupt)}
        )
        assert status == 409
        assert payload["error"] == "reload_failed"
        assert payload["generation"] == 1
        # Old model still serves; readiness still green.
        status, scored, _ = request(
            server,
            "POST",
            "/v1/query/retweet",
            {"source": 0, "candidates": [1], "words": [0]},
        )
        assert status == 200
        assert scored["model_generation"] == 1
        status, _, _ = request(server, "GET", "/readyz")
        assert status == 200
        _, metrics, _ = request(server, "GET", "/metrics")
        assert metrics["counters"]["serving_reload_failures_total"] == 1

    def test_missing_candidate_rolls_back(self, serve, model_path, tmp_path):
        server = serve(model_path=model_path)
        status, payload, _ = request(
            server, "POST", "/v1/admin/reload", {"path": str(tmp_path / "nope")}
        )
        assert status == 409
        assert payload["error"] == "reload_failed"

    def test_reload_resets_open_breaker(self, serve, model_path):
        server = serve(model_path=model_path, breaker_threshold=1)
        server.breaker.record_failure()
        assert server.breaker.state == "open"
        status, _, _ = request(server, "POST", "/v1/admin/reload", {})
        assert status == 200
        assert server.breaker.state == "closed"

    def test_inprocess_reload_without_path_requires_model_path(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(server, "POST", "/v1/admin/reload", {})
        assert status == 409


class TestDrain:
    def test_draining_rejects_new_requests(self, engine):
        config = ServerConfig(port=0)
        from repro.serving import ColdHTTPServer

        server = ColdHTTPServer(config, engine=engine)
        thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        thread.start()
        try:
            server.draining = True  # simulate the drain window before shutdown
            status, payload, _ = request(
                server,
                "POST",
                "/v1/query/retweet",
                {"source": 0, "candidates": [1], "words": [0]},
            )
            assert status == 503
            status, ready, _ = request(server, "GET", "/readyz")
            assert status == 503
            assert ready["error"] == "draining"
        finally:
            server.draining = False
            server.begin_drain()
            thread.join(timeout=10)
            assert not thread.is_alive()


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ServingError):
            ServerConfig(deadline_ms=0)

    def test_engine_or_path_required(self):
        from repro.serving import ColdHTTPServer

        with pytest.raises((ServingError, EstimateError)):
            ColdHTTPServer(ServerConfig(port=0))
