"""The versioned /v1/ HTTP surface, the server's only query dialect."""

from __future__ import annotations

import json
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.serving import ModelServer
from repro.serving import engine as engine_module
from repro.serving.engine import MAX_IC_SIMULATIONS


def request(server, method, path, body=None, headers=None, timeout=15.0):
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


QUERIES = {
    "/v1/query/retweet": {"source": 0, "candidates": [1, 2], "words": [0]},
    "/v1/query/link": {"source": 0, "target": 1},
    "/v1/query/timestamp": {"author": 0, "words": [0, 1]},
    "/v1/query/influential": {"topic": 0, "num_simulations": 5},
}


class TestV1Envelope:
    @pytest.mark.parametrize("path", sorted(QUERIES))
    def test_query_families_wrapped(self, serve, engine, path):
        server = serve(engine=engine)
        status, payload, headers = request(server, "POST", path, QUERIES[path])
        assert status == 200
        assert payload["api_version"] == "v1"
        assert payload["model_generation"] == server.generation
        assert payload["elapsed_ms"] >= 0
        assert "result" in payload
        assert headers["X-Request-Id"] == payload["request_id"]

    def test_result_matches_legacy_payload(self, serve, engine):
        """The envelope's scores are the engine's, rounded to 9 places."""
        server = serve(engine=engine)
        _, v1, _ = request(
            server, "POST", "/v1/query/link", QUERIES["/v1/query/link"]
        )
        expected = engine.link(np.array([0]), np.array([1]))
        assert v1["result"]["scores"] == [round(float(s), 9) for s in expected]

    def test_influential_hits_answer_as_a_fresh_run(
        self, serve, estimates, influential_answer
    ):
        """A repeated influential query answers exactly what a fresh run
        does, ``cached`` aside."""
        server = serve(engine=ModelServer(estimates, ic_simulations=20, seed=3))
        body = {"topic": 1, "num_simulations": 5, "size": 3, "top_users": 4}
        results = [
            request(server, "POST", "/v1/query/influential", body)[1]["result"]
            for _ in range(3)
        ]
        fresh = influential_answer(
            estimates, 1, 5, 3, size=3, top_users=4, cached=False
        )
        assert results == [fresh] + 2 * [{**fresh, "cached": True}]

    def test_errors_are_enveloped_too(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(
            server, "POST", "/v1/query/retweet", {"source": 0}
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert payload["api_version"] == "v1"

    def test_influential_simulation_cap_is_bad_request(
        self, serve, engine, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("no simulation may run above the cap")

        monkeypatch.setattr(engine_module, "community_influence", forbidden)
        server = serve(engine=engine)
        body = {"topic": 0, "num_simulations": MAX_IC_SIMULATIONS + 1}
        status, payload, _ = request(server, "POST", "/v1/query/influential", body)
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "num_simulations" in payload["detail"]

    @pytest.mark.parametrize(
        ("field", "value"), [("size", 0), ("top_users", -2)]
    )
    def test_influential_bad_sizes_are_bad_request(
        self, serve, engine, field, value
    ):
        server = serve(engine=engine)
        misses = engine.describe()["influence_cache"]["misses"]
        body = {"topic": 0, "num_simulations": 5, field: value}
        status, payload, _ = request(server, "POST", "/v1/query/influential", body)
        assert status == 400
        assert payload["error"] == "bad_request"
        assert field in payload["detail"]
        assert engine.describe()["influence_cache"]["misses"] == misses

    def test_unknown_route_is_404(self, serve, engine):
        server = serve(engine=engine)
        status, _payload, _ = request(server, "POST", "/v1/query/nope", {})
        assert status == 404
        status, _payload, _ = request(server, "POST", "/v2/query/link", {})
        assert status == 404


class TestRetiredRoutes:
    @pytest.mark.parametrize(
        "path",
        [
            "/predict/retweet",
            "/predict/link",
            "/predict/timestamp",
            "/query/influential",
            "/admin/reload",
        ],
    )
    def test_pre_v1_paths_are_not_found(self, serve, engine, path):
        server = serve(engine=engine)
        status, payload, _ = request(server, "POST", path, {})
        assert status == 404
        assert payload["error"] == "not_found"
        assert server.generation == 1

    def test_metrics_carry_no_legacy_counter(self, serve, engine):
        server = serve(engine=engine)
        request(server, "POST", "/predict/link", QUERIES["/v1/query/link"])
        status, metrics, _ = request(server, "GET", "/metrics")
        assert status == 200
        assert not any("legacy" in name for name in metrics["counters"])


class TestVersionedReload:
    def test_v1_reload_envelope(self, serve, model_path):
        server = serve(model_path=model_path)
        status, payload, headers = request(
            server, "POST", "/v1/admin/reload", {"path": str(model_path)}
        )
        assert status == 200
        assert payload["result"]["status"] == "reloaded"
        assert payload["model_generation"] == 2
        assert payload["api_version"] == "v1"
        assert headers["X-Request-Id"] == payload["request_id"]

    def test_null_path_reloads_the_serving_model(self, serve, model_path):
        server = serve(model_path=model_path)
        status, payload, _ = request(
            server, "POST", "/v1/admin/reload", {"path": None}
        )
        assert status == 200
        assert payload["model_generation"] == 2

    @pytest.mark.parametrize(
        "path", [123, ["x"], {"a": 1}, "", False, ".", "/"]
    )
    def test_malformed_path_is_bad_request(self, serve, model_path, path):
        server = serve(model_path=model_path)
        status, payload, _ = request(
            server, "POST", "/v1/admin/reload", {"path": path}
        )
        assert status == 400
        assert payload["error"] == "bad_request"
        assert payload["api_version"] == "v1"
        assert server.generation == 1
        counters = request(server, "GET", "/metrics")[1]["counters"]
        assert counters.get("serving_reload_attempts_total", 0) == 0
        assert counters.get("serving_internal_errors_total", 0) == 0

    def test_v1_reload_failure_enveloped(self, serve, model_path, tmp_path):
        server = serve(model_path=model_path)
        status, payload, _ = request(
            server,
            "POST",
            "/v1/admin/reload",
            {"path": str(tmp_path / "missing")},
        )
        assert status == 409
        assert payload["error"] == "reload_failed"
        assert payload["api_version"] == "v1"
        assert server.generation == 1
