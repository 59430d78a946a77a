"""The versioned /v1/ HTTP surface and its legacy-route deprecation aliases."""

from __future__ import annotations

import json
from http.client import HTTPConnection

import pytest

from repro.serving import engine as engine_module
from repro.serving.engine import MAX_IC_SIMULATIONS
from repro.serving.server import _LEGACY_ROUTES, _SUNSET


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
        # v1 responses carry no deprecation headers.
        assert "Deprecation" not in headers
        assert "Sunset" not in headers

    def test_result_matches_legacy_payload(self, serve, engine):
        server = serve(engine=engine)
        _, v1, _ = request(
            server, "POST", "/v1/query/link", QUERIES["/v1/query/link"]
        )
        _, legacy, _ = request(
            server, "POST", "/predict/link", QUERIES["/v1/query/link"]
        )
        assert v1["result"]["scores"] == legacy["scores"]

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

    def test_unknown_route_is_404(self, serve, engine):
        server = serve(engine=engine)
        status, _payload, _ = request(server, "POST", "/v1/query/nope", {})
        assert status == 404
        status, _payload, _ = request(server, "POST", "/v2/query/link", {})
        assert status == 404


class TestLegacyAliases:
    @pytest.mark.parametrize(
        ("legacy", "successor"),
        sorted(
            (alias, target)
            for alias, target in _LEGACY_ROUTES.items()
            if target in QUERIES
        ),
    )
    def test_deprecation_headers(self, serve, engine, legacy, successor):
        server = serve(engine=engine)
        status, payload, headers = request(
            server, "POST", legacy, QUERIES[successor]
        )
        assert status == 200
        assert headers["Deprecation"] == "true"
        assert headers["Sunset"] == _SUNSET
        assert headers["Link"] == f'<{successor}>; rel="successor-version"'
        # Legacy payloads keep the flat pre-versioning shape.
        assert "result" not in payload
        assert "api_version" not in payload

    def test_legacy_flat_fields_preserved(self, serve, engine):
        server = serve(engine=engine)
        status, payload, _ = request(
            server, "POST", "/predict/retweet", QUERIES["/v1/query/retweet"]
        )
        assert status == 200
        assert payload["generation"] == server.generation
        assert payload["elapsed_ms"] >= 0
        assert len(payload["scores"]) == 2

    def test_legacy_requests_counted(self, serve, engine):
        server = serve(engine=engine)
        request(server, "POST", "/predict/link", QUERIES["/v1/query/link"])
        request(server, "POST", "/v1/query/link", QUERIES["/v1/query/link"])
        status, metrics, _ = request(server, "GET", "/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters.get("serving_legacy_requests_total") == 1


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
        assert "Deprecation" not in headers

    def test_legacy_reload_flat_with_headers(self, serve, model_path):
        server = serve(model_path=model_path)
        status, payload, headers = request(
            server, "POST", "/admin/reload", {"path": str(model_path)}
        )
        assert status == 200
        request_id = payload.pop("request_id")
        assert request_id == headers["X-Request-Id"]
        assert payload == {"status": "reloaded", "generation": 2}
        assert headers["Deprecation"] == "true"

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
