"""TelemetrySession lifecycle: off-by-default, files, sinks, worker glue."""

from __future__ import annotations

import io
import json
import logging
import math

from repro.telemetry import tracing
from repro.telemetry.logconfig import configure_logging, reset_logging
from repro.telemetry.metrics import read_jsonl
from repro.telemetry.session import NULL_SESSION, TelemetrySession


class TestDisabled:
    def test_disabled_session_is_inert(self, tmp_path):
        session = TelemetrySession()
        assert not session.enabled
        assert session.tracer is None
        session.begin(config={"k": 1}, seed=0)
        session.emit("sweep", sweep=0)
        session.emit_snapshot()
        session.end(sweeps=0)
        session.close()
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere

    def test_disabled_session_keeps_tracer_untouched(self):
        before = tracing.get_tracer()
        with TelemetrySession():
            assert tracing.get_tracer() is before

    def test_null_session_shared_and_disabled(self):
        assert not NULL_SESSION.enabled

    def test_registry_usable_even_when_disabled(self):
        session = TelemetrySession()
        session.metrics.counter("x").inc()
        assert session.metrics.counter("x").value == 1


class TestEnabled:
    def test_metrics_only_writes_manifest_and_records(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        session = TelemetrySession(metrics_path=path)
        assert session.enabled
        assert session.tracer is None  # no trace requested
        with session:
            session.begin(
                config={"num_communities": 2},
                seed=5,
                executor="serial",
                num_nodes=1,
                num_iterations=3,
            )
            session.emit("sweep", sweep=0)
            session.end(sweeps=3)
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["executor"] == "serial"
        kinds = [r["kind"] for r in read_jsonl(path)]
        assert kinds == ["fit_start", "sweep", "metrics", "fit_end"]

    def test_fit_start_and_end_payloads(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with TelemetrySession(metrics_path=path) as session:
            session.begin(config={}, seed=1, num_iterations=7)
            session.metrics.counter("sweeps_total").inc(7)
            session.end(sweeps=7)
        records = {r["kind"]: r for r in read_jsonl(path)}
        assert records["fit_start"]["num_iterations"] == 7
        assert records["metrics"]["counters"]["sweeps_total"] == 7
        assert records["fit_end"]["sweeps"] == 7
        assert records["fit_end"]["elapsed_seconds"] >= 0

    def test_trace_only_installs_and_restores_tracer(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        session = TelemetrySession(trace_path=trace_path)
        assert session.enabled
        before = tracing.get_tracer()
        session.activate()
        try:
            assert tracing.get_tracer() is session.tracer
            with tracing.span("sweep", sweep=0):
                pass
        finally:
            session.close()
        assert tracing.get_tracer() is before
        loaded = json.loads(trace_path.read_text())
        assert [e["name"] for e in loaded["traceEvents"]] == ["sweep"]
        # Manifest lands next to the trace when there is no metrics file.
        session2 = TelemetrySession(trace_path=tmp_path / "t2.json")
        with session2:
            session2.begin(config={}, seed=0)
        assert (tmp_path / "run.json").exists()

    def test_close_idempotent(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        session.activate()
        session.close()
        session.close()  # second close is a no-op, not an error

    def test_nested_sessions_restore_in_order(self, tmp_path):
        outer = TelemetrySession(trace_path=tmp_path / "outer.json")
        inner = TelemetrySession(trace_path=tmp_path / "inner.json")
        outer.activate()
        inner.activate()
        assert tracing.get_tracer() is inner.tracer
        inner.close()
        assert tracing.get_tracer() is outer.tracer
        outer.close()
        assert tracing.get_tracer() is None


class TestLikelihoodSink:
    def test_sets_gauges_and_perplexity(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        sink = session.likelihood_sink(num_tokens=100)
        sink(-230.2585)  # exp(2.302585) ~ 10
        assert session.metrics.gauge("log_likelihood").value == -230.2585
        assert session.metrics.gauge("perplexity").value == math.exp(2.302585)

    def test_overflow_clamps_to_inf(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        sink = session.likelihood_sink(num_tokens=1)
        sink(-1e6)
        assert session.metrics.gauge("perplexity").value == math.inf

    def test_zero_tokens_guarded(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        sink = session.likelihood_sink(num_tokens=0)
        sink(-2.0)  # divides by the clamped 1, not by zero
        assert session.metrics.gauge("perplexity").value == math.exp(2.0)


class TestWorkerGlue:
    def test_worker_config_shape(self, tmp_path):
        enabled = TelemetrySession(
            metrics_path=tmp_path / "m.jsonl", trace_path=tmp_path / "t.json"
        )
        config = enabled.worker_config()
        assert config["enabled"] is True
        assert config["trace"] is True
        assert isinstance(config["log_level"], int)
        dark = TelemetrySession()
        assert dark.worker_config()["enabled"] is False
        assert dark.worker_config()["trace"] is False

    def test_absorb_worker_payload(self, tmp_path):
        session = TelemetrySession(
            metrics_path=tmp_path / "m.jsonl", trace_path=tmp_path / "t.json"
        )
        stream = io.StringIO()
        configure_logging(level="info", fmt="json", stream=stream)
        try:
            session.absorb_worker_payload(
                {
                    "logs": [
                        {
                            "name": "repro.parallel.worker",
                            "levelno": logging.INFO,
                            "message": "shard done",
                            "created": 10.0,
                            "process": 999,
                        }
                    ],
                    "timing": {"spans": [
                        {
                            "name": "worker_shard",
                            "cat": "repro",
                            "ph": "X",
                            "ts": 1.0,
                            "dur": 2.0,
                            "pid": 999,
                            "tid": 1,
                            "args": {"id": 1, "parent": None},
                        }
                    ]},
                }
            )
        finally:
            reset_logging()
        replayed = json.loads(stream.getvalue())
        assert replayed["message"] == "shard done"
        assert replayed["worker_pid"] == 999
        assert [e["name"] for e in session.tracer.events] == ["worker_shard"]
        session.close()

    def test_absorb_empty_payload_is_noop(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        session.absorb_worker_payload({})  # no logs, no spans, no tracer
        session.close()


class TestSetGauges:
    def test_sets_all_non_none_values(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        session.set_gauges(coherence=-1.5, nmi=0.8, holdout_perplexity=None)
        snapshot = session.metrics.snapshot()["gauges"]
        assert snapshot["coherence"] == -1.5
        assert snapshot["nmi"] == 0.8
        assert "holdout_perplexity" not in snapshot
        session.close()

    def test_none_preserves_previous_value(self, tmp_path):
        session = TelemetrySession(metrics_path=tmp_path / "m.jsonl")
        session.set_gauges(coherence=-2.0)
        session.set_gauges(coherence=None)
        assert session.metrics.snapshot()["gauges"]["coherence"] == -2.0
        session.close()
