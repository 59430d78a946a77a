"""Zero-dependency HTTP front end: deadline-aware, load-shedding, hot-swap.

:class:`ColdHTTPServer` is a stdlib ``ThreadingHTTPServer`` exposing the
:class:`~repro.serving.engine.ModelServer` query families as JSON-over-HTTP
(the ``cold serve`` CLI).  The query surface is versioned under ``/v1/``:

=========================  ======  ===============================================
``/healthz``               GET     liveness: process is up (200 even while draining)
``/readyz``                GET     readiness: model loaded, breaker closed, not draining
``/metrics``               GET     telemetry registry snapshot (QPS counters,
                                   latency histograms, cache stats)
``/v1/query/retweet``      POST    ``{"source", "candidates", "words"}`` -> scores
``/v1/query/link``         POST    ``{"sources", "targets"}`` -> scores
``/v1/query/timestamp``    POST    ``{"author", "words"}`` (or batched
                                   ``"authors"``/``"words_per_post"``)
``/v1/query/influential``  POST    ``{"topic", ...}`` -> community ranking + users;
                                   ``num_simulations`` at most 10 000
``/v1/admin/reload``       POST    ``{"path"?}`` -> validate candidate, swap or
                                   roll back
=========================  ======  ===============================================

``/v1/`` responses share one envelope: ``{"result": ..., "model_generation":
N, "api_version": "v1", "elapsed_ms": ...}`` on success, and every error
payload carries ``api_version`` too.  Any other path is a 404.

Every request runs the robustness pipeline: *admission* (bounded queue;
beyond it a 503 shed with ``Retry-After``), *circuit breaker* (degenerate
scores trip it; open means fail-fast 503 and a red ``/readyz``),
*deadline* (default budget, per-request override via ``deadline_ms`` in
the body or an ``X-Deadline-Ms`` header; expiry is a structured 504), and
*typed error mapping* (bad input 400, unknown path 404, injected or
unexpected handler failures a **structured** 500 — never a default HTML
error page, never a torn connection).

Hot-swap reload (``/v1/admin/reload`` or ``SIGHUP``) builds a candidate
engine off to the side, runs its self-check queries, and atomically swaps
the engine reference only on success; failures (missing file, corrupt
archive, degenerate scores) roll back to the serving engine with
``/readyz`` staying green.  ``SIGTERM``/``SIGINT`` begin a graceful
drain: readiness goes red, in-flight requests finish, then the listener
closes.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from ..core.estimates import EstimateError
from ..core.influence import InfluenceError
from ..core.model import ModelError
from ..core.prediction import PredictionError
from ..telemetry import trace
from ..telemetry.context import (
    new_request_id,
    reset_request_id,
    sanitize_request_id,
    set_request_id,
)
from ..telemetry.logconfig import get_logger
from ..telemetry.metrics import JsonlWriter, MetricsRegistry, bucket_preset
from ..telemetry.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    wants_prometheus,
)
from ..telemetry.slo import SLOConfig, SLOTracker
from .chaos import ChaosError, ServingFaultPlan
from .engine import ModelServer
from .robustness import (
    AdmissionGate,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    DegenerateScoreError,
    PayloadTooLarge,
    QueueFullError,
    ReloadError,
    ServingError,
)

_log = get_logger(__name__)

#: Input mistakes mapped to a structured 400 (client bugs, not ours).
_BAD_REQUEST_ERRORS = (
    PredictionError,
    InfluenceError,
    KeyError,
    TypeError,
    ValueError,
)

def _is_model_path(path: object) -> bool:
    """Whether a reload ``path`` can name a model file at all.

    ``Path.with_suffix`` raises ``ValueError`` on a path with an empty
    name (``""``, ``"."``, ``"/"``); such a path is a malformed request,
    not a candidate to roll back.
    """
    return isinstance(path, str) and Path(path).name != ""


#: Loader failures a reload candidate may exhibit; all roll back.
_RELOAD_ERRORS = (
    ModelError,
    EstimateError,
    ServingError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    OSError,
)


def _endpoint_counter(registry: MetricsRegistry, name: str, endpoint: str):
    """The per-endpoint child of a labeled request counter family."""
    return registry.counter(name, labels=("endpoint",)).labels(
        endpoint=endpoint
    )


#: breaker state -> gauge value ("half-open" is the in-between on purpose).
_BREAKER_STATES = {"closed": 0.0, "half-open": 0.5, "open": 1.0}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the serving front end (all have production defaults)."""

    host: str = "127.0.0.1"
    port: int = 8080
    deadline_ms: int = 2000
    max_inflight: int = 8
    max_waiting: int = 16
    max_wait_seconds: float = 0.5
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 5.0
    cache_size: int = 1024
    top_comm_size: int = 5
    ic_simulations: int = 100
    max_body_bytes: int = 1 << 20
    #: JSONL file for periodic registry snapshots (``cold monitor --serving``).
    metrics_out: str | Path | None = None
    metrics_interval_seconds: float = 2.0
    #: SLO objectives tracked per query request (see repro.telemetry.slo).
    slo_availability_target: float = 0.999
    slo_latency_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.max_body_bytes <= 0:
            raise ServingError(
                f"max_body_bytes must be positive, got {self.max_body_bytes}"
            )
        if self.metrics_interval_seconds <= 0:
            raise ServingError(
                f"metrics_interval_seconds must be positive, got "
                f"{self.metrics_interval_seconds}"
            )
        if not 0.0 < self.slo_availability_target < 1.0:
            raise ServingError(
                f"slo_availability_target must be in (0, 1), got "
                f"{self.slo_availability_target}"
            )
        if self.slo_latency_ms <= 0:
            raise ServingError(
                f"slo_latency_ms must be positive, got {self.slo_latency_ms}"
            )


class _Handler(BaseHTTPRequestHandler):
    """Per-request handler; all state lives on ``self.server``."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out as separate writes, and with
    # Nagle enabled the body segment stalls behind the client's delayed
    # ACK — a flat ~40ms per request on loopback (the serving benchmark
    # is what catches this regressing).
    disable_nagle_algorithm = True
    server: "ColdHTTPServer"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    def handle_one_request(self) -> None:
        # Fresh exchange on a (possibly keep-alive) connection: nothing
        # has been written yet.  _internal_error consults this flag to
        # avoid emitting a second status line on the same connection.
        self._response_started = False
        self._last_status: int | None = None
        super().handle_one_request()

    def _begin_request(self):
        """Adopt the client's ``X-Request-Id`` (or mint one) for this request.

        The id lives in a contextvar for the handler's duration, so every
        log record, trace span, and breaker/deadline decision downstream
        is stamped without threading it through call signatures.  Returns
        the contextvar reset token; the caller restores it in a
        ``finally``.
        """
        request_id = (
            sanitize_request_id(self.headers.get("X-Request-Id"))
            or new_request_id()
        )
        self.request_id = request_id
        return set_request_id(request_id)

    def _send_raw(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._response_started = True
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "request_id", None)
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_raw(status, body, "application/json", headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.server.config.max_body_bytes:
            raise PayloadTooLarge(
                f"declared body of {length} bytes exceeds the "
                f"{self.server.config.max_body_bytes}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _payload_too_large(self, exc: PayloadTooLarge) -> None:
        """413 without reading the oversized body; the unread bytes would
        be parsed as the next request, so the connection must close."""
        self.close_connection = True
        self._send_json(
            413, {"error": "payload_too_large", "detail": str(exc)},
            headers={"Connection": "close"},
        )

    def _deadline(self, body: dict) -> Deadline:
        ms = body.get("deadline_ms")
        if ms is None:
            header = self.headers.get("X-Deadline-Ms")
            ms = int(header) if header else self.server.config.deadline_ms
        ms = int(ms)
        if ms <= 0:
            raise ValueError("deadline_ms must be positive")
        return Deadline.after(ms / 1000.0)

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        token = self._begin_request()
        try:
            path, _, query = self.path.partition("?")
            if path == "/healthz":
                self._send_json(200, self.server.health_payload())
            elif path == "/readyz":
                status, payload = self.server.ready_payload()
                self._send_json(status, payload)
            elif path == "/metrics":
                if (
                    wants_prometheus(self.headers.get("Accept"))
                    or "format=prometheus" in query
                ):
                    body = self.server.metrics_exposition().encode("utf-8")
                    self._send_raw(200, body, PROMETHEUS_CONTENT_TYPE)
                else:
                    self._send_json(200, self.server.metrics_snapshot())
            else:
                self._send_json(404, {"error": "not_found", "path": self.path})
        except Exception:
            self._internal_error()
        finally:
            reset_request_id(token)

    def _finish(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Send a ``/v1/`` payload, stamped with ``api_version``.

        The top-level ``request_id`` field correlates a response with its
        logs and trace.
        """
        payload = {**payload, "api_version": "v1"}
        request_id = getattr(self, "request_id", None)
        if request_id is not None:
            payload.setdefault("request_id", request_id)
        self._send_json(status, payload, headers=headers)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        token = self._begin_request()
        started = time.perf_counter()
        try:
            with trace.span(
                "http_request", method="POST", path=self.path
            ):
                self._handle_post()
        finally:
            _log.info(
                "POST %s -> %s (%.1f ms)",
                self.path,
                self._last_status,
                (time.perf_counter() - started) * 1e3,
            )
            reset_request_id(token)

    def _handle_post(self) -> None:
        server = self.server
        if self.path == _RELOAD_ROUTE:
            self._handle_reload()
            return
        method = server.query_methods().get(self.path)
        if method is None:
            self._send_json(404, {"error": "not_found", "path": self.path})
            return
        metrics = server.registry
        label = method.__name__
        _endpoint_counter(metrics, "serving_requests_total", label).inc()
        index = server.next_request_index(label)
        try:
            with trace.span("parse", endpoint=label):
                body = self._read_body()
                deadline = self._deadline(body)
        except PayloadTooLarge as exc:
            _endpoint_counter(metrics, "serving_bad_requests_total", label).inc()
            self._payload_too_large(exc)
            return
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError, TypeError) as exc:
            _endpoint_counter(metrics, "serving_bad_requests_total", label).inc()
            self._finish(400, {"error": "bad_request", "detail": str(exc)})
            return
        # A half-open probe must always report back: any exit that is not
        # record_success/record_failure releases the probe slot in the
        # ``finally`` below, otherwise a probe shed by the gate (or ended
        # by a deadline, bad input, or an unexpected error) would leave
        # the slot taken forever and wedge the server in fail-fast 503s.
        # Error paths release *before* writing the response: the moment
        # the client reads the error it may retry, and that retry must be
        # able to claim the probe slot.
        is_probe = False
        probe_resolved = False

        def release_probe() -> None:
            nonlocal probe_resolved
            if is_probe and not probe_resolved:
                server.breaker.abort_probe()
                probe_resolved = True

        try:
            if server.draining:
                raise QueueFullError("server is draining", retry_after=5.0)
            with trace.span("admission", endpoint=label):
                is_probe = server.breaker.guard()
                server.gate.acquire(deadline)
            try:
                self._inject_chaos(label, index, deadline)
                start = server.clock()
                # Grab the engine reference once: a concurrent hot-swap
                # never changes the model under a request's feet.
                engine = server.engine
                with trace.span("engine", endpoint=label):
                    result = method(engine, body, deadline)
                elapsed = server.clock() - start
            finally:
                server.gate.release()
            server.breaker.record_success()
            probe_resolved = True
            _endpoint_counter(metrics, "serving_responses_total", label).inc()
            metrics.histogram(
                "serving_latency_seconds",
                buckets=bucket_preset("serving_latency"),
                labels=("endpoint",),
            ).labels(endpoint=label).observe(elapsed)
            server.slo.record(True, elapsed)
            elapsed_ms = round(elapsed * 1e3, 3)
            with trace.span("respond", endpoint=label, status=200):
                self._finish(
                    200,
                    {
                        "result": result,
                        "model_generation": server.generation,
                        "elapsed_ms": elapsed_ms,
                    },
                )
        except DeadlineExceededResponse as response:
            _endpoint_counter(metrics, "serving_timeouts_total", label).inc()
            server.slo.record(False)
            release_probe()
            self._finish(504, response.payload)
        except QueueFullError as exc:
            metrics.counter("serving_shed_total").inc()
            server.slo.record(False)
            release_probe()
            self._finish(
                503,
                {"error": "shed", "detail": str(exc),
                 "retry_after_seconds": exc.retry_after},
                headers={"Retry-After": f"{max(int(exc.retry_after), 1)}"},
            )
        except CircuitOpenError as exc:
            metrics.counter("serving_circuit_rejections_total").inc()
            server.slo.record(False)
            self._finish(503, {"error": "circuit_open", "detail": str(exc)})
        except DegenerateScoreError as exc:
            server.breaker.record_failure()
            probe_resolved = True
            metrics.counter("serving_degenerate_total").inc()
            server.slo.record(False)
            self._finish(503, {"error": "degenerate", "detail": str(exc)})
        except _BAD_REQUEST_ERRORS as exc:
            _endpoint_counter(metrics, "serving_bad_requests_total", label).inc()
            release_probe()
            self._finish(
                400,
                {"error": "bad_request", "detail": f"{type(exc).__name__}: {exc}"},
            )
        except Exception:
            server.slo.record(False)
            release_probe()
            self._internal_error()
        finally:
            release_probe()

    # -- helpers ---------------------------------------------------------------

    def _inject_chaos(self, label: str, index: int, deadline: Deadline) -> None:
        """Apply the fault plan: deadline-honouring delays, then failures."""
        plan = self.server.chaos
        if plan is None:
            return
        delay = plan.delay_for(label, index)
        if delay > 0:
            try:
                deadline.sleep(delay, stage=f"injected {label} delay")
            except ServingError as exc:
                raise DeadlineExceededResponse(
                    {"error": "deadline_exceeded", "detail": str(exc)}
                ) from exc
        if plan.should_fail(label, index):
            raise ChaosError(f"injected failure in {label} request {index}")

    def _handle_reload(self) -> None:
        try:
            body = self._read_body()
        except PayloadTooLarge as exc:
            self._payload_too_large(exc)
            return
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            self._finish(400, {"error": "bad_request", "detail": str(exc)})
            return
        path = body.get("path")
        if path is not None and not _is_model_path(path):
            self._finish(
                400,
                {"error": "bad_request",
                 "detail": "path must be null or a string naming a model file"},
            )
            return
        try:
            with trace.span("reload", path=str(path)):
                generation = self.server.reload(path)
        except ReloadError as exc:
            self._finish(
                409,
                {"error": "reload_failed", "detail": str(exc),
                 "generation": self.server.generation},
            )
        except Exception:
            self._internal_error()
        else:
            self._finish(
                200,
                {"result": {"status": "reloaded"}, "model_generation": generation},
            )

    def _internal_error(self) -> None:
        """Last-resort structured 500 — the 'no unstructured 500s' guarantee."""
        _log.exception("unhandled error serving %s", self.path)
        self.server.registry.counter("serving_internal_errors_total").inc()
        if getattr(self, "_response_started", False):
            # A response (possibly partial — e.g. wfile.write failed
            # mid-body) already went out on this connection.  A second
            # status line would corrupt HTTP/1.1 framing for the next
            # pipelined request, so drop the connection instead.
            self.close_connection = True
            return
        try:
            self._send_json(500, {"error": "internal"})
        except OSError:  # pragma: no cover - client already gone
            self.close_connection = True


class DeadlineExceededResponse(Exception):
    """Internal control flow: carry a prepared 504 payload to the sender."""

    def __init__(self, payload: dict) -> None:
        super().__init__(payload.get("detail", "deadline exceeded"))
        self.payload = payload


def _as_timeout_response(fn):
    """Convert engine DeadlineExceeded into the prepared 504 payload."""

    def wrapped(engine: ModelServer, body: dict, deadline: Deadline) -> dict:
        try:
            return fn(engine, body, deadline)
        except DeadlineExceeded as exc:
            raise DeadlineExceededResponse(
                {"error": "deadline_exceeded", "detail": str(exc)}
            ) from exc

    wrapped.__name__ = fn.__name__
    return wrapped


# -- query adapters (body dict -> engine call -> JSON-ready dict) --------------


@_as_timeout_response
def retweet(engine: ModelServer, body: dict, deadline: Deadline) -> dict:
    scores = engine.retweet(
        int(body["source"]),
        list(body["candidates"]),
        list(body["words"]),
        deadline=deadline,
    )
    return {"scores": [round(float(s), 9) for s in scores]}


@_as_timeout_response
def link(engine: ModelServer, body: dict, deadline: Deadline) -> dict:
    sources = body["sources"] if "sources" in body else body["source"]
    targets = body["targets"] if "targets" in body else body["target"]
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if sources.size == 1 and targets.size > 1:
        sources = np.repeat(sources, targets.size)
    if targets.size == 1 and sources.size > 1:
        targets = np.repeat(targets, sources.size)
    scores = engine.link(sources, targets, deadline=deadline)
    return {"scores": [round(float(s), 9) for s in scores]}


@_as_timeout_response
def timestamp(engine: ModelServer, body: dict, deadline: Deadline) -> dict:
    if "authors" in body:
        authors = list(body["authors"])
        words_per_post = [list(words) for words in body["words_per_post"]]
    else:
        authors = [int(body["author"])]
        words_per_post = [list(body["words"])]
    slices, confidences = engine.timestamp(authors, words_per_post, deadline=deadline)
    return {
        "slices": [int(s) for s in slices],
        "confidences": [
            [round(float(p), 6) for p in row] for row in confidences
        ],
    }


@_as_timeout_response
def influential(engine: ModelServer, body: dict, deadline: Deadline) -> dict:
    return engine.influential(
        int(body["topic"]),
        size=int(body.get("size", 4)),
        top_users=int(body.get("top_users", 10)),
        num_simulations=(
            None
            if body.get("num_simulations") is None
            else int(body["num_simulations"])
        ),
        deadline=deadline,
    )


#: Canonical (versioned) query routes.
_QUERY_METHODS = {
    "/v1/query/retweet": retweet,
    "/v1/query/link": link,
    "/v1/query/timestamp": timestamp,
    "/v1/query/influential": influential,
}

#: The versioned admin route.
_RELOAD_ROUTE = "/v1/admin/reload"


class ColdHTTPServer(ThreadingHTTPServer):
    """The serving front end; see the module docstring for the contract."""

    # Join handler threads on server_close so a drain is genuinely graceful.
    daemon_threads = False
    block_on_close = True

    def __init__(
        self,
        config: ServerConfig,
        engine: ModelServer | None = None,
        model_path: str | Path | None = None,
        chaos: ServingFaultPlan | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if engine is None:
            if model_path is None:
                raise ServingError("need an engine or a model_path to serve")
            engine = self._build_engine(model_path, config)
        self.config = config
        self.engine = engine
        self.model_path = None if model_path is None else Path(model_path)
        self.generation = 1
        self.chaos = chaos
        self.registry = registry if registry is not None else MetricsRegistry()
        self.gate = AdmissionGate(
            max_inflight=config.max_inflight,
            max_waiting=config.max_waiting,
            max_wait_seconds=config.max_wait_seconds,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_seconds=config.breaker_cooldown_seconds,
        )
        self.draining = False
        self._reload_lock = threading.Lock()
        self._request_indices: dict[str, int] = {}
        self._index_lock = threading.Lock()
        self._drain_thread: threading.Thread | None = None
        self.clock = time.perf_counter
        self.slo = SLOTracker(
            SLOConfig(
                availability_target=config.slo_availability_target,
                latency_threshold_seconds=config.slo_latency_ms / 1000.0,
            )
        )
        #: Lineage of the last *published* model observed by a watcher
        #: (trainer generation, publish wall-clock, event high-watermark).
        self._freshness: dict = {}
        self._freshness_lock = threading.Lock()
        self._metrics_writer: JsonlWriter | None = None
        self._snapshot_stop = threading.Event()
        self._snapshot_thread: threading.Thread | None = None
        super().__init__((config.host, config.port), _Handler)
        if config.metrics_out is not None:
            self._metrics_writer = JsonlWriter(config.metrics_out)
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop,
                name="cold-serving-metrics",
                daemon=True,
            )
            self._snapshot_thread.start()

    @staticmethod
    def _build_engine(path: str | Path, config: ServerConfig) -> ModelServer:
        return ModelServer.from_path(
            path,
            top_comm_size=config.top_comm_size,
            cache_size=config.cache_size,
            ic_simulations=config.ic_simulations,
        )

    # -- handler support -------------------------------------------------------

    def query_methods(self) -> dict:
        return _QUERY_METHODS

    def next_request_index(self, endpoint: str) -> int:
        """Per-endpoint request sequence number (drives the fault plan)."""
        with self._index_lock:
            index = self._request_indices.get(endpoint, 0)
            self._request_indices[endpoint] = index + 1
            return index

    def health_payload(self) -> dict:
        payload = {
            "status": "ok",
            "generation": self.generation,
            "draining": self.draining,
            "breaker": self.breaker.state,
            "inflight": self.gate.inflight,
        }
        payload.update(self.engine.describe())
        return payload

    def ready_payload(self) -> tuple[int, dict]:
        if self.draining:
            return 503, {"error": "draining", "status": "draining"}
        state = self.breaker.state
        if state == "open":
            return 503, {"error": "circuit_open", "status": "not_ready",
                         "breaker": state}
        if state == "half-open":
            # Still 200 — routing all traffic away would starve the probe
            # that closes the breaker — but flagged degraded so
            # orchestrators can prefer fully-ready replicas.
            return 200, {"status": "degraded", "degraded": True,
                         "generation": self.generation, "breaker": state,
                         "slo": self.slo.summary()}
        return 200, {"status": "ready", "generation": self.generation,
                     "breaker": state, "slo": self.slo.summary()}

    # -- observability ---------------------------------------------------------

    def record_publish_freshness(
        self,
        *,
        generation: int | None = None,
        published_at: float | None = None,
        event_high_watermark: float | None = None,
        updates: int | None = None,
    ) -> None:
        """Adopt a published manifest's freshness block after a hot-swap.

        Called by :class:`~repro.streaming.watcher.ModelWatcher` once the
        reload succeeded.  ``event_to_servable_seconds`` — the headline
        end-to-end lag from an event's ingest wall-clock to the moment a
        model containing it answers queries — is fixed here, at swap
        time; ``model_staleness_seconds`` keeps growing from
        ``published_at`` until the next publish lands.
        """
        now = time.time()
        with self._freshness_lock:
            self._freshness = {
                "trainer_generation": generation,
                "published_at": published_at,
                "event_high_watermark": event_high_watermark,
                "updates": updates,
                "swapped_at": now,
            }
        registry = self.registry
        if generation is not None:
            registry.gauge("model_trainer_generation").set(generation)
        if updates is not None:
            registry.gauge("model_updates_applied").set(updates)
        if published_at is not None:
            registry.gauge("publish_to_servable_seconds").set(
                max(now - published_at, 0.0)
            )
        if event_high_watermark is not None:
            registry.gauge("event_to_servable_seconds").set(
                max(now - event_high_watermark, 0.0)
            )

    def freshness(self) -> dict:
        with self._freshness_lock:
            return dict(self._freshness)

    def _refresh_gauges(self) -> None:
        """Point-in-time gauges computed at scrape/snapshot time."""
        registry = self.registry
        registry.gauge("serving_inflight").set(self.gate.inflight)
        registry.gauge("serving_draining").set(1.0 if self.draining else 0.0)
        registry.gauge("serving_breaker_state").set(
            _BREAKER_STATES.get(self.breaker.state, -1.0)
        )
        registry.gauge("model_generation").set(self.generation)
        fresh = self.freshness()
        published_at = fresh.get("published_at")
        if published_at is not None:
            registry.gauge("model_staleness_seconds").set(
                max(time.time() - published_at, 0.0)
            )
        self.slo.export_gauges(registry)

    def metrics_snapshot(self) -> dict:
        """The JSON ``/metrics`` body: registry snapshot + SLO + freshness."""
        self._refresh_gauges()
        snapshot = self.registry.snapshot()
        snapshot["slo"] = self.slo.snapshot()
        snapshot["freshness"] = self.freshness()
        return snapshot

    def metrics_exposition(self) -> str:
        """The Prometheus text ``/metrics`` body (content-negotiated)."""
        self._refresh_gauges()
        return render_prometheus(self.registry)

    def _write_snapshot(self, kind: str) -> None:
        writer = self._metrics_writer
        if writer is None:
            return
        snapshot = self.metrics_snapshot()
        writer.write(
            kind,
            breaker=self.breaker.state,
            draining=self.draining,
            generation=self.generation,
            **snapshot,
        )

    def _snapshot_loop(self) -> None:
        while not self._snapshot_stop.wait(self.config.metrics_interval_seconds):
            try:
                self._write_snapshot("serving")
            except Exception:  # pragma: no cover - snapshots must not kill serving
                _log.exception("serving metrics snapshot failed")

    # -- hot-swap reload -------------------------------------------------------

    def reload(self, path: str | Path | None = None) -> int:
        """Validate a candidate model and atomically swap it in.

        Returns the new generation on success.  On any failure —
        unreadable file, corrupt archive, shape mismatch, degenerate
        self-check scores — raises :class:`ReloadError` and the serving
        engine keeps answering (rollback is simply *not swapping*).
        Reloads serialise on a lock; requests never take it (they read the
        ``engine`` attribute once, which Python guarantees is atomic).
        """
        with self._reload_lock:
            target = Path(path) if path is not None else self.model_path
            if target is None:
                raise ReloadError("no model path to reload from")
            self.registry.counter("serving_reload_attempts_total").inc()
            try:
                candidate = self._build_engine(target, self.config)
                checks = candidate.self_check()
            except _RELOAD_ERRORS as exc:
                self.registry.counter("serving_reload_failures_total").inc()
                _log.warning("reload of %s rolled back: %s", target, exc)
                raise ReloadError(
                    f"candidate model {target} rejected "
                    f"({type(exc).__name__}: {exc}); "
                    f"kept serving generation {self.generation}"
                ) from exc
            self.engine = candidate
            self.generation += 1
            if path is not None:
                self.model_path = target
            self.breaker.reset()
            self.registry.counter("serving_reloads_total").inc()
            _log.info(
                "hot-swapped model from %s (generation %d, self-check %s)",
                target,
                self.generation,
                checks,
            )
            return self.generation

    # -- lifecycle -------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop accepting, finish in-flight work, then shut down (async)."""
        if self.draining:
            return
        self.draining = True
        # shutdown() blocks until serve_forever exits, so it cannot run on
        # the serving thread (or inside a signal handler) — hand it off.
        self._drain_thread = threading.Thread(target=self.shutdown, daemon=True)
        self._drain_thread.start()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain; SIGHUP -> hot-swap reload.

        Only callable from the main thread (signal API restriction); the
        CLI uses it, tests drive :meth:`begin_drain`/:meth:`reload`
        directly.
        """

        def drain(signum, frame) -> None:
            _log.info("signal %d: draining", signum)
            self.begin_drain()

        def reload_handler(signum, frame) -> None:
            def try_reload() -> None:
                try:
                    self.reload()
                except ReloadError as exc:
                    _log.warning("SIGHUP reload failed: %s", exc)

            threading.Thread(target=try_reload, daemon=True).start()

        signal.signal(signal.SIGTERM, drain)
        signal.signal(signal.SIGINT, drain)
        if hasattr(signal, "SIGHUP"):
            signal.signal(signal.SIGHUP, reload_handler)

    def server_close(self) -> None:
        """Close the listener, then flush the metrics stream terminally."""
        super().server_close()
        if self._snapshot_thread is not None:
            self._snapshot_stop.set()
            self._snapshot_thread.join(timeout=5)
            self._snapshot_thread = None
        if self._metrics_writer is not None:
            try:
                self._write_snapshot("serving")
                self._metrics_writer.write("serving_end")
            finally:
                self._metrics_writer.close()
                self._metrics_writer = None

    def serve_until_shutdown(self) -> None:
        """``serve_forever`` + graceful close (joins in-flight handlers)."""
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.server_close()
            if self._drain_thread is not None:
                self._drain_thread.join(timeout=5)
