"""Chaos harness for the serving layer: inject faults, assert invariants.

The same declarative discipline :mod:`repro.resilience.faults` applies to
training is applied here to the query path.  A :class:`ServingFaultPlan`
schedules faults by *(endpoint, request index)* with the FaultPlan
``times`` convention (a fault fires for a bounded number of consecutive
attempts) and tallies every injection so tests can assert on what was
actually exercised:

* :class:`SlowRequest` — delays a handler before scoring.  The delay runs
  through :meth:`~repro.serving.robustness.Deadline.sleep`, so a slow
  handler either finishes within budget or surfaces as a structured 504.
* :class:`FailRequest` — raises a raw exception inside the handler, which
  must surface as the structured ``internal`` 500 (never a default HTML
  error page or a torn connection).

:func:`run_chaos` is the driver: it fires a concurrent mix of prediction
queries at a live server while triggering hot-swap reloads mid-request —
both valid reloads and deliberately *corrupted* candidate models — then
checks the robustness contract and returns a :class:`ChaosReport`:

* every request got a structured JSON response — a result, a 504
  timeout, a 503 shed/circuit-trip, or a structured 500 (``torn == 0``,
  ``unstructured == 0``);
* no wedged threads: every client worker joined and the server's handler
  thread count returned to its baseline;
* corrupted reloads rolled back (``/readyz`` still green, generation
  unchanged by the bad candidates).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience.faults import FaultError


class ChaosError(FaultError):
    """An injected serving fault (raised inside a request handler)."""


@dataclass(frozen=True)
class SlowRequest:
    """Delay ``endpoint`` by ``seconds`` starting at request ``start``.

    Applies to the endpoint's request indices ``start .. start+times-1``
    (0-based, counted per endpoint).
    """

    endpoint: str
    seconds: float
    start: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class FailRequest:
    """Raise inside ``endpoint``'s handler at request ``start`` (``times``x)."""

    endpoint: str
    start: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass
class ServingFaultPlan:
    """A schedule of serving faults, queried by (endpoint, request index)."""

    slow_requests: tuple[SlowRequest, ...] = ()
    failures: tuple[FailRequest, ...] = ()
    injected_delays: int = field(default=0, init=False)
    injected_failures: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.slow_requests = tuple(self.slow_requests)
        self.failures = tuple(self.failures)
        self._lock = threading.Lock()

    def delay_for(self, endpoint: str, index: int) -> float:
        """Total injected delay (seconds) for this request."""
        total = 0.0
        for slow in self.slow_requests:
            if (
                slow.endpoint == endpoint
                and slow.start <= index < slow.start + slow.times
            ):
                total += slow.seconds
        if total > 0:
            with self._lock:
                self.injected_delays += 1
        return total

    def should_fail(self, endpoint: str, index: int) -> bool:
        """Whether this request's handler raises an injected exception."""
        for failure in self.failures:
            if (
                failure.endpoint == endpoint
                and failure.start <= index < failure.start + failure.times
            ):
                with self._lock:
                    self.injected_failures += 1
                return True
        return False

    @property
    def total_injected(self) -> int:
        return self.injected_delays + self.injected_failures


#: Response classes the robustness contract allows (anything else is a bug).
STRUCTURED_ERRORS = {
    "deadline_exceeded",
    "shed",
    "circuit_open",
    "degenerate",
    "internal",
    "bad_request",
    "not_found",
    "draining",
    "reload_failed",
}


@dataclass
class ChaosReport:
    """What the chaos run observed; tests assert on these fields."""

    total: int = 0
    ok: int = 0
    timeout: int = 0
    shed: int = 0
    circuit_open: int = 0
    degenerate: int = 0
    internal: int = 0
    bad_request: int = 0
    other_structured: int = 0
    torn: int = 0
    unstructured: int = 0
    wedged_threads: int = 0
    reloads_ok: int = 0
    reloads_rolled_back: int = 0
    ready_after: bool = False
    generation_before: int = -1
    generation_after: int = -1

    def classify(self, status: int, payload: dict | None) -> None:
        """Tally one HTTP exchange."""
        self.total += 1
        if payload is None:
            self.torn += 1
            return
        if status == 200 and "error" not in payload:
            self.ok += 1
            return
        error = payload.get("error")
        if error not in STRUCTURED_ERRORS:
            self.unstructured += 1
            return
        if error == "deadline_exceeded":
            self.timeout += 1
        elif error == "shed":
            self.shed += 1
        elif error == "circuit_open":
            self.circuit_open += 1
        elif error == "degenerate":
            self.degenerate += 1
        elif error == "internal":
            self.internal += 1
        elif error == "bad_request":
            self.bad_request += 1
        else:
            self.other_structured += 1

    @property
    def structured_total(self) -> int:
        return self.total - self.torn - self.unstructured


def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict | None]:
    """One HTTP exchange; returns ``(status, payload-or-None)``.

    ``None`` payload means a torn response: the connection died or the
    body was not valid JSON — exactly what the chaos invariants forbid.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(
            method,
            path,
            body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = conn.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return response.status, None
        if not isinstance(parsed, dict):
            return response.status, None
        return response.status, parsed
    except OSError:
        return 0, None
    finally:
        conn.close()


def corrupt_model_copy(model_path: str | Path, out_dir: str | Path) -> Path:
    """Write a corrupted copy of a saved model (truncated estimates file).

    The returned path is a valid reload *target* whose ``.npz`` payload is
    garbage — the candidate the hot-swap validation must reject.
    """
    model_path = Path(model_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "corrupt-model"
    config = model_path.with_suffix(".json").read_bytes()
    target.with_suffix(".json").write_bytes(config)
    payload = model_path.with_suffix(".npz").read_bytes()
    target.with_suffix(".npz").write_bytes(payload[: max(len(payload) // 3, 16)])
    return target


def run_chaos(
    host: str,
    port: int,
    *,
    num_requests: int = 60,
    concurrency: int = 8,
    model_path: str | Path | None = None,
    corrupt_candidate: Path | None = None,
    reload_every: int = 10,
    deadline_ms: int | None = None,
    num_users: int = 10,
    vocab_size: int = 10,
    request_timeout: float = 15.0,
) -> ChaosReport:
    """Fire mixed queries at a live server while reloading it mid-request.

    ``concurrency`` client threads drain a shared queue of
    ``num_requests`` mixed retweet/link/timestamp/influential queries.
    Every ``reload_every`` requests a reload fires concurrently —
    alternating between the genuine ``model_path`` and the
    ``corrupt_candidate`` (when given) — so swaps and rollbacks happen
    under load.  Returns the :class:`ChaosReport`; the caller asserts the
    invariants.
    """
    report = ChaosReport()
    report_lock = threading.Lock()
    status, payload = _request(host, port, "GET", "/healthz")
    if status == 200 and payload is not None:
        report.generation_before = int(payload.get("generation", -1))

    def build_query(index: int) -> tuple[str, dict]:
        kind = index % 4
        source = index % num_users
        other = (index + 1) % num_users
        words = [index % vocab_size]
        if kind == 0:
            return "/v1/query/retweet", {
                "source": source,
                "candidates": [other, (index + 2) % num_users],
                "words": words,
            }
        if kind == 1:
            return "/v1/query/link", {"sources": [source], "targets": [other]}
        if kind == 2:
            return "/v1/query/timestamp", {"author": source, "words": words}
        return "/v1/query/influential", {"topic": 0, "num_simulations": 20}

    indices = list(range(num_requests))
    index_lock = threading.Lock()
    reload_threads: list[threading.Thread] = []

    def fire_reload(candidate: Path | None) -> None:
        body: dict = {}
        if candidate is not None:
            body["path"] = str(candidate)
        status, payload = _request(
            host, port, "POST", "/v1/admin/reload", body, timeout=request_timeout
        )
        with report_lock:
            if status == 200 and payload is not None and "error" not in payload:
                report.reloads_ok += 1
            elif payload is not None and payload.get("error") == "reload_failed":
                report.reloads_rolled_back += 1

    def client_worker() -> None:
        while True:
            with index_lock:
                if not indices:
                    return
                index = indices.pop(0)
            if reload_every and index and index % reload_every == 0:
                # Trigger a hot-swap mid-request-stream: even indices use
                # the genuine model, odd multiples the corrupted one.
                candidate = None
                if corrupt_candidate is not None and (index // reload_every) % 2:
                    candidate = corrupt_candidate
                elif model_path is not None:
                    candidate = Path(model_path)
                thread = threading.Thread(
                    target=fire_reload, args=(candidate,), daemon=True
                )
                thread.start()
                reload_threads.append(thread)
            path, body = build_query(index)
            if deadline_ms is not None:
                body["deadline_ms"] = deadline_ms
            status, payload = _request(
                host, port, "POST", path, body, timeout=request_timeout
            )
            with report_lock:
                report.classify(status, payload)

    baseline_threads = threading.active_count()
    workers = [
        threading.Thread(target=client_worker, daemon=True)
        for _ in range(concurrency)
    ]
    for worker in workers:
        worker.start()
    join_deadline = time.monotonic() + request_timeout * 2 + num_requests
    for worker in workers:
        worker.join(timeout=max(join_deadline - time.monotonic(), 0.1))
    for thread in reload_threads:
        thread.join(timeout=max(join_deadline - time.monotonic(), 0.1))
    report.wedged_threads = sum(
        1 for t in [*workers, *reload_threads] if t.is_alive()
    )
    # Handler threads must drain back to (roughly) the pre-chaos count;
    # give the server a moment to reap keep-alive connections.
    for _ in range(100):
        if threading.active_count() <= baseline_threads:
            break
        time.sleep(0.05)

    status, payload = _request(host, port, "GET", "/readyz")
    report.ready_after = status == 200
    status, payload = _request(host, port, "GET", "/healthz")
    if status == 200 and payload is not None:
        report.generation_after = int(payload.get("generation", -1))
    return report
