"""HTTP load generator for the end-to-end benchmark.

Runs as its own process (``python loadgen.py HOST PORT``) so client work
never competes with the server for one interpreter lock.  Two threads each
hold one keep-alive HTTP/1.1 connection.  Commands arrive one JSON object
per stdin line and each is answered with one JSON line on stdout, which is
how ``run.py`` keeps a stream burst from ever overlapping a model update:
it writes the command only after the swap and waits for the reply.

Commands (``cmd`` key):

* ``mix`` -- store a named request list (``[[family, path, body], ...]``);
* ``open`` -- open loop over a stored mix at ``rate`` requests/s for
  ``seconds``;
* ``ladder`` -- capacity search from ``start`` requests/s: the highest rate
  whose step has no failed request, a due-time p99 within ``limit_ms`` and
  no growing backlog, found to within ``resolution`` (a ratio);
* ``burst`` -- every request of a stored mix due at once;
* ``quit``.

Latency is timed from when a request was *due*, not when it was sent, so a
stall counts against every request queued behind it; ``late`` is how far
behind schedule the generator sent each request.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time

import numpy as np

#: Client threads, each with one keep-alive connection.
CONNECTIONS = 2
FAMILIES = ("retweet", "link", "timestamp", "influential")
PATHS = {family: f"/v1/query/{family}" for family in FAMILIES}


def build_mix(
    seed: int,
    count: int,
    num_users: int,
    vocab_size: int,
    num_topics: int,
    zipf: float | None = None,
) -> list[list]:
    """``count`` round-robin ``[family, path, body]`` requests from ``seed``.

    Keys (users, topics) are uniform, or Zipf-distributed with exponent
    ``zipf`` over a seeded permutation of the key space, so a hot key is
    not always id 0.
    """
    rng = np.random.default_rng(seed)

    def keys(space: int) -> np.ndarray:
        if zipf is None:
            return rng.integers(space, size=count)
        weights = 1.0 / np.arange(1, space + 1) ** zipf
        ranks = rng.choice(space, size=count, p=weights / weights.sum())
        return rng.permutation(space)[ranks]

    users, topics = keys(num_users), keys(num_topics)
    others = rng.integers(num_users, size=(count, 5))
    words = rng.integers(vocab_size, size=(count, 8))
    mix = []
    for index in range(count):
        family = FAMILIES[index % len(FAMILIES)]
        user = int(users[index])
        if family == "retweet":
            body = {
                "source": user,
                "candidates": [int(u) for u in others[index]],
                "words": [int(w) for w in words[index]],
            }
        elif family == "link":
            body = {"sources": [user], "targets": [int(others[index, 0])]}
        elif family == "timestamp":
            body = {"author": user, "words": [int(w) for w in words[index]]}
        else:
            body = {"topic": int(topics[index])}
        mix.append([family, PATHS[family], body])
    return mix


class _Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: http.client.HTTPConnection | None = None

    def exchange(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self.conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class LoadGenerator:
    """Drives stored request mixes against one server over two connections."""

    def __init__(self, host: str, port: int) -> None:
        self.clients = [_Client(host, port) for _ in range(CONNECTIONS)]
        self.mixes: dict[str, list[tuple[str, str, bytes]]] = {}

    def store(self, name: str, requests: list[list]) -> int:
        self.mixes[name] = [
            (family, path, json.dumps(body).encode("utf-8"))
            for family, path, body in requests
        ]
        return len(self.mixes[name])

    def close(self) -> None:
        for client in self.clients:
            client.close()

    # -- scheduling ------------------------------------------------------------

    def _drive(
        self,
        requests: list,
        due: list[float],
        keep_bodies: bool = False,
        abort_late: float | None = None,
    ) -> list:
        """Send ``requests[i]`` at ``due[i]`` from whichever thread is free.

        Returns per-request ``(family, due, sent, done, status, client,
        body)``, or ``None`` for a request never sent because the generator
        fell more than ``abort_late`` seconds behind schedule.  ``body`` is
        kept only when asked for (bursts read the model generation from it).
        """
        results: list = [None] * len(requests)
        cursor = [0]
        lock = threading.Lock()

        def work(slot: int, client: _Client) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests):
                        return
                    cursor[0] += 1
                wait = due[index] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                elif abort_late is not None and -wait > abort_late:
                    with lock:
                        cursor[0] = len(requests)
                    return
                family, path, body = requests[index]
                sent = time.perf_counter()
                status, payload = client.exchange(path, body)
                done = time.perf_counter()
                results[index] = (
                    family, due[index], sent, done, status, slot,
                    payload if keep_bodies else None,
                )

        threads = [
            threading.Thread(target=work, args=(slot, client), daemon=True)
            for slot, client in enumerate(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def open_loop(
        self,
        mix: str,
        rate: float,
        seconds: float,
        offset: int = 0,
        spans: bool = False,
        abort_late: float | None = None,
    ) -> dict:
        """Requests due every ``1/rate`` s for ``seconds``, cycling the mix."""
        stored = self.mixes[mix]
        count = max(1, int(rate * seconds))
        requests = [stored[(offset + i) % len(stored)] for i in range(count)]
        start = time.perf_counter() + 0.005
        due = [start + i / rate for i in range(count)]
        results = self._drive(requests, due, abort_late=abort_late)
        return summarize(results, rate, spans)

    def burst(self, mix: str, spans: bool = False) -> dict:
        """Every request of ``mix`` due at once; the first one is the probe."""
        requests = self.mixes[mix]
        start = time.perf_counter()
        results = self._drive(requests, [start] * len(requests), keep_bodies=True)
        summary = summarize(results, None, spans)
        first = results[0]
        summary["probe_ms"] = (first[3] - first[1]) * 1e3
        summary["generations"] = [
            json.loads(body).get("model_generation") if status == 200 else None
            for *_timing, status, _slot, body in results
        ]
        return summary

    def ladder(
        self,
        mix: str,
        start: float,
        step_seconds: float,
        limit_ms: float,
        resolution: float,
        start_passed: bool = False,
    ) -> dict:
        """Highest passing rate: bracket by 4x, then bisect geometrically.

        A step passes when every request was sent and answered 200, the
        backlog did not grow and the due-time p99 is within ``limit_ms``.
        A step that falls four latency limits behind schedule stops early:
        it has already failed.
        """
        steps: list[dict] = []
        offset = 0

        def step(rate: float) -> dict:
            nonlocal offset
            record = self.open_loop(
                mix, rate, step_seconds, offset=offset,
                abort_late=4 * limit_ms / 1e3,
            )
            offset += record["sent"]
            record["kept_up"] = (
                record["failed"] == 0
                and record["dropped"] == 0
                and not record["backlog_growing"]
            )
            record["passed"] = (
                record["kept_up"] and record["latency_p99_ms"] <= limit_ms
            )
            steps.append(record)
            time.sleep(0.2)  # let any queue drain before the next step
            return record

        def passes(rate: float) -> bool:
            # A step that kept up but missed the p99 limit is run once more:
            # one stall of the shared host should not end the search.
            first = step(rate)
            return first["passed"] or (first["kept_up"] and step(rate)["passed"])

        if start_passed or passes(start):
            low, high = start, start * 4
            while passes(high):
                low, high = high, high * 4
        else:
            high, low = start, start / 4
            while not passes(low):
                if low < 1.0:
                    return {"max_rps": 0.0, "steps": steps}
                high, low = low, low / 4
        while high / low > resolution:
            middle = (low * high) ** 0.5
            if passes(middle):
                low = middle
            else:
                high = middle
        return {"max_rps": low, "steps": steps}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def summarize(results: list, rate: float | None, spans: bool = False) -> dict:
    """Sent/ok/failed counts and due-time latency and lateness percentiles."""
    sent = [r for r in results if r is not None]
    ok = [r for r in sent if r[4] == 200]
    latency = [(r[3] - r[1]) * 1e3 for r in ok]
    late = [(r[2] - r[1]) * 1e3 for r in sent]
    quarter = max(1, len(late) // 4)
    by_family: dict[str, list[float]] = {}
    for r in ok:
        by_family.setdefault(r[0], []).append((r[3] - r[2]) * 1e3)
    summary = {
        "rate": rate,
        "sent": len(sent),
        "ok": len(ok),
        "failed": len(sent) - len(ok),
        "dropped": len(results) - len(sent),
        "latency_p50_ms": _percentile(latency, 50),
        "latency_p90_ms": _percentile(latency, 90),
        "latency_p99_ms": _percentile(latency, 99),
        "late_p50_ms": _percentile(late, 50),
        "late_p99_ms": _percentile(late, 99),
        # A growing backlog pushes lateness up over the step.
        "backlog_growing": bool(
            _percentile(late[-quarter:], 50) > _percentile(late[:quarter], 50) + 5.0
        ),
        # Send-to-answer time per family (client view, no schedule wait).
        "service_p50_ms": {
            family: _percentile(values, 50) for family, values in by_family.items()
        },
    }
    if spans:
        summary["spans"] = [list(r[:6]) for r in sent]
    return summary


def serve_commands(host: str, port: int, stdin, stdout) -> None:
    generator = LoadGenerator(host, port)
    handlers = {
        "mix": lambda **args: {"stored": generator.store(**args)},
        "open": generator.open_loop,
        "burst": generator.burst,
        "ladder": generator.ladder,
    }
    try:
        for line in stdin:
            command = json.loads(line)
            name = command.pop("cmd")
            if name == "quit":
                break
            stdout.write(json.dumps(handlers[name](**command)) + "\n")
            stdout.flush()
    finally:
        generator.close()


if __name__ == "__main__":
    serve_commands(sys.argv[1], int(sys.argv[2]), sys.stdin, sys.stdout)
