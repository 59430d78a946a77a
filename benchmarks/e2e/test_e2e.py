"""Tests of the end-to-end benchmark harness itself (``pytest benchmarks/e2e``).

* every workload runs at SMOKE scale, untraced and traced, within a minute,
  printing exactly the metrics BENCHMARK.json declares, with their units,
  and passing every output check;
* the load generator times requests from when they were due: a server that
  stalls shows up in due-time latency and lateness, not only in the few
  requests that were in flight.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import loadgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_runs_emit_declared_metrics_and_pass_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    started = time.perf_counter()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--scale", "smoke"],
                capture_output=True, text=True, cwd=ROOT, timeout=120,
            )
            assert child.returncode == 0, child.stdout + child.stderr
            result = json.loads(child.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["attempted"] >= 1 and result["failed"] == 0
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert units == declared[trace]
            if trace == 0:
                assert all(e["value"] > 0 for e in result["metrics"].values())
    assert time.perf_counter() - started < 60


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers at once, except inside the stall window, where it holds."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else each answer waits for a delayed ACK
    stall: list[float] = []  # [start, end] on time.perf_counter

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        now = time.perf_counter()
        start, end = self.stall
        if start <= now < end:
            time.sleep(end - now)
        body = json.dumps({"result": {}, "model_generation": 1}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_loadgen_counts_a_stall_against_queued_requests():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    generator = loadgen.LoadGenerator(*server.server_address[:2])
    try:
        generator.store("m", loadgen.build_mix(1, 50, 10, 10, 2))
        now = time.perf_counter()
        _StallingHandler.stall = [now + 0.4, now + 0.7]
        reply = generator.open_loop("m", rate=200, seconds=1.2, spans=True)
    finally:
        generator.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert reply["sent"] == reply["ok"] == 240 and reply["failed"] == 0
    # Both connections hold for 0.3 s, so ~60 requests fall due meanwhile:
    # each is sent late and answered late, though only the two in flight
    # saw a slow server.
    assert reply["late_p99_ms"] > 150
    assert reply["latency_p99_ms"] > 150
    spans = reply["spans"]
    due_late = sum(1 for _f, due, _s, done, _st, _c in spans if done - due > 0.1)
    slow = sum(1 for _f, _d, sent, done, _st, _c in spans if done - sent > 0.1)
    assert slow <= 2 and due_late >= 20
