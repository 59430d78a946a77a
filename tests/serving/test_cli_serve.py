"""``cold serve`` end-to-end: boot, query, SIGHUP reload, SIGTERM drain."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_serve(model_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(model_path),
            "--port", "0", "--ic-simulations", "20", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _wait_for_port(process, timeout=60.0):
    """Parse the bound port from the 'serving on http://...' boot line."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        assert process.poll() is None, (
            f"serve exited early ({process.returncode}): {process.stderr.read()}"
        )
        line = process.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        lines.append(line)
        match = re.search(r"serving on http://[\d.]+:(\d+)", line)
        if match:
            return int(match.group(1)), lines
    raise AssertionError(f"no serving line within {timeout}s: {lines!r}")


def _get(port, path, timeout=10.0):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, json.loads(response.read())


def _post(port, path, body, timeout=10.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


@pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="POSIX signals required")
def test_serve_boot_query_reload_drain(model_path):
    process = _spawn_serve(model_path)
    try:
        port, boot_lines = _wait_for_port(process)
        assert any("self-check ok" in line for line in boot_lines)

        status, health = _get(port, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["generation"] == 1

        status, ready = _get(port, "/readyz")
        assert status == 200

        status, scored = _post(
            port,
            "/v1/query/retweet",
            {"source": 0, "candidates": [1, 2], "words": [0]},
        )
        assert status == 200
        assert len(scored["result"]["scores"]) == 2

        # SIGHUP: hot-swap reload from the same path bumps the generation.
        process.send_signal(signal.SIGHUP)
        deadline = time.monotonic() + 30
        generation = 1
        while time.monotonic() < deadline and generation < 2:
            time.sleep(0.1)
            _, health = _get(port, "/healthz")
            generation = health["generation"]
        assert generation == 2, "SIGHUP reload did not bump the generation"

        # Queries keep working across the swap.
        status, scored = _post(
            port,
            "/v1/query/link",
            {"sources": [0], "targets": [1]},
        )
        assert status == 200
        assert scored["model_generation"] == 2

        # SIGTERM: graceful drain, clean exit.
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        assert process.returncode == 0
        stdout = process.stdout.read()
        assert "drained cleanly" in stdout
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_serve_missing_model_exits_2(tmp_path):
    process = _spawn_serve(tmp_path / "nope")
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 2
    assert "error:" in stderr
    assert "Traceback" not in stderr
