"""Opt-in perf gate: the table-driven generator beats per-call ``rng.choice``.

Run with ``pytest benchmarks/perf -m perf``.  Times ``generate_corpus`` on
the e2e benchmark's MEDIUM world (600 users, ~4.9K posts, ~196K tokens)
against the ``rng.choice`` oracle of ``tests/test_synthetic.py``, in one
process, best of three alternating runs each.  The gate is a ratio, so
it holds however fast the host happens to be.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest

from repro.datasets.synthetic import generate_corpus

pytestmark = pytest.mark.perf

#: Minimum speedup of ``generate_corpus`` over the per-call oracle.
MIN_SPEEDUP = 2.5


def _oracle_module():
    path = Path(__file__).resolve().parents[2] / "tests" / "test_synthetic.py"
    spec = importlib.util.spec_from_file_location("_synthetic_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_generate_corpus_beats_choice_oracle():
    oracle = _oracle_module()
    config = oracle.MEDIUM_WORLD
    generate_corpus(config)  # warm-up: first-call imports and caches
    # Alternate the two, so a change in host speed hits both sides.
    fast, slow = [], []
    for _ in range(3):
        fast.append(_seconds(lambda: generate_corpus(config)))
        slow.append(_seconds(lambda: oracle.choice_oracle(config)))
    speedup = min(slow) / min(fast)
    assert speedup >= MIN_SPEEDUP, (
        f"generate_corpus {min(fast):.3f}s vs rng.choice oracle "
        f"{min(slow):.3f}s: only {speedup:.2f}x"
    )
