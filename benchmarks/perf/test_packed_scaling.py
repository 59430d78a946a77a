"""Opt-in perf gate: out-of-core packed corpora must scale linearly in data.

Run with ``pytest benchmarks/perf -m perf``.  Excluded from the default
suite because the 10^5-user point costs minutes of wall time.

The gate fits the format's headline claims:

* **flat generation memory** — chunked generation stays under one fixed
  RSS ceiling at 10^4 *and* 10^5 users (a ~10x token spread): the
  generator holds one ``chunk_tokens`` buffer per column and streams
  spools to disk, so its footprint is the planted parameters, not the
  corpus.
* **sub-linear, capped training memory** — mmap-backed training never
  copies the corpus (workers map the file read-only; the OS shares the
  pages), so what remains resident is the sampler's own working state —
  ``CountState`` + the fast path's ``SweepCache`` (its largest log table
  has one entry per token), which grows several times slower than the
  token stream plus per-worker pickled copies would.  Asserted two ways:
  a fixed generous ceiling at both scales, and RSS growth strictly below
  the token growth.
* **linear time** — sweep and generation time grow no worse than ~2.5x
  the token ratio between the two scales, catching any accidental
  quadratic (e.g. the per-link O(users) CDF rebuild this gate originally
  flushed out of the link pass).

Draw equivalence (mmap ``processes`` vs in-RAM ``simulated``) is
asserted alongside, per the harness's usual discipline: an out-of-core
speedup that draws a different chain would be meaningless.
"""

from __future__ import annotations

import pytest

from repro.perf import run_packed_scaling_case

pytestmark = pytest.mark.perf

#: Fixed RSS ceilings (MB), identical at every scale.  Generation is
#: genuinely flat (~165MB at 10^5 users, dominated by interpreter +
#: numpy); its ceiling is several times the observed peak.  Training
#: carries the sampler's working state (``CountState`` + ``SweepCache``),
#: so its ceiling is a generous cap that would still catch the failure this
#: PR removes — per-worker pickled corpus copies — or any accidental
#: full-corpus materialisation on top of the sampler state.
GENERATE_RSS_CEILING_MB = 700
TRAIN_RSS_CEILING_MB = 1200


def test_packed_scaling_linear_in_data_with_flat_rss():
    record = run_packed_scaling_case(
        scales=(10_000, 100_000), num_nodes=4, num_workers=2, sweeps=2
    )
    assert record["draws_match"], (
        "mmap-backed processes fit diverged from the in-RAM simulated oracle"
    )
    small, large = record["scaling"]
    token_ratio = large["tokens"] / small["tokens"]
    assert token_ratio > 5, f"scales too close to gate on ({token_ratio:.1f}x)"

    for point in (small, large):
        assert point["generate_peak_rss_mb"] < GENERATE_RSS_CEILING_MB, (
            f"chunked generation of {point['users']} users peaked at "
            f"{point['generate_peak_rss_mb']}MB RSS"
        )
        assert point["train_peak_rss_mb"] < TRAIN_RSS_CEILING_MB, (
            f"mmap-backed training of {point['users']} users peaked at "
            f"{point['train_peak_rss_mb']}MB RSS"
        )

    train_rss_ratio = large["train_peak_rss_mb"] / small["train_peak_rss_mb"]
    assert train_rss_ratio < token_ratio, (
        f"training RSS grew {train_rss_ratio:.1f}x over a {token_ratio:.1f}x "
        f"token spread — the corpus is being materialised per worker again"
    )

    gen_ratio = large["generate_seconds"] / small["generate_seconds"]
    assert gen_ratio < token_ratio * 2.5, (
        f"generation grew {gen_ratio:.1f}x over a {token_ratio:.1f}x token "
        f"spread — super-linear"
    )
    sweep_ratio = (
        large["cluster_seconds_per_sweep"] / small["cluster_seconds_per_sweep"]
    )
    assert sweep_ratio < token_ratio * 2.5, (
        f"sweep time grew {sweep_ratio:.1f}x over a {token_ratio:.1f}x token "
        f"spread — super-linear"
    )
