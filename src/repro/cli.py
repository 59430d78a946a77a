"""Command-line interface: ``cold <subcommand>``.

Subcommands mirror the lifecycle of a COLD study:

* ``generate``  — synthesise a Weibo-like corpus to JSONL, or stream it
  to a packed out-of-core ``.coldpack`` with ``--packed`` (bounded RSS,
  bit-identical draws at equal seed; every subcommand sniffs the format
  from the file's magic bytes);
* ``train``     — fit COLD (serial or parallel) and save estimates;
* ``analyze``   — print word clouds, a topic's diffusion graph, and the
  influential-community summary for a trained model;
* ``report``    — the full analysis report (all Fig. 5-16 analyses);
* ``predict``   — time-stamp prediction accuracy of a trained model on a
  held-out corpus slice;
* ``bench``     — the Gibbs sweep benchmark (reference vs fast kernels),
  written as ``BENCH_gibbs.json``; with ``--diagnostics``, the
  quality-streaming overhead suite (``BENCH_diagnostics.json``).
  Parallel fits, streaming and serving are timed end to end by
  ``benchmarks/e2e/run.py``;
* ``profile``   — phase-attribute sweep wall time with the training-plane
  performance observatory (:mod:`repro.telemetry.profiler`): attribution
  table, collapsed-stack output for flamegraphs, worker utilization and
  memory gauges;
* ``monitor``   — tail a (live or finished) run's ``metrics.jsonl``:
  sweep rate, log-likelihood trend, ETA;
* ``diagnose``  — convergence verdict for a run: split-R̂ / ESS across
  chains, Geweke for single chains, quality trajectories (see
  :mod:`repro.diagnostics`);
* ``serve``     — the resilient prediction server (see
  :mod:`repro.serving`): retweet/link/timestamp/influential queries over
  HTTP with deadlines, load shedding, health probes, and hot-swap reload;
* ``stream``    — continuous operation (see :mod:`repro.streaming`):
  bootstrap-fit on the head of an event JSONL, then fold the remainder
  in incremental batches, publishing model generations to a directory
  (and, with ``--serve``, hot-swapping an in-process server on every
  publish).

``train`` handles SIGINT/SIGTERM gracefully: the fit stops at the next
sweep boundary, writes a final checkpoint when checkpointing is enabled,
and exits with code 3 (instead of a KeyboardInterrupt traceback).

``train --chains N`` fits N independently seeded chains concurrently
(each streaming quality metrics into its own ``metrics.jsonl``), saves
the best chain as the model, and leaves a chains directory ready for
``cold diagnose``.

``train`` takes ``--metrics-out``/``--trace-out`` (the telemetry streams
of :mod:`repro.telemetry`) and ``--log-level``/``--log-format`` to turn
on structured logging.

Model-dimension flags are shared across subcommands via parent parsers:
``--communities``/``--topics`` everywhere, with ``--num-communities`` /
``--num-topics`` accepted as aliases so scripts can use the same spelling
as :class:`repro.api.COLDConfig`.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from collections.abc import Callable, Iterator
from pathlib import Path

from .core.diffusion import extract_diffusion_graph
from .core.estimates import EstimateError
from .core.influence import community_influence, pentagon_embedding
from .core.model import COLDModel, ModelError, TrainingInterrupted
from .core.patterns import top_words
from .core.prediction import predict_timestamp
from .core.state import StateError
from .datasets.corpus import CorpusError
from .datasets.io import CorpusIOError, load_corpus, save_corpus
from .datasets.splits import post_splits
from .datasets.stream import StreamError
from .datasets.synthetic import SyntheticConfig, SyntheticError, generate_corpus
from .diagnostics.stats import DiagnosticsError
from .eval.timestamp import accuracy_curve
from .parallel.engine import EngineError
from .parallel.sampler import ParallelCOLDSampler
from .resilience.checkpoint import CheckpointError
from .resilience.retry import RetryError
from .serving.robustness import ServingError
from .telemetry.logconfig import configure_logging
from .telemetry.metrics import TelemetryError
from .telemetry.monitor import monitor as _monitor_metrics
from .viz import diffusion_graph_summary, pentagon_summary, word_cloud

#: Typed failures the CLI converts into a one-line message + exit code 2
#: (missing/corrupt inputs, invalid configs) instead of a traceback.
_CLI_ERRORS = (
    CorpusError,
    CorpusIOError,
    CheckpointError,
    DiagnosticsError,
    ModelError,
    EstimateError,
    EngineError,
    StateError,
    RetryError,
    ServingError,
    StreamError,
    SyntheticError,
    TelemetryError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def _seed_parent(default: int = 0) -> argparse.ArgumentParser:
    """Parent parser providing the shared ``--seed`` flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=default)
    return parent


def _dims_parent(communities: int, topics: int) -> argparse.ArgumentParser:
    """Parent parser for model dimensions, with per-command defaults.

    ``--num-communities``/``--num-topics`` are accepted as aliases so CLI
    invocations can mirror :class:`repro.api.COLDConfig` field names.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--communities", "--num-communities", type=int, default=communities,
        dest="communities",
    )
    parent.add_argument(
        "--topics", "--num-topics", type=int, default=topics, dest="topics",
    )
    return parent


def _add_generate(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "generate",
        help="synthesise a corpus",
        parents=[_dims_parent(communities=4, topics=6), _seed_parent()],
    )
    parser.add_argument("output", type=Path, help="output JSONL path")
    parser.add_argument("--users", type=int, default=60)
    parser.add_argument("--time-slices", type=int, default=24)
    parser.add_argument("--vocab", type=int, default=400)
    parser.add_argument("--themed", action="store_true", help="readable tokens")
    parser.add_argument(
        "--events", action="store_true",
        help="write an event JSONL (post/link records with wall-clock "
        "stamps, 'cold stream' input) instead of a corpus JSONL",
    )
    parser.add_argument(
        "--packed", action="store_true",
        help="stream a packed .coldpack corpus to disk (chunked, bounded "
        "memory — use for large --users; bit-identical to the JSONL "
        "corpus at equal seed) instead of a corpus JSONL",
    )
    parser.add_argument(
        "--posts-per-user", type=float, default=None, metavar="MEAN",
        help="mean posts per user (default: 8.0)",
    )
    parser.add_argument(
        "--words-per-post", type=float, default=None, metavar="MEAN",
        help="mean words per post (default: 9.0)",
    )
    parser.add_argument(
        "--links-per-user", type=float, default=None, metavar="MEAN",
        help="mean links per user (default: 5.0)",
    )


def _telemetry_parent() -> argparse.ArgumentParser:
    """Parent parser for the observability flags (see repro.telemetry)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics-out", type=Path, default=None, metavar="JSONL",
        help="append per-sweep metric records to this JSONL file "
        "(tail it live with 'cold monitor')",
    )
    parent.add_argument(
        "--trace-out", type=Path, default=None, metavar="JSON",
        help="write a Chrome trace_event JSON of the fit "
        "(load in chrome://tracing or Perfetto)",
    )
    parent.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="enable structured logging at this level",
    )
    parent.add_argument(
        "--log-format", default="plain", choices=["plain", "json"],
        help="log line format for --log-level (default: plain)",
    )
    return parent


def _add_train(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "train",
        help="fit COLD on a corpus",
        parents=[
            _dims_parent(communities=10, topics=10),
            _seed_parent(),
            _telemetry_parent(),
        ],
    )
    parser.add_argument("corpus", type=Path, help="JSONL corpus path")
    parser.add_argument("model", type=Path, help="output model path (no suffix)")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--no-network", action="store_true")
    parser.add_argument(
        "--reference-kernels", action="store_true",
        help="use the reference Gibbs kernels instead of the native one "
        "(same draws either way; this only trades speed for simplicity)",
    )
    parser.add_argument(
        "--verify-corpus", action="store_true",
        help="for packed .coldpack corpora: stream every column checksum "
        "before training (exit 2 with PackedChecksumError on corruption; "
        "open() alone only validates the header).  No-op for JSONL "
        "corpora, which are fully parsed on load anyway",
    )
    parser.add_argument(
        "--nodes", type=int, default=1,
        help="simulated cluster nodes (>1 uses the parallel sampler)",
    )
    parser.add_argument(
        "--executor", choices=["simulated", "threads", "processes"],
        default="simulated",
        help="how parallel node work runs: 'simulated' (sequential, "
        "simulated-cluster timing), 'threads' (a thread pool; shards "
        "overlap only inside the native sweep, which releases the GIL), or "
        "'processes' (shared-memory worker processes, true multi-core); "
        "draws are identical across executors for a given seed",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --executor processes "
        "(default: one per node)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="write an atomic checkpoint every N sweeps (serial fits only)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="directory for checkpoints (defaults to MODEL.ckpt)",
    )
    parser.add_argument(
        "--resume", type=Path, default=None, metavar="CHECKPOINT",
        help="resume a killed fit from a checkpoint file or directory "
        "(falls back to the newest valid checkpoint; ignores --iterations "
        "etc., which are restored from the checkpoint)",
    )
    parser.add_argument(
        "--chains", type=int, default=None, metavar="K",
        help="fit K independently seeded chains concurrently (seeds "
        "SEED..SEED+K-1), stream per-chain quality metrics, and save the "
        "best chain as MODEL; inspect with 'cold diagnose <chains-dir>'",
    )
    parser.add_argument(
        "--chains-dir", type=Path, default=None,
        help="directory for per-chain metrics/estimates and the "
        "chains.json manifest (default: MODEL.chains)",
    )
    parser.add_argument(
        "--diag-stride", type=int, default=5, metavar="N",
        help="evaluate streaming quality diagnostics (coherence, "
        "likelihood chains) every N sweeps of a --chains fit (default: 5)",
    )


def _add_analyze(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser("analyze", help="explore a trained model")
    parser.add_argument("model", type=Path, help="model path (no suffix)")
    parser.add_argument("corpus", type=Path, help="JSONL corpus path")
    parser.add_argument("--topic", type=int, default=0)
    parser.add_argument("--top-words", type=int, default=12)


def _add_report(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "report", help="full analysis report for a trained model"
    )
    parser.add_argument("model", type=Path, help="model path (no suffix)")
    parser.add_argument("corpus", type=Path, help="JSONL corpus path")
    parser.add_argument("--topic", type=int, default=None)
    parser.add_argument("--output", type=Path, default=None, help="write to file")


def _add_predict(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "predict",
        help="time-stamp prediction accuracy on a holdout",
        parents=[_seed_parent()],
    )
    parser.add_argument("model", type=Path)
    parser.add_argument("corpus", type=Path)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--tolerances", type=int, nargs="+", default=[0, 1, 2, 4])


def _add_bench(subparsers: argparse._SubParsersAction) -> None:
    # No prefix matching: a retired ``--sweeps`` would otherwise parse as
    # ``--sweeps-per-rep``.
    parser = subparsers.add_parser(
        "bench",
        help="benchmark the Gibbs kernels, or quality streaming "
        "(--diagnostics)",
        allow_abbrev=False,
    )
    parser.add_argument(
        "output", type=Path, nargs="?", default=None,
        help="output JSON path (default: BENCH_gibbs.json, or "
        "BENCH_diagnostics.json with --diagnostics)",
    )
    parser.add_argument(
        "--cases", nargs="+", choices=["smoke", "medium"],
        default=None,
        help="which benchmark cases to run (default: smoke medium, or "
        "just medium with --diagnostics)",
    )
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--sweeps-per-rep", type=int, default=2)
    parser.add_argument(
        "--diagnostics", action="store_true",
        help="benchmark quality-streaming overhead (diagnostics on vs "
        "off) instead of the serial Gibbs kernels",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="after the run, diff the new numbers against a baseline and "
        "print per-metric verdicts (ok/improved/regressed)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="REF_OR_FILE",
        help="baseline for --compare: a BENCH json file, a .jsonl ledger "
        "(last matching record wins), or a git ref holding the committed "
        "snapshot (default: the snapshot at the output path before this "
        "run overwrites it)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="FRACTION",
        help="relative change counted as a regression/improvement for "
        "--compare (default: 0.10)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="with --compare: exit nonzero when any metric regressed",
    )
    parser.add_argument(
        "--history", type=Path, default=None, metavar="PATH",
        help="benchmark regression ledger to append this run to "
        "(default: benchmarks/history.jsonl)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip the ledger append",
    )


def _add_profile(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "profile",
        help="phase-attribute Gibbs sweep wall time (training-plane "
        "performance observatory)",
    )
    parser.add_argument(
        "--case", choices=["smoke", "medium"], default="medium",
        help="benchmark corpus to profile (default: medium)",
    )
    parser.add_argument(
        "--sweeps", type=int, default=5,
        help="instrumented sweeps to attribute (default: 5)",
    )
    parser.add_argument(
        "--warmup", type=int, default=2,
        help="dark warmup sweeps before timing, serial executor only "
        "(default: 2)",
    )
    parser.add_argument(
        "--executor", choices=["serial", "simulated", "threads", "processes"],
        default="serial",
        help="profile the serial kernels directly, or a parallel "
        "executor's full superstep loop (default: serial)",
    )
    parser.add_argument(
        "--nodes", type=int, default=2,
        help="cluster nodes for a parallel executor (default: 2)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --executor processes "
        "(default: one per node)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the full report record as JSON",
    )
    parser.add_argument(
        "--collapsed", type=Path, default=None, metavar="PATH",
        help="also write collapsed-stack lines (flamegraph.pl / speedscope "
        "input)",
    )


def _add_monitor(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "monitor",
        help="tail a run's metrics.jsonl: sweep rate, loglik trend, ETA",
    )
    parser.add_argument(
        "metrics", type=Path,
        help="metrics.jsonl written by 'cold train --metrics-out' "
        "(or a checkpointed fit's default <ckpt-dir>/metrics.jsonl)",
    )
    parser.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling until the run's fit_end record appears "
        "(default: print one summary and exit)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval for --follow (default: 2s)",
    )
    parser.add_argument(
        "--window", type=int, default=20, metavar="N",
        help="trailing sweep window for rate/trend estimates (default: 20)",
    )
    parser.add_argument(
        "--max-updates", type=int, default=None, metavar="N",
        help="stop --follow after N render cycles even if the run "
        "has not finished (for scripts)",
    )
    parser.add_argument(
        "--serving", action="store_true",
        help="read the file as a serving metrics stream ('cold serve "
        "--metrics-out'): qps, latency quantiles, shed/breaker state, "
        "staleness, SLO burn",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="read the file as a streaming-trainer metrics stream "
        "('cold stream --metrics-out'): update rate, publish cadence, "
        "event-to-publish freshness; combine with --serving for the "
        "unified train+serve dashboard over one shared file",
    )


def _add_serve(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="serve a trained model's predictions over HTTP",
        description="Boot the resilient prediction server on a saved "
        "model: JSON endpoints for retweet/link/timestamp/influential "
        "queries plus /healthz, /readyz, and /metrics; every request gets "
        "a deadline and a bounded admission queue (overload sheds with "
        "503 + Retry-After).  SIGHUP or POST /v1/admin/reload hot-swaps "
        "the model after validating it (rolls back on failure); "
        "SIGTERM/SIGINT drain in-flight requests and exit cleanly.",
        parents=[_telemetry_parent()],
    )
    parser.add_argument("model", type=Path, help="model path (no suffix)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 picks a free one)"
    )
    parser.add_argument(
        "--deadline-ms", type=int, default=2000, metavar="MS",
        help="default per-request deadline; clients may lower it per "
        "request via a deadline_ms body field or X-Deadline-Ms header",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="concurrent requests executing (default: 8)",
    )
    parser.add_argument(
        "--max-waiting", type=int, default=16, metavar="N",
        help="requests allowed to wait for a slot; beyond this they are "
        "shed immediately (default: 16)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive degenerate results that open the circuit "
        "breaker (default: 3)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="SECONDS",
        help="cooldown before the open breaker lets a probe through",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="hot-user fold cache entries (default: 1024)",
    )
    parser.add_argument(
        "--top-comm", type=int, default=5, metavar="S",
        help="TopComm truncation of retweet scoring (default: 5)",
    )
    parser.add_argument(
        "--ic-simulations", type=int, default=100, metavar="N",
        help="Monte-Carlo runs per influential-community query",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=2.0, metavar="SECONDS",
        help="cadence of --metrics-out serving snapshots (default: 2s)",
    )
    parser.add_argument(
        "--slo-availability", type=float, default=0.999, metavar="TARGET",
        help="availability objective tracked on /metrics and /readyz "
        "(default: 0.999)",
    )
    parser.add_argument(
        "--slo-latency-ms", type=float, default=500.0, metavar="MS",
        help="latency objective threshold: requests slower than this "
        "count against the latency SLO (default: 500ms)",
    )


def _add_stream(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "stream",
        help="continuous operation: bootstrap fit + incremental updates",
        description="Read an event JSONL (see 'cold generate --events'), "
        "bootstrap-fit COLD on its head, then fold the remaining events "
        "in batches via windowed incremental Gibbs.  Every publish "
        "interval the current model is published atomically to "
        "--publish-dir (MANIFEST.json written last); with --serve an "
        "in-process prediction server hot-swaps on every publish, "
        "event-driven (no polling).",
        parents=[
            _dims_parent(communities=4, topics=6),
            _seed_parent(),
            _telemetry_parent(),
        ],
    )
    parser.add_argument("events", type=Path, help="event JSONL path")
    parser.add_argument(
        "model", type=Path, help="final model output path (no suffix)"
    )
    parser.add_argument(
        "--publish-dir", type=Path, default=None,
        help="directory for published model generations "
        "(default: MODEL.pub)",
    )
    parser.add_argument(
        "--bootstrap-fraction", type=float, default=0.5, metavar="F",
        help="fraction of events used for the initial batch fit "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=200, metavar="N",
        help="events folded per incremental update (default: 200)",
    )
    parser.add_argument(
        "--iterations", type=int, default=100,
        help="Gibbs sweeps for the bootstrap fit (default: 100)",
    )
    parser.add_argument(
        "--update-sweeps", type=int, default=8, metavar="N",
        help="windowed sweeps per incremental update (default: 8)",
    )
    parser.add_argument(
        "--window-posts", type=int, default=512, metavar="N",
        help="recent-post tail resampled alongside new posts",
    )
    parser.add_argument(
        "--window-links", type=int, default=512, metavar="N",
        help="recent-link tail resampled alongside new links",
    )
    parser.add_argument(
        "--publish-interval", type=int, default=1, metavar="N",
        help="publish a model generation every N updates (default: 1)",
    )
    parser.add_argument(
        "--rollover", choices=["grow", "clamp", "error"], default="grow",
        help="time-grid policy for events past the fitted span: 'grow' "
        "appends slices (psi gets prior-mass columns), 'clamp' bins "
        "into the last slice, 'error' rejects the increment",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="directory for streaming checkpoints "
        "(default: MODEL.ckpt when checkpointing is on)",
    )
    parser.add_argument(
        "--checkpoint-every-updates", type=int, default=None, metavar="N",
        help="write an atomic lineage checkpoint every N updates",
    )
    parser.add_argument(
        "--time-slices", type=int, default=24,
        help="time-grid resolution of the bootstrap corpus (default: 24)",
    )
    parser.add_argument(
        "--min-posts", type=int, default=1, metavar="N",
        help="bootstrap low-activity filter: drop users with fewer posts",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also serve predictions in-process, hot-swapping on publish",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port for --serve (0 picks a free one)",
    )


def _add_diagnose(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "diagnose",
        help="convergence verdict for a run (R-hat, ESS, Geweke, quality)",
        description="Read per-chain metrics (a chains directory written "
        "by 'cold train --chains', or one or more metrics.jsonl files) "
        "and print a convergence report.  Exits 0 when every tracked "
        "quantity is converged, 1 otherwise, 2 on bad inputs.",
    )
    parser.add_argument(
        "source", type=Path, nargs="+",
        help="a chains directory / chains.json manifest, or metrics.jsonl "
        "file(s) — one per chain",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--discard", type=float, default=0.5, metavar="FRACTION",
        help="warm-up fraction dropped from the front of every chain "
        "before computing statistics (default: 0.5)",
    )
    parser.add_argument(
        "--rhat-threshold", type=float, default=1.1, metavar="X",
        help="split-R-hat above this flags 'not converged' (default: 1.1)",
    )
    parser.add_argument(
        "--ess-min", type=float, default=10.0, metavar="N",
        help="effective sample size below this is 'inconclusive' "
        "(default: 10)",
    )
    parser.add_argument(
        "--geweke-threshold", type=float, default=2.0, metavar="Z",
        help="single-chain Geweke |z| above this flags 'not converged' "
        "(default: 2)",
    )
    parser.add_argument(
        "--min-samples", type=int, default=8, metavar="N",
        help="fewer post-warm-up samples than this is itself "
        "'not converged' (default: 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cold",
        description="COLD: Community Level Diffusion Extraction (SIGMOD'15)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_train(subparsers)
    _add_analyze(subparsers)
    _add_report(subparsers)
    _add_predict(subparsers)
    _add_bench(subparsers)
    _add_profile(subparsers)
    _add_monitor(subparsers)
    _add_diagnose(subparsers)
    _add_serve(subparsers)
    _add_stream(subparsers)
    return parser


@contextlib.contextmanager
def _graceful_interrupts() -> Iterator[Callable[[], bool]]:
    """SIGINT/SIGTERM set a stop flag instead of raising mid-sweep.

    Yields the flag poll; the fit loop checks it at sweep boundaries and
    raises :class:`TrainingInterrupted` with consistent state (writing a
    final checkpoint when enabled).  Previous handlers are restored on
    exit so a hung post-interrupt phase can still be killed normally.
    """
    stop = threading.Event()

    def handler(signum: int, frame: object) -> None:
        stop.set()

    previous = [
        (sig, signal.signal(sig, handler))
        for sig in (signal.SIGINT, signal.SIGTERM)
    ]
    try:
        yield stop.is_set
    finally:
        for sig, old in previous:
            signal.signal(sig, old)


def _report_interrupt(exc: TrainingInterrupted, args: argparse.Namespace) -> int:
    """One-line interrupt report + resume hint; exit code 3."""
    print(f"interrupted: {exc}", file=sys.stderr)
    if exc.checkpoint is not None:
        print(
            f"resume with: cold train {args.corpus} {args.model} "
            f"--resume {exc.checkpoint}",
            file=sys.stderr,
        )
    return 3


def _cmd_generate(args: argparse.Namespace) -> int:
    rates = {}
    if args.posts_per_user is not None:
        rates["mean_posts_per_user"] = args.posts_per_user
    if args.words_per_post is not None:
        rates["mean_words_per_post"] = args.words_per_post
    if args.links_per_user is not None:
        rates["mean_links_per_user"] = args.links_per_user
    config = SyntheticConfig(
        num_users=args.users,
        num_communities=args.communities,
        num_topics=args.topics,
        num_time_slices=args.time_slices,
        vocab_size=args.vocab,
        themed=args.themed,
        seed=args.seed,
        **rates,
    )
    if args.packed:
        if args.events:
            raise SyntheticError("--packed and --events are mutually exclusive")
        from .datasets.synthetic import generate_packed_corpus

        corpus, _truth = generate_packed_corpus(config, path=args.output)
        size_mb = args.output.stat().st_size / (1024 * 1024)
        print(f"wrote {corpus} ({size_mb:.1f} MB)")
        corpus.close()
        return 0
    corpus, _truth = generate_corpus(config)
    if args.events:
        from .streaming import corpus_to_events, write_events

        count = write_events(args.output, corpus_to_events(corpus))
        print(f"wrote {count} event(s) from {corpus} -> {args.output}")
        return 0
    save_corpus(corpus, args.output)
    print(f"wrote {corpus} -> {args.output}")
    return 0


def _load_train_corpus(args: argparse.Namespace):
    corpus = load_corpus(args.corpus)
    if getattr(args, "verify_corpus", False):
        from .datasets.packed import PackedCorpus

        if isinstance(corpus, PackedCorpus):
            corpus.verify()
            print(f"verified {corpus.path}: all column checksums match")
        else:
            print("corpus is JSONL (fully parsed on load); nothing to verify")
    return corpus


def _cmd_train(args: argparse.Namespace) -> int:
    if args.log_level is not None:
        configure_logging(level=args.log_level, fmt=args.log_format)
    parallel = args.nodes > 1 or args.executor != "simulated"
    if args.chains is not None:
        if args.resume is not None or args.checkpoint_every is not None:
            raise ModelError(
                "--chains does not combine with --resume/--checkpoint-every"
            )
        if args.nodes > 1:
            raise ModelError(
                "--chains runs serial per-chain fits; drop --nodes "
                "(chains already run concurrently across processes)"
            )
        return _train_chains(args)
    if args.resume is not None:
        if parallel:
            raise EngineError(
                "--resume only supports serial fits "
                "(--nodes 1, --executor simulated)"
            )
        corpus = _load_train_corpus(args)
        print(f"resuming from {args.resume}")
        with _graceful_interrupts() as stop_requested:
            try:
                model = COLDModel.resume(
                    args.resume, corpus=corpus, stop_requested=stop_requested
                )
            except TrainingInterrupted as exc:
                return _report_interrupt(exc, args)
        _report_degeneracy(model)
        model.save(args.model)
        print(f"saved model -> {args.model}.json / .npz")
        return 0

    corpus = _load_train_corpus(args)
    print(f"training on {corpus}")
    checkpoint_every = args.checkpoint_every
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_every is not None and checkpoint_dir is None:
        checkpoint_dir = args.model.with_suffix(".ckpt")
    if checkpoint_every is not None and parallel:
        raise EngineError(
            "--checkpoint-every only supports serial fits "
            "(--nodes 1, --executor simulated)"
        )
    fast = not args.reference_kernels
    if parallel:
        sampler = ParallelCOLDSampler(
            num_communities=args.communities,
            num_topics=args.topics,
            num_nodes=args.nodes,
            include_network=not args.no_network,
            seed=args.seed,
            fast=fast,
            executor=args.executor,
            num_workers=args.workers,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        ).fit(corpus, num_iterations=args.iterations)
        model = COLDModel(
            num_communities=args.communities,
            num_topics=args.topics,
            include_network=not args.no_network,
            seed=args.seed,
            fast=fast,
            executor=args.executor,
            num_nodes=args.nodes,
            num_workers=args.workers,
        )
        model.estimates_ = sampler.estimates_
        model.hyperparameters = sampler.hyperparameters
        model.cluster_report_ = sampler.report_
        print(
            f"parallel fit on {args.nodes} node(s) "
            f"[{args.executor} executor]: "
            f"{sampler.training_seconds():.2f}s cluster time, "
            f"speedup {sampler.speedup():.2f}x"
        )
        model.monitor_ = sampler.monitor_
        _report_degeneracy(model)
    else:
        with _graceful_interrupts() as stop_requested:
            try:
                model = COLDModel(
                    num_communities=args.communities,
                    num_topics=args.topics,
                    include_network=not args.no_network,
                    seed=args.seed,
                    fast=fast,
                    metrics_out=args.metrics_out,
                    trace_out=args.trace_out,
                ).fit(
                    corpus,
                    num_iterations=args.iterations,
                    checkpoint_every=checkpoint_every,
                    checkpoint_dir=checkpoint_dir,
                    stop_requested=stop_requested,
                )
            except TrainingInterrupted as exc:
                return _report_interrupt(exc, args)
        if checkpoint_every is not None:
            print(f"checkpoints every {checkpoint_every} sweeps -> {checkpoint_dir}")
        _report_degeneracy(model)
    model.save(args.model)
    print(f"saved model -> {args.model}.json / .npz")
    return 0


def _train_chains(args: argparse.Namespace) -> int:
    """``cold train --chains K``: multi-chain fit + best-chain model."""
    from .core.config import COLDConfig
    from .diagnostics import run_chains

    corpus = load_corpus(args.corpus)
    chains_dir = args.chains_dir
    if chains_dir is None:
        chains_dir = args.model.with_suffix(".chains")
    config = COLDConfig(
        num_communities=args.communities,
        num_topics=args.topics,
        include_network=not args.no_network,
        seed=args.seed,
        fast=not args.reference_kernels,
        num_iterations=args.iterations,
    )
    print(f"training {args.chains} chain(s) on {corpus}")
    result = run_chains(
        corpus,
        config,
        num_chains=args.chains,
        out_dir=chains_dir,
        executor="serial" if args.chains == 1 else "processes",
        num_workers=args.workers,
        stride=args.diag_stride,
    )
    for chain in result.chains:
        likelihood = chain.final_log_likelihood
        shown = "n/a" if likelihood is None else f"{likelihood:.1f}"
        print(
            f"chain {chain.chain_id} (seed {chain.seed}): "
            f"final log-likelihood {shown}, "
            f"{chain.quality_records} quality record(s) -> {chain.metrics}"
        )
    best = result.best_chain()
    model = COLDModel(config.evolve(seed=best.seed))
    model.estimates_ = best.load_estimates()
    model.save(args.model)
    print(f"saved best chain (chain {best.chain_id}) -> {args.model}.json / .npz")
    print(f"chains manifest -> {result.manifest}")
    print(f"next: cold diagnose {result.directory}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .diagnostics import diagnose

    source = args.source[0] if len(args.source) == 1 else list(args.source)
    report = diagnose(
        source,
        discard=args.discard,
        rhat_threshold=args.rhat_threshold,
        ess_min=args.ess_min,
        geweke_threshold=args.geweke_threshold,
        min_samples=args.min_samples,
    )
    print(report.to_json() if args.as_json else report.render())
    return 0 if report.verdict == "converged" else 1


def _report_degeneracy(model: COLDModel) -> None:
    """Surface the uniform-fallback tally so numerical collapse is visible."""
    monitor = model.monitor_
    if monitor is not None and monitor.degenerate_draws:
        print(
            f"warning: {monitor.degenerate_draws} degenerate categorical "
            "draws fell back to uniform (numerical underflow); inspect "
            "hyperparameters if this number is large"
        )


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = COLDModel.load(args.model)
    corpus = load_corpus(args.corpus)
    estimates = model.estimates_
    assert estimates is not None
    print(f"== word cloud of topic {args.topic} ==")
    print(
        word_cloud(
            top_words(estimates, args.topic, corpus.vocabulary, size=args.top_words)
        )
    )
    print(f"\n== diffusion graph of topic {args.topic} ==")
    graph = extract_diffusion_graph(estimates, args.topic)
    print(diffusion_graph_summary(graph))
    print(f"\n== influential communities at topic {args.topic} ==")
    influence = community_influence(estimates, args.topic, num_simulations=100)
    print(pentagon_summary(pentagon_embedding(estimates, influence)))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = COLDModel.load(args.model)
    corpus = load_corpus(args.corpus)
    estimates = model.estimates_
    assert estimates is not None
    split = post_splits(corpus, num_folds=args.folds, seed=args.seed)[0]
    curve = accuracy_curve(
        lambda post: predict_timestamp(estimates, post),
        split.test,
        args.tolerances,
    )
    for tolerance, accuracy in zip(args.tolerances, curve):
        print(f"tolerance {tolerance:>3}: accuracy {accuracy:.3f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import build_report

    model = COLDModel.load(args.model)
    corpus = load_corpus(args.corpus)
    assert model.estimates_ is not None
    report = build_report(model.estimates_, corpus, topic=args.topic)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report)
        print(f"wrote report -> {args.output}")
    else:
        print(report)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import (
        DIAGNOSTICS_BENCHMARK,
        GIBBS_BENCHMARK,
        MEDIUM,
        SMOKE,
        resolve_baseline,
        write_benchmark,
        write_diagnostics_benchmark,
    )

    if args.diagnostics:
        suite, default_cases, default_output = (
            DIAGNOSTICS_BENCHMARK, ["medium"], "BENCH_diagnostics.json"
        )
    else:
        suite, default_cases, default_output = (
            GIBBS_BENCHMARK, ["smoke", "medium"], "BENCH_gibbs.json"
        )
    available = {"smoke": SMOKE, "medium": MEDIUM}
    case_names = args.cases if args.cases is not None else default_cases
    cases = tuple(available[name] for name in dict.fromkeys(case_names))
    output = args.output if args.output is not None else Path(default_output)
    # Read the baseline *before* the run overwrites the snapshot at the
    # output path (the default baseline when no --baseline given); from a
    # ledger, take only this suite's records.
    baseline = (
        resolve_baseline(args.baseline, output, benchmark=suite)
        if args.compare
        else None
    )
    print(f"benchmarking {len(cases)} case(s): {', '.join(c.name for c in cases)}")

    if args.diagnostics:
        # A stride-10 stream over 20 sweeps meters two stride periods.
        payload = write_diagnostics_benchmark(
            output,
            cases=cases,
            sweeps=20,
            reps=args.reps,
            stride=10,
            equivalence_sweeps=2,
        )
        for record in payload["cases"]:
            print(
                f"{record['name']:>8}: "
                f"{record['off_seconds_per_sweep']*1e3:.1f}ms plain -> "
                f"{record['on_seconds_per_sweep']*1e3:.1f}ms streaming "
                f"at stride {record['stride']}, "
                f"overhead {record['overhead_fraction']:+.1%}, "
                f"draws_match={record['draws_match']}, "
                f"peak rss {record['peak_rss_mb']:.0f}MB"
            )
        return _bench_finish(payload, output, args, baseline)

    payload = write_benchmark(
        output,
        cases=cases,
        warmup=args.warmup,
        reps=args.reps,
        sweeps_per_rep=args.sweeps_per_rep,
    )
    for record in payload["cases"]:
        print(
            f"{record['name']:>8}: {record['reference_seconds_per_sweep']*1e3:.1f}ms"
            f" -> {record['fast_seconds_per_sweep']*1e3:.1f}ms per sweep, "
            f"speedup {record['speedup']:.2f}x, "
            f"draws_match={record['draws_match']}, "
            f"peak rss {record['peak_rss_mb']:.0f}MB"
        )
    return _bench_finish(payload, output, args, baseline)


def _bench_finish(
    payload: dict,
    output: Path,
    args: argparse.Namespace,
    baseline: dict | None,
) -> int:
    """Ledger append + baseline comparison shared by every bench suite."""
    from .perf import (
        DEFAULT_COMPARE_THRESHOLD,
        DEFAULT_HISTORY_PATH,
        append_history,
        compare_benchmarks,
        comparison_regressed,
        machine_fingerprint,
        render_comparison,
    )

    print(f"wrote benchmark -> {output}")
    if not args.no_history:
        history = args.history if args.history is not None else DEFAULT_HISTORY_PATH
        append_history(payload, history)
        print(f"appended run to ledger -> {history}")
    if not args.compare:
        return 0
    if baseline is None:
        spec = args.baseline if args.baseline is not None else str(output)
        print(f"no baseline found at {spec}; nothing to compare")
        return 0
    base_machine = baseline.get("machine")
    if base_machine is not None and base_machine != machine_fingerprint():
        print(
            "warning: baseline was recorded on a different machine; "
            "verdicts may reflect hardware, not code"
        )
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_COMPARE_THRESHOLD
    )
    verdicts = compare_benchmarks(payload, baseline, threshold=threshold)
    print(render_comparison(verdicts))
    if args.strict and comparison_regressed(verdicts):
        print("error: benchmark regression detected", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .perf import MEDIUM, SMOKE, run_profile_case
    from .telemetry.profiler import render_profile_report

    if args.sweeps <= 0:
        raise TelemetryError("--sweeps must be positive")
    case = {"smoke": SMOKE, "medium": MEDIUM}[args.case]
    label = (
        "serial kernels"
        if args.executor == "serial"
        else f"{args.executor} executor, {args.nodes} node(s)"
    )
    print(f"profiling {case.name} case: {args.sweeps} sweep(s), {label}")
    record = run_profile_case(
        case,
        sweeps=args.sweeps,
        warmup=args.warmup,
        executor=args.executor,
        nodes=args.nodes,
        num_workers=args.workers,
    )
    print(render_profile_report(record))
    if record["utilization"] is not None:
        util = record["utilization"]
        print(
            f"workers: busy {util['busy_fraction']:.0%} of sweep wall, "
            f"straggler ratio {util['straggler_ratio']:.2f}x"
        )
    memory = record["memory"]
    print(
        f"memory: peak rss {memory['rss_peak_mb']:.0f}MB, "
        f"{memory['major_page_faults']} major page fault(s)"
    )
    if args.json is not None:
        args.json.write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote profile json -> {args.json}")
    if args.collapsed is not None:
        args.collapsed.write_text(record["collapsed"], encoding="utf-8")
        print(f"wrote collapsed stacks -> {args.collapsed}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    if args.interval <= 0:
        raise TelemetryError("--interval must be positive")
    if not args.follow and not args.metrics.exists():
        raise FileNotFoundError(f"no metrics file at {args.metrics}")
    if args.serving and args.stream:
        mode = "combined"
    elif args.serving:
        mode = "serving"
    elif args.stream:
        mode = "stream"
    else:
        mode = "train"
    _monitor_metrics(
        args.metrics,
        follow=args.follow,
        interval=args.interval,
        window=args.window,
        max_updates=args.max_updates,
        mode=mode,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ColdHTTPServer, ServerConfig
    from .telemetry import TelemetrySession

    if args.log_level is not None:
        configure_logging(level=args.log_level, fmt=args.log_format)
    telemetry = TelemetrySession(trace_path=args.trace_out).activate()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        max_waiting=args.max_waiting,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
        cache_size=args.cache_size,
        top_comm_size=args.top_comm,
        ic_simulations=args.ic_simulations,
        metrics_out=args.metrics_out,
        metrics_interval_seconds=args.metrics_interval,
        slo_availability_target=args.slo_availability,
        slo_latency_ms=args.slo_latency_ms,
    )
    server = ColdHTTPServer(config, model_path=args.model)
    checks = server.engine.self_check()
    print(f"model {args.model}: self-check ok {checks}", flush=True)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    server.install_signal_handlers()
    try:
        server.serve_until_shutdown()
    finally:
        telemetry.close()
        if args.trace_out is not None:
            print(f"wrote trace -> {args.trace_out}", flush=True)
    print("drained cleanly")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.config import StreamConfig
    from .datasets.stream import CorpusStreamBuilder, PostEvent
    from .streaming import ModelWatcher, OnlineTrainer, read_events, split_events

    if args.log_level is not None:
        configure_logging(level=args.log_level, fmt=args.log_format)
    events = read_events(args.events)
    bootstrap, remainder = split_events(events, args.bootstrap_fraction)
    builder = CorpusStreamBuilder(
        num_time_slices=args.time_slices, min_posts_per_user=args.min_posts
    )
    for event in bootstrap:
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)
    corpus = builder.build(incremental=True)
    print(f"bootstrap: {len(bootstrap)}/{len(events)} event(s) -> {corpus}")

    checkpoint_interval = args.checkpoint_every_updates
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_interval is not None and checkpoint_dir is None:
        checkpoint_dir = args.model.with_suffix(".ckpt")
    stream_config = StreamConfig(
        window_posts=args.window_posts,
        window_links=args.window_links,
        update_sweeps=args.update_sweeps,
        publish_interval=args.publish_interval,
        rollover=args.rollover,
        checkpoint_interval=checkpoint_interval,
    )
    model = COLDModel(
        num_communities=args.communities,
        num_topics=args.topics,
        seed=args.seed,
        trace_out=args.trace_out,
        stream=stream_config,
    )
    with _graceful_interrupts() as stop_requested:
        try:
            model.fit(
                corpus,
                num_iterations=args.iterations,
                stop_requested=stop_requested,
            )
        except TrainingInterrupted as exc:
            return _report_interrupt(exc, args)
    _report_degeneracy(model)

    publish_dir = args.publish_dir
    if publish_dir is None:
        publish_dir = args.model.with_suffix(".pub")
    trainer = OnlineTrainer(
        model,
        builder,
        publish_dir=publish_dir,
        checkpoint_dir=checkpoint_dir,
        metrics_out=args.metrics_out,
    )
    trainer.subscribe(
        lambda generation, path: print(
            f"published generation {generation} -> {path.name}", flush=True
        )
    )
    trainer.publish()

    server = None
    server_thread = None
    if args.serve:
        from .serving import ColdHTTPServer, ServerConfig

        # The in-process server appends to the same metrics JSONL as the
        # trainer (full-line appends + flush keep interleavings intact),
        # which is what 'cold monitor --serving --stream' reads back as
        # one unified train+serve dashboard.
        server_config = ServerConfig(
            host=args.host, port=args.port, metrics_out=args.metrics_out
        )
        stem = publish_dir / f"model-{trainer.generation:06d}"
        server = ColdHTTPServer(server_config, model_path=stem)
        watcher = ModelWatcher(server, publish_dir)
        # The boot generation is already live; only later publishes swap.
        watcher.seen_generation = trainer.generation

        def hot_swap(generation: int, path: Path) -> None:
            if watcher.poke():
                print(f"reloaded generation {generation}", flush=True)

        trainer.subscribe(hot_swap)
        server_thread = threading.Thread(
            target=server.serve_until_shutdown,
            name="cold-stream-serve",
            daemon=True,
        )
        server_thread.start()
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port}", flush=True)

    exit_code = 0
    with _graceful_interrupts() as stop_requested:
        for start in range(0, len(remainder), args.batch_size):
            if stop_requested():
                print("interrupted: stopping at batch boundary", file=sys.stderr)
                exit_code = 3
                break
            trainer.feed(remainder[start:start + args.batch_size])
            report = trainer.step()
            if report is not None:
                print(
                    f"update {report.update_index}: "
                    f"+{report.new_posts} post(s) +{report.new_links} link(s) "
                    f"+{report.new_users} user(s) +{report.new_terms} term(s) "
                    f"+{report.new_slices} slice(s), "
                    f"window {report.window_posts}, "
                    f"{report.seconds:.2f}s, "
                    f"loglik {report.log_likelihood:.1f}"
                )
        else:
            trainer.drain()
    trainer.close()
    model.save(args.model)
    print(f"saved model -> {args.model}.json / .npz")
    if server is not None:
        server.begin_drain()
        assert server_thread is not None
        server_thread.join(timeout=10)
    print("drained cleanly")
    return exit_code


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "monitor": _cmd_monitor,
    "diagnose": _cmd_diagnose,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Typed failures (missing/corrupt inputs, invalid checkpoints, bad
    configs) print a one-line ``error: <Type>: <message>`` to stderr and
    exit with code 2 instead of dumping a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TrainingInterrupted as exc:
        # Fallback for interrupts surfacing outside _cmd_train's handler.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # Paths without cooperative stop support (parallel fits, chains):
        # a clean one-liner instead of a traceback.
        print("error: interrupted", file=sys.stderr)
        return 130
    except _CLI_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
