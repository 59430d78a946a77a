"""Phase profiler for the training hot path.

``repro.telemetry`` can already tell you *that* a sweep took 0.8s; this
module answers *where it went*.  A :class:`PhaseProfiler` accumulates
inclusive wall seconds under hierarchical phase paths (tuples of names,
e.g. ``("sweep", "posts", "draw")``) and renders them as a per-phase
attribution table or as collapsed-stack lines any flamegraph tool
understands.

The profiler is one sink of the shared timing core
(:mod:`repro.telemetry.timing`): :func:`phase` regions are timed there,
against one stack of open phases per thread, and added here — so the
dark path costs one global read, and concurrent ``threads`` shards each
nest under their own phases.  Two further contracts matter more here
than anywhere else in the telemetry layer:

* **never touch the RNG** — phases only read ``time.perf_counter``, so a
  profiled fit draws a chain bit-identical to a dark fit (enforced by
  ``benchmarks/perf/test_profiler_overhead.py``);
* **stay out of the inner loop** — the fast sweep kernel accumulates phase
  seconds into local floats and flushes once per sweep via :meth:`add`;
  the context-manager form is for per-superstep granularity (cache
  refresh, merge, dispatch), not per-document work.

Worker processes mirror the parent's active profiler and ship
:meth:`drain` output back in their timing payload; the parent folds it
in with :meth:`absorb` under a ``worker`` prefix, so concurrent worker
time never masquerades as parent wall time in the attribution math (see
:func:`build_profile_report`).
"""

from __future__ import annotations

import sys
import threading
from typing import Iterable

from . import timing
from .timing import get_profiler, phase, set_profiler

__all__ = [
    "CONCURRENT_ROOTS",
    "PhaseProfiler",
    "build_profile_report",
    "compare_profiles",
    "escape_phase",
    "get_profiler",
    "memory_gauges",
    "parse_collapsed",
    "phase",
    "render_collapsed",
    "render_profile_report",
    "set_profiler",
    "unescape_phase",
    "worker_utilization",
]

PhasePath = tuple[str, ...]

#: Top-level phase trees whose seconds ran *concurrently* with the parent
#: (worker processes overlap the parent's ``dispatch`` window), so they are
#: excluded from the wall-time attribution sum and reported separately.
CONCURRENT_ROOTS: tuple[str, ...] = ("worker",)


class PhaseProfiler:
    """Accumulates inclusive wall seconds per hierarchical phase path.

    A sink of the timing core: :meth:`phase` regions nest on the calling
    thread's stack, and every write (:meth:`add`, :meth:`absorb`,
    :meth:`drain`) takes one lock, so concurrent ``threads`` shards and
    the parent's dispatch threads absorbing worker replies are safe.
    :meth:`add` takes absolute or stack-relative paths and is what the
    inlined kernels use.
    """

    def __init__(self) -> None:
        self._phases: dict[PhasePath, list[float]] = {}
        self._lock = threading.Lock()

    def add(
        self,
        path: str | PhasePath,
        seconds: float,
        count: int = 1,
        relative: bool = False,
    ) -> None:
        """Record ``seconds`` of inclusive time under ``path``.

        ``relative=True`` prefixes this thread's open :meth:`phase` path.
        """
        if isinstance(path, str):
            path = (path,)
        if relative:
            path = self.current_path() + tuple(path)
        with self._lock:
            cell = self._phases.setdefault(tuple(path), [0.0, 0.0])
            cell[0] += count
            cell[1] += seconds

    def current_path(self) -> PhasePath:
        """This thread's open :meth:`phase` nesting as a path prefix."""
        return timing.current_path(self)

    def phase(self, name: str) -> timing.Region:
        """Time a nested phase; inclusive of any phases opened inside it."""
        return timing.Region(name, {}, None, self)

    def items(self) -> list[tuple[PhasePath, int, float]]:
        """``(path, count, seconds)`` triples, sorted by path."""
        with self._lock:
            return [
                (path, int(cell[0]), cell[1])
                for path, cell in sorted(self._phases.items())
            ]

    def seconds(self, path: str | PhasePath) -> float:
        if isinstance(path, str):
            path = (path,)
        cell = self._phases.get(tuple(path))
        return cell[1] if cell is not None else 0.0

    def drain(self) -> list[list[object]]:
        """Picklable ``[[path...], count, seconds]`` rows, then reset —
        one shard's worth per worker reply."""
        with self._lock:
            phases, self._phases = self._phases, {}
        return [
            [list(path), int(cell[0]), cell[1]]
            for path, cell in sorted(phases.items())
        ]

    def absorb(
        self,
        rows: Iterable[Iterable[object]],
        prefix: str | PhasePath = (),
    ) -> None:
        """Fold a :meth:`drain` payload into this profiler."""
        if isinstance(prefix, str):
            prefix = (prefix,)
        for path, count, seconds in rows:
            self.add(tuple(prefix) + tuple(path), float(seconds), int(count))

    def __len__(self) -> int:
        return len(self._phases)


# ---------------------------------------------------------------------------
# collapsed-stack rendering (flamegraph-compatible)
# ---------------------------------------------------------------------------

_ESCAPES = {
    "%": "%25",
    ";": "%3b",
    " ": "%20",
    "\t": "%09",
    "\n": "%0a",
    "\r": "%0d",
}


def escape_phase(name: str) -> str:
    """Percent-encode the characters the collapsed format reserves.

    ``;`` separates frames and whitespace separates the sample value, so
    both (and ``%`` itself) are escaped; everything else passes through.
    """
    if not any(ch in name for ch in _ESCAPES):
        return name
    out = name.replace("%", "%25")
    for ch, code in _ESCAPES.items():
        if ch != "%":
            out = out.replace(ch, code)
    return out


def unescape_phase(name: str) -> str:
    """Inverse of :func:`escape_phase`."""
    out = []
    i = 0
    while i < len(name):
        if name[i] == "%" and i + 3 <= len(name):
            try:
                out.append(chr(int(name[i + 1 : i + 3], 16)))
                i += 3
                continue
            except ValueError:
                pass
        out.append(name[i])
        i += 1
    return "".join(out)


def phase_key(path: Iterable[str]) -> str:
    """Join a path into an unambiguous ``;``-separated display key."""
    return ";".join(escape_phase(part) for part in path)


def parse_phase_key(key: str) -> PhasePath:
    """Inverse of :func:`phase_key`."""
    return tuple(unescape_phase(part) for part in key.split(";"))


def _self_seconds(
    rows: list[tuple[PhasePath, int, float]],
) -> list[tuple[PhasePath, float]]:
    """Inclusive → self time: each node minus its direct recorded children.

    Negative self time (timer jitter, or a child recorded without its
    parent's full window) clamps to zero so flamegraph tools never see a
    negative sample; the conservation property in the tests allows for
    the clamp plus integer rounding.
    """
    inclusive = {path: seconds for path, _count, seconds in rows}
    child_sum: dict[PhasePath, float] = {}
    for path in inclusive:
        # Charge each node to its *nearest recorded* ancestor: the tree
        # may skip levels (the sweep records ``sweep;posts;resample``
        # without a ``sweep;posts`` aggregate).
        for cut in range(len(path) - 1, 0, -1):
            ancestor = path[:cut]
            if ancestor in inclusive:
                child_sum[ancestor] = (
                    child_sum.get(ancestor, 0.0) + inclusive[path]
                )
                break
    return [
        (path, max(0.0, seconds - child_sum.get(path, 0.0)))
        for path, seconds in inclusive.items()
    ]


def render_collapsed(profiler: PhaseProfiler) -> str:
    """Collapsed-stack lines (``a;b;c <microseconds>``), self-time valued.

    Feed the output straight to ``flamegraph.pl`` / speedscope.  Values
    are integer microseconds of *self* time, so summing every line
    recovers (to rounding) the total of the root phases.
    """
    lines = []
    for path, self_s in sorted(_self_seconds(profiler.items())):
        micros = int(round(self_s * 1e6))
        if micros <= 0:
            continue
        lines.append(f"{phase_key(path)} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[PhasePath, int]:
    """Parse :func:`render_collapsed` output back to ``{path: microseconds}``."""
    stacks: dict[PhasePath, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            continue
        try:
            micros = int(value)
        except ValueError:
            continue
        path = parse_phase_key(key)
        stacks[path] = stacks.get(path, 0) + micros
    return stacks


# ---------------------------------------------------------------------------
# attribution report
# ---------------------------------------------------------------------------


def build_profile_report(
    profiler: PhaseProfiler,
    total_wall_seconds: float,
    sweeps: int,
) -> dict:
    """Aggregate a profiler into the per-sweep phase-attribution report.

    ``total_wall_seconds`` is the harness-measured wall time the phases
    should account for.  *Leaf* phases (no recorded descendant) outside
    the :data:`CONCURRENT_ROOTS` trees are the attribution set — parents
    double-count their children, and worker phases overlap the parent's
    dispatch window, so neither belongs in the sum.  Worker trees get
    their own ``worker_attributed_fraction`` against the workers' own
    ``shard`` wall.
    """
    rows = profiler.items()
    paths = {path for path, _c, _s in rows}

    def is_leaf(path: PhasePath) -> bool:
        probe = len(path)
        return not any(
            len(other) > probe and other[:probe] == path for other in paths
        )

    phases = []
    attributed = 0.0
    worker_leaf = 0.0
    worker_root = 0.0
    for path, count, seconds in rows:
        concurrent = path[0] in CONCURRENT_ROOTS
        leaf = is_leaf(path)
        phases.append(
            {
                "phase": phase_key(path),
                "seconds": round(seconds, 6),
                "count": count,
                "per_call_us": round(seconds / count * 1e6, 3) if count else 0.0,
                "fraction": (
                    round(seconds / total_wall_seconds, 4)
                    if total_wall_seconds > 0
                    else 0.0
                ),
                "leaf": leaf,
                "concurrent": concurrent,
            }
        )
        if concurrent:
            if len(path) == 2:  # ("worker", "shard")-style subtree root
                worker_root += seconds
            if leaf:
                worker_leaf += seconds
        elif leaf:
            attributed += seconds
    phases.sort(key=lambda row: row["seconds"], reverse=True)
    report = {
        "sweeps": sweeps,
        "total_wall_seconds": round(total_wall_seconds, 6),
        "seconds_per_sweep": (
            round(total_wall_seconds / sweeps, 6) if sweeps else 0.0
        ),
        "attributed_seconds": round(attributed, 6),
        "attributed_fraction": (
            round(attributed / total_wall_seconds, 4)
            if total_wall_seconds > 0
            else 0.0
        ),
        "phases": phases,
    }
    if worker_root > 0:
        report["worker_attributed_fraction"] = round(
            worker_leaf / worker_root, 4
        )
    return report


def render_profile_report(report: dict) -> str:
    """The human-readable attribution table ``cold profile`` prints."""
    width = max(
        [len(str(row["phase"])) for row in report["phases"]] + [len("phase")]
    )
    lines = [
        f"{'phase':<{width}}  {'seconds':>10}  {'count':>9}  "
        f"{'per-call':>10}  {'share':>6}"
    ]
    for row in report["phases"]:
        per_call = row["per_call_us"]
        per_call_text = (
            f"{per_call / 1e6:.3f}s" if per_call >= 1e6 else f"{per_call:.1f}us"
        )
        marker = "*" if row.get("concurrent") else " "
        lines.append(
            f"{row['phase']:<{width}}  {row['seconds']:>10.4f}  "
            f"{row['count']:>9d}  {per_call_text:>10}  "
            f"{row['fraction'] * 100:>5.1f}%{marker}"
        )
    lines.append(
        f"attributed {report['attributed_fraction'] * 100:.1f}% of "
        f"{report['total_wall_seconds']:.3f}s over {report['sweeps']} sweep(s)"
        f" ({report['seconds_per_sweep']:.4f}s/sweep)"
    )
    if "worker_attributed_fraction" in report:
        lines.append(
            "worker shards (concurrent, marked *): "
            f"{report['worker_attributed_fraction'] * 100:.1f}% of shard wall "
            "attributed"
        )
    return "\n".join(lines)


def compare_profiles(
    current: dict, baseline: dict, threshold: float = 0.25
) -> list[dict]:
    """Per-phase per-call verdicts between two attribution reports.

    Compares per-call seconds (total seconds would punish running more
    sweeps).  ``regressed`` means the phase slowed by more than
    ``threshold`` relative to baseline; ``improved`` the reverse.
    """
    base = {row["phase"]: row for row in baseline.get("phases", [])}
    verdicts = []
    for row in current.get("phases", []):
        other = base.get(row["phase"])
        if other is None or not other["per_call_us"]:
            continue
        ratio = row["per_call_us"] / other["per_call_us"]
        if ratio > 1.0 + threshold:
            verdict = "regressed"
        elif ratio < 1.0 - threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        verdicts.append(
            {
                "phase": row["phase"],
                "current_per_call_us": row["per_call_us"],
                "baseline_per_call_us": other["per_call_us"],
                "ratio": round(ratio, 4),
                "verdict": verdict,
            }
        )
    return verdicts


# ---------------------------------------------------------------------------
# utilization + memory gauges
# ---------------------------------------------------------------------------


def worker_utilization(
    node_seconds: list[float],
    node_compute_seconds: list[float],
    wall_seconds: float,
) -> dict:
    """Busy fraction and straggler ratio of one parallel superstep.

    ``busy_fraction`` is merged compute over the cluster's capacity for
    the superstep window (``nodes × wall``): 1.0 means every worker
    computed the whole time, low values mean workers idled at the barrier
    or the parent spent the window merging.  ``straggler_ratio`` is the
    slowest node over the *median* node — the paper-relevant imbalance
    number, robust to one fast outlier shard.
    """
    nodes = len(node_seconds)
    busy = 0.0
    if nodes and wall_seconds > 0:
        busy = sum(node_compute_seconds) / (nodes * wall_seconds)
    straggler = 1.0
    if nodes:
        ordered = sorted(node_seconds)
        mid = ordered[nodes // 2] if nodes % 2 else (
            (ordered[nodes // 2 - 1] + ordered[nodes // 2]) / 2.0
        )
        if mid > 0:
            straggler = ordered[-1] / mid
    return {
        "busy_fraction": round(busy, 4),
        "straggler_ratio": round(straggler, 4),
    }


def memory_gauges(include_children: bool = False) -> dict:
    """RSS high-water (MB) and major page faults from ``getrusage``.

    The mmap-era training gauges: a packed-corpus fit that starts
    thrashing shows up as climbing ``major_page_faults`` long before wall
    time degrades.  ``include_children`` folds in waited-for workers.
    Returns zeros on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return {"rss_peak_mb": 0.0, "major_page_faults": 0}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak = usage.ru_maxrss
    faults = usage.ru_majflt
    if include_children:
        child = resource.getrusage(resource.RUSAGE_CHILDREN)
        peak = max(peak, child.ru_maxrss)
        faults += child.ru_majflt
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return {
        "rss_peak_mb": round(peak / divisor, 2),
        "major_page_faults": int(faults),
    }
