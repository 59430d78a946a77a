"""The run manifest: one ``run.json`` per fit, written at fit start.

Metrics and trace files are only useful if they are attributable to an
exact configuration; the manifest pins down everything needed to say
"*this* metrics.jsonl came from *that* run": the full model/fit config
and its stable hash, the seed, the executor topology, the package
version, interpreter/platform, and — when the working tree is a git
checkout — ``git describe`` output.  It is written *before* the first
sweep so even a crashed run leaves an attributable record.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import time
from pathlib import Path

from ..resilience.checkpoint import atomic_write_text

#: File name used when a directory is given.
MANIFEST_NAME = "run.json"


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-able config dict (order-insensitive)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_output(args: list[str], cwd: str | Path | None = None) -> str | None:
    """Stripped stdout of ``git <args>`` in ``cwd``; None on failure or no output."""
    try:
        result = subprocess.run(
            ["git", *args],
            cwd=None if cwd is None else str(cwd),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def git_describe(cwd: str | Path | None = None) -> str | None:
    """``git describe --always --dirty`` of ``cwd``, or None outside git."""
    return git_output(["describe", "--always", "--dirty", "--tags"], cwd)


def git_worktree(cwd: str | Path | None = None) -> str | None:
    """Content id of a dirty working tree, or None when it is clean.

    ``git describe --dirty`` names only the commit a dirty tree started
    from.  ``git stash create`` commits the tracked files' working state
    without moving any ref; its tree id depends on that content alone,
    so two runs of the same edits share it.  Untracked files are not
    part of it, as they are not part of ``--dirty``.
    """
    stash = git_output(["stash", "create"], cwd)
    if stash is None:
        return None
    return git_output(["rev-parse", f"{stash}^{{tree}}"], cwd)


def build_run_manifest(
    config: dict,
    seed: int,
    executor: str,
    num_nodes: int,
    num_workers: int | None,
    extra: dict | None = None,
) -> dict:
    """The JSON-ready manifest payload (separated from I/O for tests)."""
    from .. import __version__

    manifest = {
        "kind": "run_manifest",
        "created": round(time.time(), 6),
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "executor": executor,
        "num_nodes": num_nodes,
        "num_workers": num_workers,
        "package": {"name": "repro", "version": __version__},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_describe": git_describe(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_run_manifest(
    path: str | Path,
    config: dict,
    seed: int,
    executor: str = "simulated",
    num_nodes: int = 1,
    num_workers: int | None = None,
    extra: dict | None = None,
) -> Path:
    """Atomically write the manifest; ``path`` may be a directory.

    Returns the file actually written (``<dir>/run.json`` for a
    directory).  Atomic so a crash mid-write never leaves a torn manifest
    next to an otherwise-valid metrics file.
    """
    path = Path(path)
    if path.is_dir() or path.suffix == "":
        path = path / MANIFEST_NAME
    payload = build_run_manifest(
        config,
        seed=seed,
        executor=executor,
        num_nodes=num_nodes,
        num_workers=num_workers,
        extra=extra,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return path
