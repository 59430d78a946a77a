"""Atomic file writes and versioned, checksummed sampler checkpoints.

Atomicity
---------
All durable artefacts (models, corpora, checkpoints) are written through
:func:`atomic_write`: the payload goes to a temp file in the *same
directory* (same filesystem, so the final rename cannot cross devices),
is flushed and fsynced, then moved over the destination with
``os.replace`` — POSIX-atomic, so a crash mid-save never leaves a
half-written artefact; readers see either the old file or the new one.

Checkpoint format
-----------------
A checkpoint is a pair of files in the checkpoint directory::

    cold-00000042.npz            # all numpy arrays (counters, assignments, ...)
    cold-00000042.manifest.json  # schema version, iteration, sha256, metadata

The manifest is written *after* the data file and carries the SHA-256 of
the data file's bytes, so the loader can detect truncated or corrupted
payloads.  :func:`load_checkpoint` on a directory walks checkpoints newest
first and falls back to the next valid one when a checksum or schema check
fails, raising :class:`CheckpointError` (with per-file reasons) only when
nothing valid remains.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

#: Bump on any incompatible change to the checkpoint contents.
CHECKPOINT_SCHEMA_VERSION = 1

_MANIFEST_SUFFIX = ".manifest.json"
_DATA_SUFFIX = ".npz"
_NAME_PATTERN = re.compile(r"^cold-(\d{8})\.manifest\.json$")


class CheckpointError(RuntimeError):
    """Raised for missing, corrupted, or incompatible checkpoints."""


# -- atomic writes -------------------------------------------------------------


@contextmanager
def atomic_write(path: str | Path) -> Iterator[Path]:
    """Yield a temp path that atomically replaces ``path`` on success.

    The temp file lives next to the destination (same suffix, so writers
    like ``np.savez`` that key on the extension behave identically); on any
    exception it is removed and the destination is left untouched.

    I/O failures anywhere in the write — a full disk (``ENOSPC``) while
    the caller writes the temp file, a failed fsync, a failed rename —
    surface as :class:`CheckpointError` naming the *target* path, so a
    caller's error report points at the artefact that was lost, not at an
    anonymous temp file.  Non-I/O exceptions from the caller's write code
    propagate unchanged (the temp file is still cleaned up).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp" + path.suffix
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        yield tmp
        with open(tmp, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise CheckpointError(
            f"atomic write to {path} failed ({type(exc).__name__}: {exc}); "
            "temp file removed, destination untouched"
        ) from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically write ``data`` to ``path``."""
    with atomic_write(path) as tmp:
        tmp.write_bytes(data)


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Atomically write ``text`` to ``path``."""
    atomic_write_bytes(path, text.encode(encoding))


# -- checkpoint store ----------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def checkpoint_name(iteration: int) -> str:
    """Canonical stem for the checkpoint of Gibbs sweep ``iteration``."""
    return f"cold-{iteration:08d}"


def save_checkpoint(
    directory: str | Path,
    iteration: int,
    arrays: dict[str, np.ndarray],
    meta: dict,
) -> Path:
    """Write one atomic checkpoint; returns the manifest path.

    ``arrays`` are persisted to the uncompressed ``.npz`` data file
    (compressed ones still load), ``meta`` (any JSON-serialisable
    mapping — model config, RNG state, fit settings) to the manifest.
    The data file is written and checksummed before the manifest, so a
    manifest's existence implies its payload was complete at write time.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = checkpoint_name(iteration)
    data_path = directory / (stem + _DATA_SUFFIX)
    with atomic_write(data_path) as tmp:
        with tmp.open("wb") as handle:
            np.savez(handle, **arrays)
    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "iteration": int(iteration),
        "data_file": data_path.name,
        "sha256": _sha256(data_path),
        "meta": meta,
    }
    manifest_path = directory / (stem + _MANIFEST_SUFFIX)
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    return manifest_path


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Manifest paths in ``directory``, newest (highest iteration) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: list[tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _NAME_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found, reverse=True)]


def _load_one(manifest_path: Path) -> tuple[dict[str, np.ndarray], dict, int]:
    """Load and verify a single checkpoint given its manifest path."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path}: manifest is not an object")
    version = manifest.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{manifest_path}: schema version {version!r} is not "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    for key in ("iteration", "data_file", "sha256", "meta"):
        if key not in manifest:
            raise CheckpointError(f"{manifest_path}: manifest missing {key!r}")
    data_path = manifest_path.parent / manifest["data_file"]
    if not data_path.is_file():
        raise CheckpointError(f"{manifest_path}: data file {data_path.name} missing")
    checksum = _sha256(data_path)
    if checksum != manifest["sha256"]:
        raise CheckpointError(
            f"{manifest_path}: checksum mismatch for {data_path.name} "
            f"(expected {manifest['sha256'][:12]}..., got {checksum[:12]}...)"
        )
    try:
        with np.load(data_path) as data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError, KeyError) as exc:
        raise CheckpointError(f"{data_path}: unreadable data file: {exc}") from exc
    return arrays, manifest["meta"], int(manifest["iteration"])


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict, int]:
    """Load a checkpoint; returns ``(arrays, meta, iteration)``.

    ``path`` may be a manifest file, its ``.npz`` data file, or a checkpoint
    *directory*.  Given a directory, checkpoints are tried newest first and
    the first valid one wins; corrupted or truncated candidates are skipped
    (their failure reasons are collected into the final error if nothing
    valid remains).
    """
    path = Path(path)
    if path.is_dir():
        manifests = list_checkpoints(path)
        if not manifests:
            raise CheckpointError(f"{path}: no checkpoints found")
        reasons: list[str] = []
        for manifest_path in manifests:
            try:
                return _load_one(manifest_path)
            except CheckpointError as exc:
                reasons.append(str(exc))
        raise CheckpointError(
            f"{path}: no valid checkpoint among {len(manifests)} candidates: "
            + "; ".join(reasons)
        )
    if path.name.endswith(_MANIFEST_SUFFIX):
        return _load_one(path)
    if path.suffix == _DATA_SUFFIX:
        manifest_path = path.with_name(
            path.name[: -len(_DATA_SUFFIX)] + _MANIFEST_SUFFIX
        )
        if not manifest_path.is_file():
            raise CheckpointError(f"{path}: no manifest {manifest_path.name}")
        return _load_one(manifest_path)
    raise CheckpointError(f"{path}: not a checkpoint directory, manifest, or data file")
