"""Checkpoint/resume: atomicity, checksums, fallback, bit-identical chains."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import zipfile

import numpy as np
import pytest

from repro.core.model import COLDModel
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    atomic_write,
    atomic_write_bytes,
    atomic_write_text,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)


class _Killed(RuntimeError):
    """Stand-in for a crash/preemption mid-fit."""


def _fit_kwargs():
    return dict(num_iterations=14, burn_in=7, sample_interval=2,
                likelihood_interval=5)


def _fresh_model():
    return COLDModel(num_communities=3, num_topics=4, prior="scaled", seed=42)


@pytest.fixture(scope="module")
def uninterrupted(tiny_corpus):
    return _fresh_model().fit(tiny_corpus, **_fit_kwargs())


@pytest.fixture()
def killed_checkpoint_dir(tiny_corpus, tmp_path):
    """Checkpoint directory of a fit killed at sweep 9 (newest ckpt: 6)."""
    ckdir = tmp_path / "ck"

    def killer(iteration, model):
        if iteration == 9:
            raise _Killed

    with pytest.raises(_Killed):
        _fresh_model().fit(
            tiny_corpus,
            **_fit_kwargs(),
            callback=killer,
            checkpoint_every=3,
            checkpoint_dir=ckdir,
        )
    return ckdir


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_crash_mid_write_preserves_previous_artifact(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write_bytes(target, b"intact")
        with pytest.raises(RuntimeError, match="disk died"):
            with atomic_write(target) as tmp:
                tmp.write_bytes(b"half-writ")
                raise RuntimeError("disk died")
        assert target.read_bytes() == b"intact"

    def test_no_temp_files_leak(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "payload")
        with pytest.raises(RuntimeError):
            with atomic_write(target):
                raise RuntimeError
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "down" / "a.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"


class TestAtomicWriteDiskFull:
    """ENOSPC anywhere in the write -> CheckpointError naming the target,
    temp file removed, previous artefact untouched."""

    @staticmethod
    def _enospc(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    def test_enospc_on_rename_is_wrapped(self, tmp_path, monkeypatch):
        target = tmp_path / "model.npz"
        atomic_write_bytes(target, b"previous")
        monkeypatch.setattr(os, "replace", self._enospc)
        with pytest.raises(CheckpointError) as excinfo:
            with atomic_write(target) as tmp:
                tmp.write_bytes(b"next")
        message = str(excinfo.value)
        assert str(target) in message, "error must name the target artefact"
        assert "ENOSPC" in message or "No space left" in message
        assert isinstance(excinfo.value.__cause__, OSError)
        # Previous artefact intact, no temp residue.
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_enospc_in_caller_write_is_wrapped(self, tmp_path):
        target = tmp_path / "model.npz"
        atomic_write_bytes(target, b"previous")

        class FullDisk:
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(CheckpointError) as excinfo:
            with atomic_write(target):
                FullDisk().write(b"next")
        assert str(target) in str(excinfo.value)
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_enospc_on_fsync_is_wrapped(self, tmp_path, monkeypatch):
        target = tmp_path / "model.npz"
        atomic_write_bytes(target, b"previous")
        monkeypatch.setattr(os, "fsync", self._enospc)
        with pytest.raises(CheckpointError):
            with atomic_write(target) as tmp:
                tmp.write_bytes(b"next")
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_save_checkpoint_surfaces_disk_full(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "replace", self._enospc)
        with pytest.raises(CheckpointError):
            save_checkpoint(
                tmp_path, 1, {"a": np.zeros(3, dtype=np.int64)}, {"k": "v"}
            )
        # Nothing half-written: no data file without a manifest, no temps.
        assert list(tmp_path.iterdir()) == []

    def test_non_io_errors_propagate_unwrapped(self, tmp_path):
        # The contract from test_crash_mid_write...: only OSError is
        # wrapped; caller bugs keep their own type.
        with pytest.raises(ValueError, match="caller bug"):
            with atomic_write(tmp_path / "a.txt"):
                raise ValueError("caller bug")


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.ones(4)}
        meta = {"answer": 42, "nested": {"rho": 0.5}}
        save_checkpoint(tmp_path, 7, arrays, meta)
        loaded, got_meta, iteration = load_checkpoint(tmp_path)
        assert iteration == 7
        assert got_meta == meta
        assert np.array_equal(loaded["a"], arrays["a"])

    def test_data_file_is_uncompressed(self, tmp_path):
        save_checkpoint(tmp_path, 1, {"a": np.arange(100)}, {})
        with zipfile.ZipFile(tmp_path / "cold-00000001.npz") as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_compressed_data_file_still_loads(self, tmp_path):
        """A checkpoint whose data file was written compressed, as
        checkpoints were before, loads with its manifest's checksum."""
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.ones(4)}
        manifest_path = save_checkpoint(tmp_path, 4, arrays, {"k": 1})
        data_path = tmp_path / "cold-00000004.npz"
        np.savez_compressed(data_path, **arrays)
        manifest = json.loads(manifest_path.read_text())
        manifest["sha256"] = hashlib.sha256(data_path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        loaded, meta, iteration = load_checkpoint(tmp_path)
        assert (iteration, meta) == (4, {"k": 1})
        for name, array in arrays.items():
            np.testing.assert_array_equal(loaded[name], array)

    def test_newest_wins(self, tmp_path):
        for it in (3, 9, 6):
            save_checkpoint(tmp_path, it, {"x": np.array([it])}, {})
        _, _, iteration = load_checkpoint(tmp_path)
        assert iteration == 9
        assert [p.name for p in list_checkpoints(tmp_path)] == [
            "cold-00000009.manifest.json",
            "cold-00000006.manifest.json",
            "cold-00000003.manifest.json",
        ]

    def test_corrupted_newest_falls_back(self, tmp_path):
        save_checkpoint(tmp_path, 3, {"x": np.array([3])}, {})
        save_checkpoint(tmp_path, 6, {"x": np.array([6])}, {})
        (tmp_path / "cold-00000006.npz").write_bytes(b"corrupted!")
        arrays, _, iteration = load_checkpoint(tmp_path)
        assert iteration == 3
        assert arrays["x"][0] == 3

    def test_truncated_newest_falls_back(self, tmp_path):
        save_checkpoint(tmp_path, 3, {"x": np.array([3])}, {})
        save_checkpoint(tmp_path, 6, {"x": np.array([6])}, {})
        data = tmp_path / "cold-00000006.npz"
        data.write_bytes(data.read_bytes()[:-20])
        _, _, iteration = load_checkpoint(tmp_path)
        assert iteration == 3

    def test_all_corrupted_raises_typed_error(self, tmp_path):
        save_checkpoint(tmp_path, 3, {"x": np.array([3])}, {})
        (tmp_path / "cold-00000003.npz").write_bytes(b"junk")
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(tmp_path)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            load_checkpoint(tmp_path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        manifest_path = save_checkpoint(tmp_path, 3, {"x": np.array([3])}, {})
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        manifest["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(manifest_path)

    def test_load_by_manifest_and_data_path(self, tmp_path):
        manifest_path = save_checkpoint(tmp_path, 5, {"x": np.array([5])}, {})
        data_path = tmp_path / "cold-00000005.npz"
        for path in (manifest_path, data_path):
            _, _, iteration = load_checkpoint(path)
            assert iteration == 5

    def test_unparseable_manifest_raises(self, tmp_path):
        manifest_path = save_checkpoint(tmp_path, 2, {"x": np.array([2])}, {})
        manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(manifest_path)


class TestKillAndResume:
    def test_resumed_chain_is_bit_identical(
        self, uninterrupted, killed_checkpoint_dir, tiny_corpus
    ):
        resumed = COLDModel.resume(killed_checkpoint_dir, corpus=tiny_corpus)
        assert np.array_equal(uninterrupted.theta_, resumed.theta_)
        assert np.array_equal(uninterrupted.phi_, resumed.phi_)
        assert np.array_equal(uninterrupted.pi_, resumed.pi_)
        assert np.array_equal(uninterrupted.psi_, resumed.psi_)
        assert np.array_equal(uninterrupted.eta_, resumed.eta_)

    def test_resumed_chain_matches_sweep_for_sweep(self, tiny_corpus, tmp_path):
        # Per-sweep checkpoints let us compare the full sampler state of
        # the resumed chain against the uninterrupted one at every sweep.
        ref_dir = tmp_path / "reference"
        _fresh_model().fit(
            tiny_corpus, **_fit_kwargs(),
            checkpoint_every=1, checkpoint_dir=ref_dir,
        )

        killed_dir = tmp_path / "killed"

        def killer(iteration, model):
            if iteration == 9:
                raise _Killed

        with pytest.raises(_Killed):
            _fresh_model().fit(
                tiny_corpus, **_fit_kwargs(), callback=killer,
                checkpoint_every=1, checkpoint_dir=killed_dir,
            )
        COLDModel.resume(killed_dir, corpus=tiny_corpus)

        for sweep_no in range(9, 15):  # every sweep after the kill point
            ref_arrays, _, _ = load_checkpoint(
                ref_dir / f"cold-{sweep_no:08d}.manifest.json"
            )
            res_arrays, _, _ = load_checkpoint(
                killed_dir / f"cold-{sweep_no:08d}.manifest.json"
            )
            for name in (
                "n_user_comm", "n_comm_topic", "n_comm_topic_time",
                "n_topic_word", "n_topic_total", "n_link_comm",
                "post_comm", "post_topic", "link_src_comm", "link_dst_comm",
            ):
                assert np.array_equal(ref_arrays[name], res_arrays[name]), (
                    f"sweep {sweep_no}: {name} diverged"
                )

    def test_final_state_and_trace_match(
        self, uninterrupted, killed_checkpoint_dir, tiny_corpus
    ):
        resumed = COLDModel.resume(killed_checkpoint_dir, corpus=tiny_corpus)
        for name in (
            "n_user_comm", "n_comm_topic", "n_comm_topic_time",
            "n_topic_word", "n_topic_total", "n_link_comm",
            "post_comm", "post_topic", "link_src_comm", "link_dst_comm",
        ):
            assert np.array_equal(
                getattr(uninterrupted.state_, name),
                getattr(resumed.state_, name),
            ), name
        assert uninterrupted.monitor_.trace == resumed.monitor_.trace

    def test_resume_is_self_contained_without_corpus(self, killed_checkpoint_dir):
        resumed = COLDModel.resume(killed_checkpoint_dir)
        assert resumed.fitted
        assert resumed.corpus_ is None

    def test_resume_falls_back_past_corrupted_checkpoint(
        self, uninterrupted, killed_checkpoint_dir, tiny_corpus
    ):
        newest = list_checkpoints(killed_checkpoint_dir)[0]
        data = killed_checkpoint_dir / newest.name.replace(".manifest.json", ".npz")
        data.write_bytes(b"bitrot")
        resumed = COLDModel.resume(killed_checkpoint_dir, corpus=tiny_corpus)
        assert np.array_equal(uninterrupted.theta_, resumed.theta_)

    def test_resume_keeps_checkpointing(self, killed_checkpoint_dir, tiny_corpus):
        COLDModel.resume(killed_checkpoint_dir, corpus=tiny_corpus)
        iterations = [
            int(p.name.split("-")[1].split(".")[0])
            for p in list_checkpoints(killed_checkpoint_dir)
        ]
        assert 9 in iterations and 12 in iterations

    def test_tampered_state_arrays_rejected(self, killed_checkpoint_dir):
        from repro.resilience.checkpoint import load_checkpoint as raw_load

        arrays, meta, iteration = raw_load(killed_checkpoint_dir)
        arrays["n_topic_total"] = arrays["n_topic_total"] + 1  # silently wrong
        save_checkpoint(killed_checkpoint_dir, iteration + 100, arrays, meta)
        with pytest.raises(CheckpointError, match="inconsistent"):
            COLDModel.resume(killed_checkpoint_dir)


class TestFitValidation:
    def test_checkpoint_every_requires_dir(self, tiny_corpus):
        from repro.core.model import ModelError

        with pytest.raises(ModelError, match="together"):
            _fresh_model().fit(tiny_corpus, num_iterations=2, checkpoint_every=1)

    def test_checkpoint_every_must_be_positive(self, tiny_corpus, tmp_path):
        from repro.core.model import ModelError

        with pytest.raises(ModelError, match="positive"):
            _fresh_model().fit(
                tiny_corpus, num_iterations=2,
                checkpoint_every=0, checkpoint_dir=tmp_path,
            )
