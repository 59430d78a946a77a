"""The packed out-of-core corpus format (:mod:`repro.datasets.packed`).

Three contracts under test:

* **round-trip fidelity** — packing a :class:`SocialCorpus` and mapping
  it back must preserve every read surface the samplers consume (posts,
  links, vocabulary, the columnar :class:`PostTable`), and the chunked
  generator must be bit-identical to the in-RAM path at equal seed;
* **fail loudly** — truncated files, corrupted headers, flipped data
  bytes, foreign magic, and future format versions all raise typed
  errors that name the offending path;
* **storage is not statistics** — mmap-backed fits draw the identical
  chain as in-RAM fits from the same seed, on both the ``simulated``
  oracle and the ``processes`` executor.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.model import COLDModel, ModelError
from repro.core.state import CountState, PostTable
from repro.datasets.corpus import CorpusValidationError, SocialCorpus
from repro.datasets.io import load_corpus
from repro.datasets.packed import (
    FORMAT_VERSION,
    MAGIC,
    PackedChecksumError,
    PackedCorpus,
    PackedCorpusError,
    PackedCorpusWriter,
    PackedFormatError,
    PackedVersionError,
    is_packed_file,
    write_packed,
)
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_corpus,
    generate_packed_corpus,
)
from repro.parallel.sampler import ParallelCOLDSampler

SMALL = SyntheticConfig(
    num_users=40,
    num_communities=4,
    num_topics=6,
    num_time_slices=8,
    vocab_size=300,
    mean_posts_per_user=4.0,
    mean_words_per_post=8.0,
    mean_links_per_user=2.0,
    seed=11,
)


@pytest.fixture(scope="module")
def small_corpus() -> SocialCorpus:
    corpus, _truth = generate_corpus(SMALL)
    return corpus


@pytest.fixture()
def packed_path(small_corpus, tmp_path):
    return write_packed(small_corpus, tmp_path / "small.coldpack")


class TestRoundTrip:
    def test_read_surface_matches_social_corpus(self, small_corpus, packed_path):
        with PackedCorpus.open(packed_path, verify=True) as packed:
            assert packed.describe() == small_corpus.describe()
            assert packed.link_set() == small_corpus.link_set()
            assert packed.vocabulary == small_corpus.vocabulary
            for original, loaded in zip(small_corpus.posts, packed.posts):
                assert original == loaded
            table = packed.post_table()
            reference = PostTable.from_corpus(small_corpus)
            for field in (
                "authors",
                "times",
                "lengths",
                "offsets",
                "unique_words",
                "unique_counts",
            ):
                assert np.array_equal(
                    getattr(table, field), getattr(reference, field)
                ), field
            assert np.array_equal(
                packed.word_count_matrix(), small_corpus.word_count_matrix()
            )

    def test_to_social_corpus_round_trips(self, small_corpus, packed_path):
        with PackedCorpus.open(packed_path) as packed:
            social = packed.to_social_corpus()
        assert social.posts == small_corpus.posts
        assert social.links == small_corpus.links
        assert social.vocabulary == small_corpus.vocabulary

    def test_mmap_arrays_are_read_only(self, packed_path):
        with PackedCorpus.open(packed_path) as packed:
            with pytest.raises(ValueError):
                packed.post_authors[0] = 99

    def test_load_corpus_sniffs_packed_files(self, packed_path):
        assert is_packed_file(packed_path)
        corpus = load_corpus(packed_path)
        assert isinstance(corpus, PackedCorpus)
        corpus.close()

    def test_chunked_generator_matches_in_ram_generator(self, tmp_path):
        ram_corpus, ram_truth = generate_corpus(SMALL)
        # chunk_tokens far below the corpus total forces many spool flushes.
        packed, truth = generate_packed_corpus(
            SMALL, path=tmp_path / "gen.coldpack", chunk_tokens=64
        )
        with packed:
            assert np.array_equal(truth.pi, ram_truth.pi)
            assert packed.describe() == ram_corpus.describe()
            assert list(packed.posts) == ram_corpus.posts
            assert packed.link_set() == ram_corpus.link_set()
            assert packed.vocabulary == ram_corpus.vocabulary


class TestWriterValidation:
    def test_rejects_out_of_range_ids_at_build_time(self, tmp_path):
        writer = PackedCorpusWriter(
            tmp_path / "bad.coldpack", num_users=3, num_time_slices=4,
            vocab_size=10,
        )
        with pytest.raises(CorpusValidationError, match="author"):
            writer.add_post(3, 0, [1, 2])
        with pytest.raises(CorpusValidationError, match="timestamp"):
            writer.add_post(0, 4, [1, 2])
        with pytest.raises(CorpusValidationError, match="word"):
            writer.add_post(0, 0, [10])
        with pytest.raises(CorpusValidationError, match="link"):
            writer.add_link(0, 3)
        writer.abort()
        assert not (tmp_path / "bad.coldpack").exists()


class TestWriterPosts:
    def test_error_names_first_bad_word_in_post_order(self, tmp_path):
        writer = PackedCorpusWriter(
            tmp_path / "bad.coldpack", num_users=2, num_time_slices=2,
            vocab_size=10,
        )
        writer.add_post(0, 0, [1])
        for words in ([3, 12, -1, 10], np.array([3, 12, -1, 10])):
            with pytest.raises(CorpusValidationError, match=r"post 1: word id 12 "):
                writer.add_post(1, 1, words)
        with pytest.raises(CorpusValidationError, match="word id -4 "):
            writer.add_post(1, 1, (2, -4, 99))
        # Rejected posts leave no trace: the next post is still post 1.
        writer.add_post(1, 1, np.array([4, 2, 4], dtype=np.uint8))
        with PackedCorpus.open(writer.finalize()) as packed:
            assert packed.num_posts == 2
            assert packed.posts[1].words == (4, 2, 4)


class TestCorruptionDetection:
    def test_truncated_file_names_path(self, packed_path):
        data = packed_path.read_bytes()
        packed_path.write_bytes(data[:12])
        with pytest.raises(PackedFormatError, match=packed_path.name):
            PackedCorpus.open(packed_path)

    def test_corrupted_header_byte_names_path(self, packed_path):
        data = bytearray(packed_path.read_bytes())
        data[24] ^= 0xFF  # inside the JSON header, past the 20-byte prefix
        packed_path.write_bytes(bytes(data))
        with pytest.raises(PackedChecksumError, match=packed_path.name):
            PackedCorpus.open(packed_path)

    def test_flipped_data_byte_fails_verify(self, packed_path):
        data = bytearray(packed_path.read_bytes())
        data[-1] ^= 0xFF  # last byte of the last data column
        packed_path.write_bytes(bytes(data))
        corpus = PackedCorpus.open(packed_path)  # lazy open stays cheap
        with pytest.raises(PackedChecksumError, match=packed_path.name):
            corpus.verify()
        corpus.close()
        with pytest.raises(PackedChecksumError):
            PackedCorpus.open(packed_path, verify=True)

    def test_foreign_magic_rejected(self, packed_path):
        data = bytearray(packed_path.read_bytes())
        data[:len(MAGIC)] = b"NOTAPACK"
        packed_path.write_bytes(bytes(data))
        assert not is_packed_file(packed_path)
        with pytest.raises(PackedFormatError, match=packed_path.name):
            PackedCorpus.open(packed_path)

    def test_future_version_rejected(self, packed_path):
        data = bytearray(packed_path.read_bytes())
        data[len(MAGIC)] = FORMAT_VERSION + 1  # little-endian low byte
        packed_path.write_bytes(bytes(data))
        with pytest.raises(PackedVersionError, match=str(FORMAT_VERSION + 1)):
            PackedCorpus.open(packed_path)

    def test_closed_corpus_refuses_reads(self, packed_path):
        corpus = PackedCorpus.open(packed_path)
        corpus.close()
        with pytest.raises(PackedCorpusError):
            corpus.post_table()


class TestDrawIdentity:
    def test_countstate_initialize_matches(self, small_corpus, packed_path):
        with PackedCorpus.open(packed_path) as packed:
            rng_a = np.random.default_rng(5)
            rng_b = np.random.default_rng(5)
            ram = CountState.initialize(small_corpus, 4, 6, rng_a)
            mapped = CountState.initialize(packed, 4, 6, rng_b)
        assert np.array_equal(ram.post_comm, mapped.post_comm)
        assert np.array_equal(ram.post_topic, mapped.post_topic)
        assert np.array_equal(ram.n_comm_topic_time, mapped.n_comm_topic_time)
        assert np.array_equal(ram.link_src_comm, mapped.link_src_comm)

    @pytest.mark.parametrize("executor", ["simulated", "processes"])
    def test_fit_draws_identical_chain(self, small_corpus, packed_path, executor):
        states = []
        with PackedCorpus.open(packed_path) as packed:
            for corpus in (small_corpus, packed):
                sampler = ParallelCOLDSampler(
                    num_communities=4,
                    num_topics=6,
                    num_nodes=2,
                    executor=executor,
                    num_workers=2 if executor == "processes" else None,
                    seed=13,
                    fast=True,
                ).fit(corpus, num_iterations=2)
                states.append(sampler.state_)
        ram, mapped = states
        assert np.array_equal(ram.post_comm, mapped.post_comm)
        assert np.array_equal(ram.post_topic, mapped.post_topic)
        assert np.array_equal(ram.link_src_comm, mapped.link_src_comm)
        assert np.array_equal(ram.link_dst_comm, mapped.link_dst_comm)
        assert ram.degenerate_draws == mapped.degenerate_draws


class TestVerifyCorpusFlag:
    def _train_args(self, corpus_path, model_path):
        return [
            "train", str(corpus_path), str(model_path),
            "--communities", "4", "--topics", "6",
            "--iterations", "2", "--seed", "5", "--verify-corpus",
        ]

    def test_clean_packed_corpus_verifies_and_trains(
        self, packed_path, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(self._train_args(packed_path, tmp_path / "model")) == 0
        out = capsys.readouterr().out
        assert "all column checksums match" in out

    def test_corrupt_packed_corpus_exits_2_before_training(
        self, packed_path, tmp_path, capsys
    ):
        from repro.cli import main

        data = bytearray(packed_path.read_bytes())
        data[-1] ^= 0xFF
        packed_path.write_bytes(bytes(data))
        code = main(self._train_args(packed_path, tmp_path / "model"))
        captured = capsys.readouterr()
        assert code == 2
        assert "PackedChecksumError" in captured.err
        assert not (tmp_path / "model.json").exists()

    def test_jsonl_corpus_is_a_noop(self, small_corpus, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.io import save_corpus

        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, corpus_path)
        assert main(self._train_args(corpus_path, tmp_path / "model")) == 0
        assert "nothing to verify" in capsys.readouterr().out


class TestModelIntegration:
    def test_update_refuses_packed_corpus(self, packed_path):
        with PackedCorpus.open(packed_path) as packed:
            model = COLDModel(num_communities=4, num_topics=6, seed=0)
            model.fit(packed, num_iterations=2)
            with pytest.raises(ModelError, match="packed"):
                model.update([])
