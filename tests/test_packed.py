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

import hashlib

import numpy as np
import pytest

from repro.core.model import COLDModel, ModelError
from repro.core.state import CountState, PostTable
from repro.datasets.corpus import CorpusValidationError, SocialCorpus
from repro.datasets import packed as packed_module
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


#: The end-to-end benchmark's MEDIUM world (600 users, ~4.9K posts of
#: ~40 words, ~1.8K links); at seed 7 it packs to :data:`MEDIUM_SHA256`.
MEDIUM_WORLD = SyntheticConfig(
    num_users=600,
    num_communities=10,
    num_topics=20,
    num_time_slices=12,
    vocab_size=2000,
    mean_posts_per_user=8.0,
    mean_words_per_post=40.0,
    mean_links_per_user=3.0,
    seed=7,
)
MEDIUM_SHA256 = "e59f1f597e97fd9403ebc8010fe2f8550d9acc8c1278e92ca95331bbfabae67f"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


class TestByteIdentity:
    """The ``.coldpack`` bytes are part of the format: both writers, at
    any flush size, write exactly the pinned file."""

    def test_medium_world_packs_to_pinned_sha256(self, tmp_path):
        packed, _truth = generate_packed_corpus(
            MEDIUM_WORLD, path=tmp_path / "gen.coldpack"
        )
        packed.close()
        assert _sha256(tmp_path / "gen.coldpack") == MEDIUM_SHA256
        corpus, _truth = generate_corpus(MEDIUM_WORLD)
        written = write_packed(corpus, tmp_path / "ram.coldpack")
        assert _sha256(written) == MEDIUM_SHA256

    def test_many_flushes_write_the_same_bytes(self, tmp_path):
        for chunk_tokens, name in ((1 << 20, "one.coldpack"), (64, "many.coldpack")):
            packed, _truth = generate_packed_corpus(
                SMALL, path=tmp_path / name, chunk_tokens=chunk_tokens
            )
            packed.close()
        assert (tmp_path / "one.coldpack").read_bytes() == (
            tmp_path / "many.coldpack"
        ).read_bytes()

    def test_one_row_adapters_write_the_same_bytes(
        self, small_corpus, packed_path, tmp_path
    ):
        writer = PackedCorpusWriter(
            tmp_path / "rows.coldpack",
            num_users=small_corpus.num_users,
            num_time_slices=small_corpus.num_time_slices,
            vocab_size=small_corpus.vocab_size,
            vocabulary=small_corpus.vocabulary,
            chunk_tokens=64,
        )
        for post in small_corpus.posts:
            writer.add_post(post.author, post.timestamp, post.words)
        for src, dst in small_corpus.links:
            writer.add_link(src, dst)
        assert writer.finalize().read_bytes() == packed_path.read_bytes()

    @pytest.mark.parametrize("chunk_tokens", [64, 1 << 20])
    def test_caller_may_reuse_its_arrays_after_the_call(
        self, small_corpus, packed_path, tmp_path, chunk_tokens
    ):
        """Batches go in as the caller's own int64 arrays, which the
        caller overwrites after each call: a buffered batch must have
        been copied, whether it is spooled later or at finalize."""
        writer = PackedCorpusWriter(
            tmp_path / "reused.coldpack",
            num_users=small_corpus.num_users,
            num_time_slices=small_corpus.num_time_slices,
            vocab_size=small_corpus.vocab_size,
            vocabulary=small_corpus.vocabulary,
            chunk_tokens=chunk_tokens,
        )
        ends = small_corpus.token_offsets
        for lo in range(0, small_corpus.num_posts, 7):
            hi = min(lo + 7, small_corpus.num_posts)
            columns = [
                small_corpus.post_authors[lo:hi].copy(),
                small_corpus.post_times[lo:hi].copy(),
                np.diff(ends[lo:hi + 1]),
                small_corpus.tokens[ends[lo]:ends[hi]].copy(),
            ]
            writer.add_post_columns(*columns)
            for column in columns:
                column[:] = 0
        writer.add_links(small_corpus.link_array())
        assert writer.finalize().read_bytes() == packed_path.read_bytes()


    def test_spooled_pieces_stay_within_chunk_tokens(self, tmp_path, monkeypatch):
        """The buffer is spooled before a batch would take it past
        ``chunk_tokens``, so every spooled piece fits, unless one batch
        alone is larger."""
        pieces = []
        spool_append = packed_module._ColumnSpool.append

        def recording(spool, values):
            if spool.name == "tokens":
                pieces.append(len(values))
            spool_append(spool, values)

        monkeypatch.setattr(packed_module._ColumnSpool, "append", recording)
        writer = PackedCorpusWriter(
            tmp_path / "w.coldpack", num_users=1, num_time_slices=1,
            vocab_size=10, chunk_tokens=10,
        )
        for length in (4, 4, 4, 12, 1, 9, 2):
            writer.add_post_columns([0], [0], [length], np.arange(length) % 10)
        writer.finalize()
        assert pieces == [8, 4, 12, 10, 2]


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


class TestColumnarValidation:
    """``add_post_columns``/``add_links`` check a whole batch first: the
    first bad post in post order raises, numbered from ``num_posts``, and
    a rejected batch leaves no trace."""

    @pytest.fixture()
    def writer(self, tmp_path):
        writer = PackedCorpusWriter(
            tmp_path / "cols.coldpack", num_users=3, num_time_slices=4,
            vocab_size=10,
        )
        writer.add_post(0, 0, [1, 2])
        writer.add_post(1, 1, [3])
        yield writer
        writer.abort()

    @staticmethod
    def _batch(bad_row: int, **bad):
        authors, times, lengths = [0, 1, 2, 0], [0, 1, 2, 3], [2, 1, 3, 1]
        words = [[1, 2], [3], [4, 5, 4], [9]]
        for column, value in bad.items():
            {"author": authors, "time": times, "words": words}[column][bad_row] = value
        lengths = [len(w) for w in words]
        return authors, times, lengths, [w for post in words for w in post]

    @pytest.mark.parametrize("row", [0, 2, 3])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"author": 3}, "author 3 out of range"),
            ({"author": -1}, "author -1 out of range"),
            ({"time": 4}, "timestamp 4 out of range"),
            ({"words": [2, 10, -1]}, "word id 10 out of range"),
            ({"words": [2, -1, 10]}, "word id -1 out of range"),
        ],
    )
    def test_bad_row_named_from_num_posts(self, writer, row, bad, message):
        with pytest.raises(CorpusValidationError, match=rf"^post {2 + row}: {message}"):
            writer.add_post_columns(*self._batch(row, **bad))

    def test_first_bad_post_in_post_order_wins(self, writer):
        authors, times, lengths, words = self._batch(3, author=7)
        words[0] = 11  # post 2 (row 0): a bad word before row 3's author
        with pytest.raises(CorpusValidationError, match=r"^post 2: word id 11 "):
            writer.add_post_columns(authors, times, lengths, words)
        # Within a post, the author check comes before the word check.
        authors[0] = 5
        with pytest.raises(CorpusValidationError, match=r"^post 2: author 5 "):
            writer.add_post_columns(authors, times, lengths, words)

    def test_empty_post_in_batch_rejected(self, writer):
        with pytest.raises(PackedCorpusError, match=r"^post 3: posts must contain"):
            writer.add_post_columns(
                np.array([0, 1, 2]), np.array([0, 0, 0]), np.array([1, 0, 2]),
                np.array([4, 5, 6]),
            )

    def test_inconsistent_columns_rejected(self, writer):
        with pytest.raises(PackedCorpusError, match="lengths summing"):
            writer.add_post_columns([0, 1], [0, 0], [1, 1], [4, 5, 6])
        with pytest.raises(PackedCorpusError, match="one author, time"):
            writer.add_post_columns([0, 1], [0], [1, 1], [4, 5])

    def test_rejected_batch_leaves_no_trace(self, writer):
        before = (writer.num_posts, writer.num_tokens, writer.num_links)
        with pytest.raises(CorpusValidationError):
            writer.add_post_columns(*self._batch(3, time=9))
        with pytest.raises(CorpusValidationError):
            writer.add_links(np.array([[0, 1], [1, 3]]))
        with pytest.raises(PackedCorpusError):
            writer.add_links(np.array([[0, 1], [2, 2]]))
        assert (writer.num_posts, writer.num_tokens, writer.num_links) == before
        writer.add_post_columns(*self._batch(0))
        with pytest.raises(CorpusValidationError, match=r"^post 6: author 3 "):
            writer.add_post(3, 0, [1])
        writer.add_links(np.array([[0, 1], [2, 0]]))
        with PackedCorpus.open(writer.finalize(), verify=True) as packed:
            assert packed.num_posts == 6
            assert packed.posts[2].words == (1, 2)
            assert packed.posts[4].words == (4, 5, 4)
            assert packed.post_table().words_of(4)[1].tolist() == [2, 1]
            assert list(packed.links) == [(0, 1), (2, 0)]

    def test_array_links_validated(self, writer):
        with pytest.raises(CorpusValidationError, match=r"link \(1, 3\) has dangling"):
            writer.add_links(np.array([[0, 1], [1, 3], [2, 2]]))
        with pytest.raises(CorpusValidationError, match=r"link \(-1, 0\) has dangling"):
            writer.add_links(np.array([[0, 1], [-1, 0]]))
        with pytest.raises(PackedCorpusError, match=r"self-link \(2, 2\)"):
            writer.add_links(np.array([[0, 1], [2, 2], [1, 3]]))
        with pytest.raises(PackedCorpusError, match=r"self-link \(1, 1\)"):
            writer.add_links([(0, 2), (1, 1)])
        assert writer.num_links == 0


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
