"""The ``.coldpack`` on-disk corpus: packed columns behind one mmap.

:class:`SocialCorpus` keeps its columns in RAM, one copy per worker
process.  This module stores the same observed data as packed int64
columns in a single versioned, checksummed file and reads it back
through one read-only memory map:

* ``PackedCorpusWriter`` streams posts and links to disk in bounded
  memory.  Its one ingest path takes column batches —
  :meth:`~PackedCorpusWriter.add_post_columns` and ``(E, 2)`` link
  arrays — checked with vectorised id/length/link checks before any of
  a batch is buffered, with the unique-word CSR of
  :func:`~repro.core.state.unique_word_csr` and a running CRC32 per
  column.  The chunked synthetic generator hands it
  its draw columns directly, so it runs no Python per post, and so
  does ``write_packed`` with an in-RAM corpus's columns;
* ``PackedCorpus`` opens the file and exposes the shared corpus read
  surface (:class:`~repro.datasets.corpus.CorpusReads`) over zero-copy
  mmap views — including ``post_table()``, which hands the Gibbs
  samplers their :class:`~repro.core.state.PostTable` as views of the
  stored unique-word CSR;
* the ``processes`` executor maps node shards straight from the file
  (workers re-open it read-only), so dispatching a million-post corpus
  to N workers costs no pickling and no N-fold copy — the kernel page
  cache backs every process.

On-disk layout (all integers little-endian)::

    bytes 0..8    magic  b"COLDPACK"
    bytes 8..12   u32 format version
    bytes 12..16  u32 header JSON length
    bytes 16..20  u32 CRC32 of the header JSON
    bytes 20..    header JSON (dims, array layout, per-array CRC32)
    data_start..  64-byte-aligned array regions (offsets relative to
                  data_start — the ArraySpec convention of
                  :mod:`repro.parallel.shm`)

Columns: ``post_authors``/``post_times``/``post_lengths`` (D,), raw
``tokens`` (N,) with ``token_offsets`` (D+1,), the per-post unique-word
CSR ``unique_words``/``unique_counts`` with ``unique_offsets`` (D+1,) in
first-appearance order (bit-identical to ``Post.word_counts()``, which
is what makes a packed fit draw the same chain as an in-RAM one),
``links`` (E, 2), and the optional vocabulary as a UTF-8 blob plus
offsets.  The bytes do not depend on how the posts were batched or
flushed: the file is a function of the corpus alone.

Failure modes are typed and name the file: :class:`PackedFormatError`
for truncation or a foreign magic, :class:`PackedVersionError` for a
future format version, :class:`PackedChecksumError` for header or array
corruption (:meth:`PackedCorpus.verify` re-hashes every array in bounded
memory).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
import zlib
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from ..core.state import PostTable, unique_word_csr
from .corpus import (
    CorpusError,
    CorpusReads,
    CorpusValidationError,
    SocialCorpus,
    check_links,
    first_bad_post,
    int_ids,
    link_pairs,
    post_columns,
)
from .vocabulary import Vocabulary

#: First 8 bytes of every packed corpus file.
MAGIC = b"COLDPACK"

#: Current format version; bumped on any layout change.
FORMAT_VERSION = 1

#: Byte alignment of each array region (matches repro.parallel.shm).
_ALIGNMENT = 64

#: Bytes per chunk for streamed checksumming / spool copies.
_IO_CHUNK = 4 * 1024 * 1024

#: Posts per column slice that :meth:`PackedCorpusWriter.add_posts`
#: gathers from ``Post`` objects.
_GATHER_POSTS = 4096

#: ``(magic, version, header_len, header_crc)`` prefix.
_PREFIX = struct.Struct("<8sIII")

#: Fixed column order inside the data region.
_COLUMNS = (
    "post_authors",
    "post_times",
    "post_lengths",
    "token_offsets",
    "tokens",
    "unique_offsets",
    "unique_words",
    "unique_counts",
    "links",
    "vocab_offsets",
    "vocab_blob",
)

#: The per-post columns, in the order the writer buffers them.
_POST_COLUMNS = _COLUMNS[:8]


class PackedCorpusError(CorpusError):
    """Base error for the packed corpus format."""


class PackedFormatError(PackedCorpusError):
    """The file is not a readable coldpack: truncated, foreign magic,
    malformed header, or a layout that disagrees with the file size."""


class PackedVersionError(PackedFormatError):
    """The file's format version is not supported by this reader."""


class PackedChecksumError(PackedCorpusError):
    """A stored CRC32 (header or array) does not match the bytes read."""


def _align(offset: int) -> int:
    return -(-offset // _ALIGNMENT) * _ALIGNMENT


def _file_crc32(handle, start: int, length: int) -> int:
    """CRC32 of ``length`` bytes at ``start``, read in bounded chunks."""
    handle.seek(start)
    crc = 0
    remaining = length
    while remaining > 0:
        chunk = handle.read(min(_IO_CHUNK, remaining))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        remaining -= len(chunk)
    return crc & 0xFFFFFFFF


class _ColumnSpool:
    """One column streamed to a temp file in fixed-size flushes, with a
    running CRC32 of everything written."""

    def __init__(self, directory: Path, name: str, dtype: np.dtype) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self.path = directory / f"{name}.col"
        self._handle = open(self.path, "wb")
        self.items = 0
        self.crc = 0

    def append(self, values) -> None:
        array = np.ascontiguousarray(values, dtype=self.dtype)
        self.items += array.size
        self.crc = zlib.crc32(array, self.crc)
        array.tofile(self._handle)

    def finish(self) -> None:
        self._handle.close()

    @property
    def nbytes(self) -> int:
        return self.items * self.dtype.itemsize


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """The buffered arrays end to end; a lone one as it is, not copied."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class PackedCorpusWriter:
    """Stream a corpus into a ``.coldpack`` file in bounded memory.

    Posts arrive as column batches (:meth:`add_post_columns`; ``add_post``
    and ``add_posts`` are adapters over it) and links as ``(E, 2)``
    arrays (:meth:`add_links`).  Both are buffered as arrays, and the
    buffer is spooled to per-column temp files that keep a running CRC32
    before a batch would take it past ``chunk_tokens`` tokens of post
    data (or link ids), and once it holds that many (a larger batch is
    spooled alone, uncopied);
    :meth:`finalize` assembles the checksummed container and atomically
    replaces ``path``.  Every batch is validated against the declared
    dimensions before any of it is buffered — a wild token/user/slice id
    raises :class:`~repro.datasets.corpus.CorpusValidationError` at build
    time instead of surfacing as an index error deep inside a sweep.
    The default buffer is small (2^16 tokens, ~2 MB of columns) because
    column batches already amortise the writes; a larger one only adds
    resident memory (+25 MB at 2^20 tokens on a 3.2M-token corpus).

    The writer does not deduplicate links (that would need O(E) memory);
    callers stream links already deduplicated, as both the chunked
    generator and :func:`write_packed` do.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        num_users: int,
        num_time_slices: int,
        vocab_size: int,
        vocabulary: Vocabulary | None = None,
        chunk_tokens: int = 1 << 16,
    ) -> None:
        if num_users <= 0:
            raise PackedCorpusError(f"num_users must be positive, got {num_users}")
        if num_time_slices <= 0:
            raise PackedCorpusError(
                f"num_time_slices must be positive, got {num_time_slices}"
            )
        if vocabulary is not None:
            if vocab_size not in (0, len(vocabulary)):
                raise PackedCorpusError(
                    "vocab_size disagrees with the supplied vocabulary"
                )
            vocab_size = len(vocabulary)
        if vocab_size <= 0:
            raise PackedCorpusError(
                "packed corpora need an explicit positive vocab_size "
                "(or a vocabulary)"
            )
        if chunk_tokens <= 0:
            raise PackedCorpusError("chunk_tokens must be positive")
        self.path = Path(path)
        self.num_users = num_users
        self.num_time_slices = num_time_slices
        self.vocab_size = vocab_size
        self.vocabulary = vocabulary
        self._chunk_tokens = chunk_tokens
        self._finalized = False
        self.num_posts = 0
        self.num_links = 0
        self.num_tokens = 0
        self._unique_total = 0
        self._spool_dir = Path(
            tempfile.mkdtemp(
                prefix=f".{self.path.name}.spool-",
                dir=self.path.parent if self.path.parent.name else ".",
            )
        )
        int64 = np.dtype(np.int64)
        self._spools = {
            "post_authors": _ColumnSpool(self._spool_dir, "post_authors", int64),
            "post_times": _ColumnSpool(self._spool_dir, "post_times", int64),
            "post_lengths": _ColumnSpool(self._spool_dir, "post_lengths", int64),
            "token_offsets": _ColumnSpool(self._spool_dir, "token_offsets", int64),
            "tokens": _ColumnSpool(self._spool_dir, "tokens", int64),
            "unique_offsets": _ColumnSpool(self._spool_dir, "unique_offsets", int64),
            "unique_words": _ColumnSpool(self._spool_dir, "unique_words", int64),
            "unique_counts": _ColumnSpool(self._spool_dir, "unique_counts", int64),
            "links": _ColumnSpool(self._spool_dir, "links", int64),
        }
        # CSR offset columns start with their leading zero.
        self._spools["token_offsets"].append([0])
        self._spools["unique_offsets"].append([0])
        # Array chunks per post column, spooled before chunk_tokens
        # tokens (or link ids) would be exceeded.
        self._post_buffers: dict[str, list[np.ndarray]] = {
            name: [] for name in _POST_COLUMNS
        }
        self._link_buffer: list[np.ndarray] = []
        self._buffered_tokens = 0
        self._buffered_links = 0

    # -- ingest ----------------------------------------------------------------

    def add_post_columns(self, authors, times, lengths, words) -> None:
        """Append a batch of posts given as columns.

        ``authors``, ``times`` and ``lengths`` hold one entry per post and
        ``words`` holds the posts' word ids end to end.  The whole batch
        is checked before any of it is buffered: the first bad post in
        post order (numbered from :attr:`num_posts`) raises — an author,
        time slice or word id out of range, or an empty post — and a
        rejected batch leaves no trace.  Each post's unique-word multiset
        is stored in the first-appearance order of
        ``Post.word_counts()`` (:func:`~repro.core.state.unique_word_csr`).
        """
        self._require_open()
        authors, times, lengths, words = map(
            int_ids, (authors, times, lengths, words)
        )
        row = first_bad_post(
            authors, times, lengths, words, num_users=self.num_users,
            num_time_slices=self.num_time_slices, vocab_size=self.vocab_size,
            error=PackedCorpusError,
        )
        if row >= 0:
            self._reject_post(row, authors, times, lengths, words)
        if self._buffered_tokens + len(words) > self._chunk_tokens:
            self._flush_posts()
        # A batch this call spools is read in place; one that stays
        # buffered is copied, so the caller may reuse its arrays.
        stays = self._buffered_tokens + len(words) < self._chunk_tokens
        as_int64 = np.array if stays else np.ascontiguousarray
        authors, times, lengths, words = (
            as_int64(column, dtype=np.int64)
            for column in (authors, times, lengths, words)
        )
        unique_words, unique_counts, unique_sizes = unique_word_csr(words, lengths)
        token_offsets = np.cumsum(lengths)
        token_offsets += self.num_tokens
        unique_offsets = np.cumsum(unique_sizes)
        unique_offsets += self._unique_total
        for name, column in zip(_POST_COLUMNS, (
            authors, times, lengths, token_offsets, words,
            unique_offsets, unique_words, unique_counts,
        )):
            self._post_buffers[name].append(column)
        self.num_posts += len(authors)
        self.num_tokens += len(words)
        self._unique_total += len(unique_words)
        self._buffered_tokens += len(words)
        if self._buffered_tokens >= self._chunk_tokens:
            self._flush_posts()

    def _reject_post(self, row, authors, times, lengths, words) -> NoReturn:
        """Raise for the first failing check of batch row ``row``: its
        author, its time slice, an empty post, then its first bad word."""
        post = self.num_posts + row
        author, timestamp = authors[row], times[row]
        if not 0 <= author < self.num_users:
            raise CorpusValidationError(
                f"post {post}: author {author} out of range "
                f"[0, {self.num_users})"
            )
        if not 0 <= timestamp < self.num_time_slices:
            raise CorpusValidationError(
                f"post {post}: timestamp {timestamp} out of range "
                f"[0, {self.num_time_slices})"
            )
        if lengths[row] == 0:
            raise PackedCorpusError(
                f"post {post}: posts must contain at least one word"
            )
        lo = int(lengths[:row].sum())
        ids = words[lo:lo + lengths[row]]
        bad = ids[(ids < 0) | (ids >= self.vocab_size)][0]
        raise CorpusValidationError(
            f"post {post}: word id {bad} out of range [0, {self.vocab_size})"
        )

    def add_post(self, author: int, timestamp: int, words) -> None:
        """Append one post: a one-row :meth:`add_post_columns`."""
        tokens = int_ids(words)
        self.add_post_columns([author], [timestamp], [len(tokens)], tokens)

    def add_posts(self, posts) -> None:
        """Append :class:`~repro.datasets.corpus.Post`-likes, gathered into
        column slices of ``_GATHER_POSTS`` posts (a rejected slice leaves
        no trace; earlier slices stay appended)."""
        remaining = iter(posts)
        while batch := list(islice(remaining, _GATHER_POSTS)):
            self.add_post_columns(*post_columns(batch))

    def add_link(self, src: int, dst: int) -> None:
        """Append one directed link: a one-row :meth:`add_links`."""
        self.add_links([(src, dst)])

    def add_links(self, links) -> None:
        """Append directed links: an ``(E, 2)`` integer array or an
        iterable of ``(src, dst)`` pairs.

        The first bad link in order raises — a dangling endpoint, then a
        self-link — and a rejected batch leaves no trace.
        """
        self._require_open()
        pairs = link_pairs(links, error=PackedCorpusError)
        if pairs.size == 0:
            return
        check_links(pairs, self.num_users, self_link_error=PackedCorpusError)
        if 2 * (self._buffered_links + len(pairs)) > self._chunk_tokens:
            self._flush_links()
        self._link_buffer.append(pairs.astype(np.int64))
        self.num_links += len(pairs)
        self._buffered_links += len(pairs)
        if 2 * self._buffered_links >= self._chunk_tokens:
            self._flush_links()

    # -- assembly --------------------------------------------------------------

    def finalize(self) -> Path:
        """Assemble the checksummed file and atomically replace ``path``."""
        self._require_open()
        self._finalized = True
        self._flush_posts()
        self._flush_links()
        for spool in self._spools.values():
            spool.finish()
        try:
            self._write_vocabulary_spools()
            layout = self._build_layout()
            header = {
                "format": "coldpack",
                "num_users": self.num_users,
                "num_time_slices": self.num_time_slices,
                "vocab_size": self.vocab_size,
                "num_posts": self.num_posts,
                "num_links": self.num_links,
                "num_tokens": self.num_tokens,
                "has_vocabulary": self.vocabulary is not None,
                "arrays": layout,
            }
            self._write_container(header)
        finally:
            self._cleanup_spools()
        return self.path

    def _require_open(self) -> None:
        if self._finalized:
            raise PackedCorpusError("writer is finalized; no further appends")

    def _flush_posts(self) -> None:
        for name, chunks in self._post_buffers.items():
            if chunks:
                self._spools[name].append(_joined(chunks))
                chunks.clear()
        self._buffered_tokens = 0

    def _flush_links(self) -> None:
        if self._link_buffer:
            self._spools["links"].append(_joined(self._link_buffer))
            self._link_buffer.clear()
        self._buffered_links = 0

    def _write_vocabulary_spools(self) -> None:
        if self.vocabulary is None:
            return
        blob = _ColumnSpool(self._spool_dir, "vocab_blob", np.uint8)
        offsets = _ColumnSpool(self._spool_dir, "vocab_offsets", np.int64)
        offsets.append([0])
        tokens = self.vocabulary.to_list()
        total = 0
        for start in range(0, len(tokens), 65536):
            encoded = [token.encode("utf-8") for token in tokens[start:start + 65536]]
            blob.append(np.frombuffer(b"".join(encoded), dtype=np.uint8))
            ends = total + np.cumsum([len(e) for e in encoded])
            offsets.append(ends)
            total = int(ends[-1])
        blob.finish()
        offsets.finish()
        self._spools["vocab_blob"] = blob
        self._spools["vocab_offsets"] = offsets

    def _column_shape(self, name: str, spool: _ColumnSpool) -> tuple[int, ...]:
        if name == "links":
            return (self.num_links, 2)
        return (spool.items,)

    def _build_layout(self) -> dict:
        """Per-array placement + CRC32, offsets relative to the data start."""
        layout: dict[str, dict] = {}
        offset = 0
        for name in _COLUMNS:
            spool = self._spools.get(name)
            if spool is None:
                continue
            offset = _align(offset)
            layout[name] = {
                "offset": offset,
                "shape": list(self._column_shape(name, spool)),
                "dtype": spool.dtype.str,
                "crc32": spool.crc,
            }
            offset += spool.nbytes
        return layout

    def _write_container(self, header: dict) -> None:
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        data_start = _align(_PREFIX.size + len(header_bytes))
        data_size = 0
        for spec in header["arrays"].values():
            nbytes = int(np.prod(spec["shape"], dtype=np.int64)) * np.dtype(
                spec["dtype"]
            ).itemsize
            data_size = max(data_size, spec["offset"] + nbytes)
        # data_start depends only on the header length, which is already
        # final (offsets are relative to data_start), so re-encode with it.
        header["data_start"] = data_start
        header["data_size"] = data_size
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        data_start = _align(_PREFIX.size + len(header_bytes))
        header["data_start"] = data_start
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        assert _align(_PREFIX.size + len(header_bytes)) == data_start

        tmp_path = self.path.with_name(self.path.name + ".tmp")
        with open(tmp_path, "wb") as out:
            out.write(
                _PREFIX.pack(
                    MAGIC,
                    FORMAT_VERSION,
                    len(header_bytes),
                    zlib.crc32(header_bytes) & 0xFFFFFFFF,
                )
            )
            out.write(header_bytes)
            out.write(b"\0" * (data_start - _PREFIX.size - len(header_bytes)))
            position = 0
            for name in _COLUMNS:
                spec = header["arrays"].get(name)
                if spec is None:
                    continue
                out.write(b"\0" * (spec["offset"] - position))
                position = spec["offset"]
                with open(self._spools[name].path, "rb") as spool:
                    while True:
                        chunk = spool.read(_IO_CHUNK)
                        if not chunk:
                            break
                        out.write(chunk)
                        position += len(chunk)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, self.path)

    def _cleanup_spools(self) -> None:
        for spool in self._spools.values():
            try:
                spool.finish()
            except ValueError:  # pragma: no cover - already closed
                pass
            spool.path.unlink(missing_ok=True)
        try:
            self._spool_dir.rmdir()
        except OSError:  # pragma: no cover - leftover foreign file
            pass

    def abort(self) -> None:
        """Drop the spools without writing the container (idempotent)."""
        if not self._finalized:
            self._finalized = True
            for spool in self._spools.values():
                spool.finish()
            self._cleanup_spools()

    def __enter__(self) -> "PackedCorpusWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._finalized:
            self.finalize()
        else:
            self.abort()


def write_packed(corpus: CorpusReads, path: str | Path) -> Path:
    """Pack a corpus into a ``.coldpack`` file, handing its columns to
    the writer in one batch."""
    writer = PackedCorpusWriter(
        path,
        num_users=corpus.num_users,
        num_time_slices=corpus.num_time_slices,
        vocab_size=corpus.vocab_size,
        vocabulary=corpus.vocabulary,
    )
    try:
        writer.add_post_columns(
            corpus.post_authors, corpus.post_times, corpus.post_lengths,
            corpus.tokens,
        )
        writer.add_links(corpus.link_array())
        return writer.finalize()
    except BaseException:
        writer.abort()
        raise


class PackedCorpus(CorpusReads):
    """A ``.coldpack`` file opened read-only through one memory map.

    Exposes the corpus read surface (:class:`CorpusReads`: sizes, posts,
    links, derived views) over zero-copy numpy views of the mapped file;
    the views are read-only, so accidental mutation raises instead of
    corrupting the file.  Samplers read ``post_table()`` — views of the
    stored unique-word CSR — and :meth:`link_array` straight from the map.
    """

    def __init__(self, path: Path, header: dict, mapped: mmap.mmap) -> None:
        self.path = path
        self._header = header
        self._mmap = mapped
        self._closed = False
        self._vocab: Vocabulary | None = None
        data_start = header["data_start"]
        self._arrays: dict[str, np.ndarray] = {}
        for name, spec in header["arrays"].items():
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"], dtype=np.int64))
            self._arrays[name] = np.frombuffer(
                mapped, dtype=dtype, count=count, offset=data_start + spec["offset"]
            ).reshape(spec["shape"])

    # -- opening ---------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, verify: bool = False) -> "PackedCorpus":
        """Map ``path``; cheap structural validation always runs.

        ``verify=True`` additionally re-checksums every array
        (:meth:`verify`) before returning.
        """
        path = Path(path)
        header = cls._read_header(path)
        size = path.stat().st_size
        expected = header["data_start"] + header["data_size"]
        if size < expected:
            raise PackedFormatError(
                f"{path}: truncated packed corpus — file is {size} bytes, "
                f"layout needs {expected}"
            )
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        corpus = cls(path, header, mapped)
        try:
            corpus._check_structure()
            if verify:
                corpus.verify()
        except BaseException:
            corpus.close()
            raise
        return corpus

    @staticmethod
    def _read_header(path: Path) -> dict:
        try:
            with open(path, "rb") as handle:
                prefix = handle.read(_PREFIX.size)
                if len(prefix) < _PREFIX.size:
                    raise PackedFormatError(
                        f"{path}: truncated packed corpus — "
                        f"{len(prefix)} byte(s), expected at least "
                        f"{_PREFIX.size}"
                    )
                magic, version, header_len, header_crc = _PREFIX.unpack(prefix)
                if magic != MAGIC:
                    raise PackedFormatError(
                        f"{path}: not a packed corpus (magic {magic!r})"
                    )
                if version != FORMAT_VERSION:
                    raise PackedVersionError(
                        f"{path}: packed corpus format version {version} is "
                        f"not supported (this reader understands "
                        f"{FORMAT_VERSION})"
                    )
                header_bytes = handle.read(header_len)
        except OSError as exc:
            raise PackedFormatError(f"{path}: cannot read ({exc})") from exc
        if len(header_bytes) < header_len:
            raise PackedFormatError(
                f"{path}: truncated packed corpus — header cut short"
            )
        if zlib.crc32(header_bytes) & 0xFFFFFFFF != header_crc:
            raise PackedChecksumError(
                f"{path}: header checksum mismatch — the file is corrupt"
            )
        try:
            header = json.loads(header_bytes)
        except json.JSONDecodeError as exc:
            raise PackedFormatError(
                f"{path}: malformed packed-corpus header ({exc})"
            ) from exc
        return header

    def _check_structure(self) -> None:
        header = self._header
        required = set(_COLUMNS) - {"vocab_offsets", "vocab_blob"}
        missing = sorted(required - set(header["arrays"]))
        if missing:
            raise PackedFormatError(
                f"{self.path}: header missing arrays: {', '.join(missing)}"
            )
        D, E, N = header["num_posts"], header["num_links"], header["num_tokens"]
        shapes = {
            "post_authors": (D,),
            "post_times": (D,),
            "post_lengths": (D,),
            "token_offsets": (D + 1,),
            "tokens": (N,),
            "unique_offsets": (D + 1,),
            "links": (E, 2),
        }
        for name, expected in shapes.items():
            actual = tuple(header["arrays"][name]["shape"])
            if actual != expected:
                raise PackedFormatError(
                    f"{self.path}: array {name} has shape {actual}, "
                    f"header dimensions imply {expected}"
                )
        end = int(self._arrays["token_offsets"][-1]) if D else N
        if end != N:
            raise PackedFormatError(
                f"{self.path}: token_offsets end at {end}, header says "
                f"{N} tokens"
            )

    def verify(self) -> None:
        """Re-checksum every array region against the header (bounded RSS).

        Reads the file in chunks through ordinary file I/O rather than
        faulting the whole map in; raises :class:`PackedChecksumError`
        naming the file and the first corrupt array.
        """
        self._require_open()
        data_start = self._header["data_start"]
        with open(self.path, "rb") as handle:
            for name, spec in self._header["arrays"].items():
                nbytes = int(
                    np.prod(spec["shape"], dtype=np.int64)
                ) * np.dtype(spec["dtype"]).itemsize
                crc = _file_crc32(handle, data_start + spec["offset"], nbytes)
                if crc != spec["crc32"]:
                    raise PackedChecksumError(
                        f"{self.path}: checksum mismatch in array {name!r} "
                        f"— the file is corrupt"
                    )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drop the numpy views and unmap the file (idempotent).

        Any externally held view keeps the pages alive until it dies; the
        map itself is released with the last exporter, exactly like the
        shared-memory blocks.
        """
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        try:
            self._mmap.close()
        except BufferError:
            pass

    def _require_open(self) -> None:
        if self._closed:
            raise PackedCorpusError(f"{self.path}: packed corpus is closed")

    def __enter__(self) -> "PackedCorpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- sizes -----------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return self._header["num_users"]

    @property
    def num_time_slices(self) -> int:
        return self._header["num_time_slices"]

    @property
    def vocab_size(self) -> int:
        return self._header["vocab_size"]

    @property
    def num_posts(self) -> int:
        return self._header["num_posts"]

    @property
    def num_links(self) -> int:
        return self._header["num_links"]

    @property
    def num_words(self) -> int:
        return self._header["num_tokens"]

    @property
    def packed_path(self) -> Path:
        """The backing file — the marker the ``processes`` executor keys on
        to map shards from disk instead of copying arrays into shm."""
        return self.path

    # -- columns (zero-copy) ------------------------------------------------------

    def _column(self, name: str) -> np.ndarray:
        self._require_open()
        return self._arrays[name]

    @property
    def post_authors(self) -> np.ndarray:
        """Per-post author ids (read-only view of the map)."""
        return self._column("post_authors")

    @property
    def post_times(self) -> np.ndarray:
        """Per-post time slices (read-only view of the map)."""
        return self._column("post_times")

    @property
    def post_lengths(self) -> np.ndarray:
        """Per-post token counts (read-only view of the map)."""
        return self._column("post_lengths")

    @property
    def token_offsets(self) -> np.ndarray:
        """Post ``p``'s tokens are ``tokens[token_offsets[p]:token_offsets[p + 1]]``."""
        return self._column("token_offsets")

    @property
    def tokens(self) -> np.ndarray:
        """Every post's word ids end to end (read-only view of the map)."""
        return self._column("tokens")

    def link_array(self) -> np.ndarray:
        """Links as a read-only ``(E, 2)`` int64 view of the map."""
        return self._column("links")

    def _post_table(self) -> PostTable:
        """Views of the stored columns: the unique-word CSR on disk is in
        the first-appearance order of ``Post.word_counts()``, so a packed
        fit draws the same chain as an in-RAM one."""
        return PostTable(
            authors=self.post_authors,
            times=self.post_times,
            lengths=self.post_lengths,
            offsets=self._column("unique_offsets"),
            unique_words=self._column("unique_words"),
            unique_counts=self._column("unique_counts"),
        )

    @property
    def vocabulary(self) -> Vocabulary | None:
        """The stored vocabulary, decoded lazily on first access."""
        self._require_open()
        if not self._header.get("has_vocabulary"):
            return None
        if self._vocab is None:
            offsets = self._arrays["vocab_offsets"]
            blob = self._arrays["vocab_blob"].tobytes()
            self._vocab = Vocabulary(
                blob[offsets[v] : offsets[v + 1]].decode("utf-8")
                for v in range(self.vocab_size)
            ).freeze()
        return self._vocab

    def to_social_corpus(self) -> SocialCorpus:
        """The in-RAM :class:`SocialCorpus` equivalent: a copy of the
        columns."""
        return self._in_ram(
            self.post_authors, self.post_times, self.post_lengths,
            self.tokens, self.link_array(),
        )

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, path={str(self.path)!r})"


def is_packed_file(path: str | Path) -> bool:
    """True iff ``path`` exists and starts with the coldpack magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
