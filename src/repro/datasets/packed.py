"""The ``.coldpack`` on-disk corpus: packed columns behind one mmap.

:class:`SocialCorpus` keeps every post as a Python object, which caps
benchmarks at laptop scale — ~100 bytes per token once tuples and object
headers are paid for, times one copy per worker process.  This module
stores the same observed data as packed int64 columns in a single
versioned, checksummed file and reads it back through one read-only
memory map:

* ``PackedCorpusWriter`` streams posts and links to disk in bounded
  memory (the chunked synthetic generator and ``write_packed`` both use
  it), validating every id against the declared dimensions at build time;
* ``PackedCorpus`` opens the file and exposes the :class:`SocialCorpus`
  read surface over zero-copy mmap views — including
  :meth:`PackedCorpus.post_table`, which hands the Gibbs samplers their
  :class:`~repro.core.state.PostTable` without materialising a single
  ``Post``;
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
offsets.

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
from collections import Counter
from pathlib import Path

import numpy as np

from ..core.state import PostTable
from .corpus import CorpusError, CorpusValidationError, Post, SocialCorpus
from .vocabulary import Vocabulary

#: First 8 bytes of every packed corpus file.
MAGIC = b"COLDPACK"

#: Current format version; bumped on any layout change.
FORMAT_VERSION = 1

#: Byte alignment of each array region (matches repro.parallel.shm).
_ALIGNMENT = 64

#: Bytes per chunk for streamed checksumming / spool copies.
_IO_CHUNK = 4 * 1024 * 1024

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
    """One column streamed to a temp file in fixed-size flushes."""

    def __init__(self, directory: Path, name: str, dtype: np.dtype) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self.path = directory / f"{name}.col"
        self._handle = open(self.path, "wb")
        self.items = 0

    def append(self, values) -> None:
        array = np.asarray(values, dtype=self.dtype)
        self.items += array.size
        array.tofile(self._handle)

    def finish(self) -> None:
        self._handle.close()

    @property
    def nbytes(self) -> int:
        return self.items * self.dtype.itemsize


class PackedCorpusWriter:
    """Stream a corpus into a ``.coldpack`` file in bounded memory.

    Posts and links are buffered a chunk at a time (``chunk_tokens``
    tokens of post data) and spooled to per-column temp files;
    :meth:`finalize` assembles the checksummed container and atomically
    replaces ``path``.  Every id is validated against the declared
    dimensions as it arrives — a wild token/user/slice id raises
    :class:`~repro.datasets.corpus.CorpusValidationError` at build time
    instead of surfacing as an index error deep inside a sweep.

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
        chunk_tokens: int = 1 << 20,
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
        # Post chunk buffers (flushed when the token buffer fills).
        self._buf_authors: list[int] = []
        self._buf_times: list[int] = []
        self._buf_lengths: list[int] = []
        self._buf_token_offsets: list[int] = []
        self._buf_tokens: list[int] = []
        self._buf_unique_offsets: list[int] = []
        self._buf_unique_words: list[int] = []
        self._buf_unique_counts: list[int] = []
        self._buf_links: list[int] = []

    # -- ingest ----------------------------------------------------------------

    def add_post(self, author: int, timestamp: int, words) -> None:
        """Append one post; validates ids against the declared dimensions."""
        self._require_open()
        author = int(author)
        timestamp = int(timestamp)
        if not 0 <= author < self.num_users:
            raise CorpusValidationError(
                f"post {self.num_posts}: author {author} out of range "
                f"[0, {self.num_users})"
            )
        if not 0 <= timestamp < self.num_time_slices:
            raise CorpusValidationError(
                f"post {self.num_posts}: timestamp {timestamp} out of range "
                f"[0, {self.num_time_slices})"
            )
        tokens = np.asarray(words if isinstance(words, np.ndarray) else list(words))
        if tokens.ndim != 1 or tokens.dtype.kind not in "iu":
            # Floats, bools, strings or ids past int64: int() each one.
            tokens = np.array([int(w) for w in tokens.tolist()], dtype=object)
        ids = tokens.tolist()
        if not ids:
            raise PackedCorpusError(
                f"post {self.num_posts}: posts must contain at least one word"
            )
        if min(ids) < 0 or max(ids) >= self.vocab_size:
            bad = next(w for w in ids if not 0 <= w < self.vocab_size)
            raise CorpusValidationError(
                f"post {self.num_posts}: word id {bad} out of range "
                f"[0, {self.vocab_size})"
            )
        # First-appearance-order unique multiset — the exact semantics of
        # Post.word_counts(), which the samplers' PostTable is built on.
        counts = Counter(ids)
        self._buf_authors.append(author)
        self._buf_times.append(timestamp)
        self._buf_lengths.append(len(ids))
        self._buf_tokens.extend(ids)
        self.num_tokens += len(ids)
        self._buf_token_offsets.append(self.num_tokens)
        self._buf_unique_words.extend(counts.keys())
        self._buf_unique_counts.extend(counts.values())
        self._unique_total += len(counts)
        self._buf_unique_offsets.append(self._unique_total)
        self.num_posts += 1
        if len(self._buf_tokens) >= self._chunk_tokens:
            self._flush_posts()

    def add_posts(self, posts) -> None:
        """Append an iterable of :class:`~repro.datasets.corpus.Post`-likes."""
        for post in posts:
            self.add_post(post.author, post.timestamp, post.words)

    def add_link(self, src: int, dst: int) -> None:
        """Append one directed link; validates endpoints."""
        self._require_open()
        src = int(src)
        dst = int(dst)
        if not (0 <= src < self.num_users and 0 <= dst < self.num_users):
            raise CorpusValidationError(
                f"link ({src}, {dst}) has dangling endpoint: user ids must "
                f"lie in [0, {self.num_users})"
            )
        if src == dst:
            raise PackedCorpusError(f"self-link ({src}, {dst}) is not allowed")
        self._buf_links.extend((src, dst))
        self.num_links += 1
        if len(self._buf_links) >= self._chunk_tokens:
            self._flush_links()

    def add_links(self, links) -> None:
        for src, dst in links:
            self.add_link(src, dst)

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
        self._spools["post_authors"].append(self._buf_authors)
        self._spools["post_times"].append(self._buf_times)
        self._spools["post_lengths"].append(self._buf_lengths)
        self._spools["token_offsets"].append(self._buf_token_offsets)
        self._spools["tokens"].append(self._buf_tokens)
        self._spools["unique_offsets"].append(self._buf_unique_offsets)
        self._spools["unique_words"].append(self._buf_unique_words)
        self._spools["unique_counts"].append(self._buf_unique_counts)
        self._buf_authors = []
        self._buf_times = []
        self._buf_lengths = []
        self._buf_token_offsets = []
        self._buf_tokens = []
        self._buf_unique_offsets = []
        self._buf_unique_words = []
        self._buf_unique_counts = []

    def _flush_links(self) -> None:
        self._spools["links"].append(self._buf_links)
        self._buf_links = []

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
            with open(spool.path, "rb") as handle:
                crc = _file_crc32(handle, 0, spool.nbytes)
            layout[name] = {
                "offset": offset,
                "shape": list(self._column_shape(name, spool)),
                "dtype": spool.dtype.str,
                "crc32": crc,
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


def write_packed(corpus: SocialCorpus, path: str | Path) -> Path:
    """Pack an in-RAM :class:`SocialCorpus` into a ``.coldpack`` file."""
    writer = PackedCorpusWriter(
        path,
        num_users=corpus.num_users,
        num_time_slices=corpus.num_time_slices,
        vocab_size=corpus.vocab_size,
        vocabulary=corpus.vocabulary,
    )
    try:
        writer.add_posts(corpus.posts)
        writer.add_links(corpus.links)
        return writer.finalize()
    except BaseException:
        writer.abort()
        raise


class _PackedPostsView:
    """Read-only sequence adapter: packed columns -> ``Post`` on demand."""

    def __init__(self, corpus: "PackedCorpus") -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.num_posts

    def _materialize(self, index: int) -> Post:
        c = self._corpus
        lo, hi = c._token_offsets[index], c._token_offsets[index + 1]
        return Post(
            author=int(c._post_authors[index]),
            words=tuple(int(w) for w in c._tokens[lo:hi]),
            timestamp=int(c._post_times[index]),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"post index {index} out of range")
        return self._materialize(index)

    def __iter__(self):
        for index in range(len(self)):
            yield self._materialize(index)


class _PackedLinksView:
    """Read-only sequence adapter over the ``(E, 2)`` link column."""

    def __init__(self, links: np.ndarray) -> None:
        self._links = links

    def __len__(self) -> int:
        return len(self._links)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                (int(s), int(d)) for s, d in self._links[index]
            ]
        src, dst = self._links[int(index)]
        return (int(src), int(dst))

    def __iter__(self):
        for src, dst in self._links:
            yield (int(src), int(dst))


class PackedCorpus:
    """A ``.coldpack`` file opened read-only through one memory map.

    Exposes the :class:`SocialCorpus` read surface (sizes, posts, links,
    derived views) over zero-copy numpy views of the mapped file; the
    views are read-only, so accidental mutation raises instead of
    corrupting the file.  ``posts`` materialises ``Post`` objects lazily
    — samplers never touch it, because :meth:`post_table` (picked up by
    ``PostTable.from_corpus``) and :meth:`link_array` feed them straight
    from the map.
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
        self._post_authors = self._arrays["post_authors"]
        self._post_times = self._arrays["post_times"]
        self._post_lengths = self._arrays["post_lengths"]
        self._token_offsets = self._arrays["token_offsets"]
        self._tokens = self._arrays["tokens"]
        self._links = self._arrays["links"]

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
        if D and int(self._token_offsets[-1]) != N:
            raise PackedFormatError(
                f"{self.path}: token_offsets end at "
                f"{int(self._token_offsets[-1])}, header says {N} tokens"
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
        self._post_authors = self._post_times = self._post_lengths = None
        self._token_offsets = self._tokens = self._links = None
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
    def num_negative_links(self) -> int:
        return self.num_users * (self.num_users - 1) - self.num_links

    @property
    def packed_path(self) -> Path:
        """The backing file — the marker the ``processes`` executor keys on
        to map shards from disk instead of copying arrays into shm."""
        return self.path

    # -- sampler feeds (zero-copy) ---------------------------------------------

    def post_table(self) -> PostTable:
        """The samplers' :class:`PostTable`, as views of the mapped file.

        ``PostTable.from_corpus`` calls this when present, so
        ``CountState.initialize`` on a packed corpus never loops over
        Python posts — and draws are bit-identical to the in-RAM path
        because the stored unique-word CSR uses the same
        first-appearance order as ``Post.word_counts()``.
        """
        self._require_open()
        return PostTable(
            authors=self._post_authors,
            times=self._post_times,
            lengths=self._post_lengths,
            offsets=self._arrays["unique_offsets"],
            unique_words=self._arrays["unique_words"],
            unique_counts=self._arrays["unique_counts"],
        )

    def link_array(self) -> np.ndarray:
        """Links as a read-only ``(E, 2)`` int64 view of the map."""
        self._require_open()
        return self._links

    @property
    def post_authors(self) -> np.ndarray:
        """Per-post author ids (read-only view; graph fast path)."""
        self._require_open()
        return self._post_authors

    @property
    def post_times(self) -> np.ndarray:
        """Per-post time slices (read-only view; graph fast path)."""
        self._require_open()
        return self._post_times

    # -- SocialCorpus read surface ---------------------------------------------

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

    @property
    def posts(self) -> _PackedPostsView:
        self._require_open()
        return _PackedPostsView(self)

    @property
    def links(self) -> _PackedLinksView:
        self._require_open()
        return _PackedLinksView(self._links)

    def link_set(self) -> set[tuple[int, int]]:
        self._require_open()
        return {(int(s), int(d)) for s, d in self._links}

    def timestamps(self) -> np.ndarray:
        self._require_open()
        return self._post_times.copy()

    def posts_by_user(self) -> list[list[int]]:
        self._require_open()
        grouped: list[list[int]] = [[] for _ in range(self.num_users)]
        for idx, author in enumerate(self._post_authors.tolist()):
            grouped[author].append(idx)
        return grouped

    def out_links(self) -> list[list[int]]:
        self._require_open()
        adjacency: list[list[int]] = [[] for _ in range(self.num_users)]
        for src, dst in self._links.tolist():
            adjacency[src].append(dst)
        return adjacency

    def in_links(self) -> list[list[int]]:
        self._require_open()
        adjacency: list[list[int]] = [[] for _ in range(self.num_users)]
        for src, dst in self._links.tolist():
            adjacency[dst].append(src)
        return adjacency

    def word_count_matrix(self) -> np.ndarray:
        """Dense ``(U, V)`` user-word counts, built from the unique CSR."""
        self._require_open()
        matrix = np.zeros((self.num_users, self.vocab_size), dtype=np.int64)
        offsets = self._arrays["unique_offsets"]
        per_post = np.diff(offsets)
        authors = np.repeat(self._post_authors, per_post)
        np.add.at(
            matrix,
            (authors, self._arrays["unique_words"]),
            self._arrays["unique_counts"],
        )
        return matrix

    def to_social_corpus(self) -> SocialCorpus:
        """Materialise the full in-RAM :class:`SocialCorpus` equivalent.

        O(posts) Python objects — only sensible at test/debug scale.
        """
        self._require_open()
        return SocialCorpus(
            num_users=self.num_users,
            num_time_slices=self.num_time_slices,
            posts=list(self.posts),
            links=list(self.links),
            vocabulary=self.vocabulary,
            vocab_size=self.vocab_size,
        )

    def subset_posts(self, indices) -> SocialCorpus:
        """An in-RAM corpus of the selected posts (links unchanged)."""
        self._require_open()
        view = self.posts
        return SocialCorpus(
            num_users=self.num_users,
            num_time_slices=self.num_time_slices,
            posts=[view[int(i)] for i in indices],
            links=list(self.links),
            vocabulary=self.vocabulary,
            vocab_size=self.vocab_size,
        )

    def subset_links(self, indices) -> SocialCorpus:
        """An in-RAM corpus of the selected links (posts unchanged)."""
        self._require_open()
        links = self.links
        return SocialCorpus(
            num_users=self.num_users,
            num_time_slices=self.num_time_slices,
            posts=list(self.posts),
            links=[links[int(i)] for i in indices],
            vocabulary=self.vocabulary,
            vocab_size=self.vocab_size,
        )

    def describe(self) -> dict[str, int]:
        return {
            "users": self.num_users,
            "posts": self.num_posts,
            "words": self.num_words,
            "links": self.num_links,
            "vocab": self.vocab_size,
            "time_slices": self.num_time_slices,
        }

    def __repr__(self) -> str:
        stats = self.describe()
        inner = ", ".join(f"{key}={value}" for key, value in stats.items())
        return f"PackedCorpus({inner}, path={str(self.path)!r})"


def is_packed_file(path: str | Path) -> bool:
    """True iff ``path`` exists and starts with the coldpack magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
