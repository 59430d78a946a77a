"""Native collapsed-Gibbs sweep — the fast path — and the native library.

The reference kernels in :mod:`repro.core.gibbs` re-derive every factor of
Eqs. (1)–(3) from the raw counters on each draw, through dozens of small
NumPy calls whose dispatch overhead, not arithmetic, sets sweep time.
This module keeps a :class:`SweepCache` of those factors and runs the
whole per-draw loop in one plain-C kernel, ``_sweep.c``:

* **the kernel** walks every post (community by Eq. 1, then topic by
  Eq. 3, with the post *virtually removed*: its own counts perturb only
  the weight entries of its current assignment, which are patched from
  the decremented integers) and then every link (Eq. 2, removed for
  real).  It reads the :class:`~repro.core.state.PostTable` CSR columns
  and the :class:`~repro.core.state.CountState` counters in place,
  applies :meth:`CountState.move_post`'s net deltas, and patches the
  cache entries a move invalidates;
* **the cache** holds the fused Eq. (3) community/time factor ``base``
  (``(C, T, K)``: log interest + log time numerator - log time
  denominator), a transposed word-count mirror ``word_topic`` (one
  contiguous ``(K,)`` row per word), the Eq. (2) link factor and the
  exact community totals — plus **log tables**: every ``log`` the
  sampler takes has an integer+constant argument, so ``np.log`` builds
  ``log(n + beta)``, ``log(n + alpha)``, ``log(n + T eps)``,
  ``log(n + eps)`` and ``log(n + V beta)`` once per cache and the kernel
  only indexes them.  Building a cache has no per-post Python work.

One library holds five kernels: the sweep (``_sweep.c``), the
Independent Cascade Monte-Carlo of :mod:`repro.core.influence`
(``_cascade.c``), the planted-process draws of
:mod:`repro.datasets.synthetic` (``_planted.c``), the unique-word
CSR of :func:`repro.core.state.unique_word_csr` (``_corpus.c``) and
the retweet scorer of :mod:`repro.core.prediction` (``_predict.c``); the
cascade and planted kernels step numpy's PCG64 through one shared
header, ``_pcg64.h``.
:func:`native_kernel` compiles the sources with the system ``cc`` at
first use (``-O3 -march=native -fPIC -shared -ffp-contract=off``, never
``-ffast-math``; if ``cc`` rejects ``-march=native``, the same without
it) into ``~/.cache/repro/`` — or, only when that cannot be created or
written, a private ``repro-<uid>`` directory in the temp directory —
under a name keyed on every file the compile reads (sources and
headers), the flags, the platform and the CPU's feature flags (so a
cache shared between hosts never loads a build tuned for another CPU),
written to a temporary file and ``os.replace``-d so concurrent builds
are safe.  The directory and the library must belong to the user and
be writable by no one else; otherwise neither is used.  Without a
compiler (or a usable cache directory) there is one fallback: every
caller runs its numpy reference kernel, and the loader logs one WARNING
for the process.

Exactness contract
------------------
Every cached factor is bit-identical to a NumPy rebuild
(:meth:`SweepCache.check_consistency`): the log tables *are* ``np.log``
values (libm's ``log`` differs from NumPy's SIMD ``log`` on some hosts,
so the kernel never calls it), the elementwise IEEE-754 operations are
the reference's in the reference's association order (no FMA
contraction), and every sum is NumPy's, whose order follows the array's
layout: ``pairwise_sum`` (8 accumulators, 128-element blocks,
sequential below 8 elements) along a contiguous axis, strictly
sequential across a strided one.  A draw's running sum is sequential,
as ``np.cumsum`` is, and stops at the first prefix above ``u * total``,
the cell ``searchsorted`` finds (every weight is positive, so the sum
never decreases).

The Eq. (3) sums are vectorised, and their order is the reference's
because the reference's own arrays are laid out that way.  The Polya
denominator is a row-major ``(K, L)`` matrix, so each topic's window of
the log table sums pairwise, its eight accumulators one vector.  The
numerator is word after word for a post with repeated words, and for a
distinct-word post a row sum of the ``(K, W)`` gather
``n_topic_word[:, words]``, which NumPy lays out column-major, so that
sum is word after word too (pairwise only when ``K = 1``, the one
contiguous row).  The topic draw takes the post's own counts out of its
topic's word-topic column and token total and puts them back after, so
every topic's term is one gather: ``-O3 -march=native`` turns the
numerator into SIMD gather-adds, each lane running one topic's
reference sum unchanged, and ``tests/test_fastgibbs.py`` compares the
log weights bit for bit.

The uniforms are the reference's: Python draws each loop's
uniforms in blocks of ``rng.random(n)`` (the same PCG64 doubles as
``n`` scalar calls), the link permutation between the two loops, and on
a degenerate draw rewinds the generator to the block's start, replays
up to that draw and calls ``rng.integers`` exactly as the reference
does.  A block covers at most ``_BLOCK_ITEMS`` posts or links, so a
degenerate draw costs at most one block of replayed uniforms.

The one exception is ``exp``: the Eq. (3) topic weights use libm's
``exp``, which differs from ``np.exp`` by at most one ULP on about 4.6%
of doubles.  The exponentiated weights are therefore not bit-identical
(their logs are), and a draw
can differ from the reference only when ``u * total`` lands within one
ULP of a cdf boundary — in practice never: the same seed yields the
reference chain draw for draw, which ``tests/test_fastgibbs.py`` and
the perf harness check.  The reference kernels remain the oracle;
``fast=False`` selects them anywhere a model is built.

Two exact shortcuts in the topic draw skip work whose outcome is
already settled, with the same draws, counters and RNG stream:

* **Polya rows.**  A topic's denominator window depends only on the
  post length ``L`` and the topic's token total, so the cache keeps one
  ``(K,)`` row per length (``(max length + 1) x K`` doubles), stamped
  with an epoch the kernel bumps on every topic-total change; a bind or
  :meth:`SweepCache.refresh` starts with no row stamped.  A post sums
  only its own topic's window at the removed total;
  :meth:`SweepCache.check_consistency` recomputes every stamped row.
* **Certain draws.**  Let the log weights have a unique finite arg max
  ``t`` and write ``eps = 2^-53``.  Then ``w[t] = exp(0) = 1`` exactly
  and every other floored weight is at most ``b = max(exp(second - max)
  (1 + 2^-50), floor)``, because the subtraction is monotone and libm's
  ``exp`` is within one ULP of the true, monotone ``exp``.  Let
  ``d = K 2^-50``.  Adding non-negative terms to 1 never rounds below 1,
  so ``u * total`` rounds to at least ``u``.  The prefix before ``t``
  adds ``t`` terms ``<= b`` and rounds to at most ``t b (1 + eps)^t``,
  which the bound ``t b (1 + d)`` exceeds after its own two roundings.
  The total is at most ``(1 + (K - 1) b)(1 + eps)^K``, so
  ``u < 1 - 2 K b - d`` keeps ``u * total`` below ``1 - eps``, which
  rounds below the prefix at ``t`` (``>= 1``).  For ``u`` in
  ``[t b (1 + d), 1 - 2 K b - d)`` the scan provably returns ``t``, and
  the kernel takes ``t`` without the ``K`` ``exp`` calls, the floor, the
  total or the scan.  Every other ``u`` runs the full draw.  The kernel
  entry ``cold_topic_draw`` exposes this draw to the tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..telemetry import timing
from .gibbs import _WEIGHT_FLOOR, reference_sweep
from .params import Hyperparameters
from .state import CountState

_log = logging.getLogger(__name__)

# -- the native library ---------------------------------------------------------

_SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("_sweep.c", "_cascade.c", "_planted.c", "_corpus.c", "_predict.c")
)
#: Headers the sources include: part of the build's cache key.
_HEADERS = (Path(__file__).with_name("_pcg64.h"),)
#: Every build's flags: no FMA contraction and never -ffast-math, so
#: the IEEE operations stay the reference's (see the exactness contract).
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
#: Tuning for the host CPU, dropped when the compiler rejects it.
_NATIVE_FLAG = "-march=native"
_UNLOADED = object()
_library: object = _UNLOADED


#: CountState counters and assignments the kernel mutates in place.
_STATE_ARRAYS = (
    "n_user_comm", "n_comm_topic", "n_comm_topic_time", "n_topic_word",
    "n_topic_total", "n_link_comm",
    "post_comm", "post_topic", "link_src_comm", "link_dst_comm",
)
#: SweepCache arrays, in kernel order: three mutated int64 arrays, then
#: float64 arrays (the log tables only read).
_CACHE_ARRAYS = (
    "n_comm_total", "word_topic", "_den_stamp", "base", "link_factor",
    "log_beta", "log_alpha", "log_T_eps", "log_eps", "log_V_beta",
    "_den_rows", "_scratch",
)


class _Context(ctypes.Structure):
    """Mirror of ``cold_sweep_ctx`` in ``_sweep.c`` (field order matters)."""

    _fields_ = (
        [
            (name, ctypes.c_int64)
            for name in (
                "C", "K", "T", "V", "D", "E", "timed", "pending_c", "den_epoch",
            )
        ]
        + [
            (name, ctypes.c_double)
            for name in (
                "rho", "alpha", "epsilon", "lambda0", "lambda1",
                "K_alpha", "T_eps", "floor",
            )
        ]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "authors", "times", "lengths", "offsets", "words", "counts",
                "links", *_STATE_ARRAYS, *_CACHE_ARRAYS,
            )
        ]
        + [("phase_s", ctypes.c_double * 6)]
    )


def _cache_dir() -> Path:
    """The per-user build cache directory, created private (mode 0o700).

    ``~/.cache/repro``; only when that cannot be created or written, a
    ``repro-<uid>`` directory in the temp directory.  Either must belong
    to this user and be writable by no one else, or it is refused.
    """
    if os.name != "posix":
        raise OSError("the native kernels need a POSIX platform")
    directory = Path.home() / ".cache" / "repro"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        usable = os.access(directory, os.W_OK)
    except OSError:
        usable = False
    if not usable:
        directory = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
        directory.mkdir(mode=0o700, exist_ok=True)
    _check_private(directory, stat.S_ISDIR)
    return directory


def _check_private(path: Path, is_kind) -> None:
    """Refuse ``path`` unless it is of the right kind, belongs to this
    user and is writable by neither group nor others (anyone who can
    write the library or its directory could run code in this process).
    """
    info = os.stat(path)
    if (
        not is_kind(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise OSError(
            f"{path} is not private to this user (owner uid {info.st_uid}, "
            f"mode {stat.filemode(info.st_mode)})"
        )


def _cpu_identity() -> bytes:
    """The host CPU's instruction-set features, which ``-march=native``
    compiles for: the first ``flags`` (x86) or ``Features`` (Arm) line of
    ``/proc/cpuinfo``, else the machine and processor names."""
    try:
        with open("/proc/cpuinfo", "rb") as cpuinfo:
            for line in cpuinfo:
                if line.startswith((b"flags", b"Features")):
                    return line.strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}".encode()


def _library_name() -> str:
    """The built library's file name, keyed on every file the compile
    reads (sources and headers), the flags, the platform and the CPU, so
    a cache directory shared between hosts never loads another CPU's
    build."""
    key = hashlib.sha256(
        b"\0".join(
            [
                *(path.read_bytes() for path in (*_SOURCES, *_HEADERS)),
                " ".join((_NATIVE_FLAG, *_CFLAGS)).encode(),
                sysconfig.get_platform().encode(),
                _cpu_identity(),
            ]
        )
    ).hexdigest()[:16]
    return f"_native-{key}.so"


def _compile() -> Path:
    """The built library's path, compiling the sources unless cached."""
    directory = _cache_dir()
    path = directory / _library_name()
    if not path.exists():
        compiler = shutil.which("cc")
        if compiler is None:
            raise OSError("no C compiler ('cc') on PATH")
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=directory)
        os.close(fd)

        def build(*flags: str) -> None:
            subprocess.run(
                [compiler, *flags, *_CFLAGS, "-o", tmp, *map(str, _SOURCES), "-lm"],
                check=True,
                capture_output=True,
                text=True,
            )

        try:
            try:
                build(_NATIVE_FLAG)
            except subprocess.CalledProcessError as exc:
                _log.debug("cc rejected %s, building without it: %s",
                           _NATIVE_FLAG, exc.stderr.strip()[-200:])
                build()
            # The linker creates its output under the umask; make it
            # private before it becomes visible under its final name.
            os.chmod(tmp, 0o700)
            os.replace(tmp, path)
        except subprocess.CalledProcessError as exc:
            raise OSError(f"cc failed: {exc.stderr.strip()[-500:]}") from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    _check_private(path, stat.S_ISREG)
    return path


def native_kernel() -> ctypes.CDLL | None:
    """The compiled library, built on first use; ``None`` without one.

    The outcome is resolved once per process: a failed build (no ``cc``,
    a compile error, no writable cache directory) logs one WARNING, and
    every later :func:`fast_sweep`, influence cascade, planted draw,
    unique-word table and retweet score runs its reference kernel.
    """
    global _library
    if _library is _UNLOADED:
        try:
            lib = ctypes.CDLL(str(_compile()))
            i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            for name, restype, argtypes in (
                ("cold_sweep_ctx_size", i64, []),
                ("cold_sweep_posts", i64, [ptr, ptr, i64, i64, i64, i64, ptr]),
                ("cold_sweep_links", i64, [ptr, ptr, i64, i64, i64, i64, ptr]),
                ("cold_reduce_sum", f64, [ptr, i64]),
                ("cold_categorical", i64, [ptr, i64, f64, f64]),
                ("cold_topic_log_weights", None, [ptr, i64, i64, ptr]),
                ("cold_topic_draw", i64, [ptr, i64, f64, f64, ptr]),
                ("cold_ic_cascade", None, [ptr, i64, ptr, i64, ptr, ptr]),
                ("cold_ic_reach", None, [ptr, i64, i64, ptr, ptr, i64, ptr]),
                ("cold_planted_posts", i64,
                 [ptr] * 5 + [i64] * 5 + [f64] * 2 + [i64, i64]
                 + [ptr] * 6 + [i64, ptr, i64, ptr]),
                ("cold_planted_links", i64,
                 [ptr] * 3 + [i64, i64, f64, i64, i64] + [ptr] * 3 + [i64, ptr]),
                ("cold_search_right", i64, [ptr, i64, f64]),
                ("cold_guide_table", None, [ptr, i64, i64, i64, ptr]),
                ("cold_guided_search", i64, [ptr, i64, f64]),
                ("cold_psi_draws", None, [i64, i64, f64, ptr, ptr, ptr]),
                ("cold_unique_words", i64, [ptr, ptr, i64] + [ptr] * 4),
                ("cold_retweet_scores", i64,
                 [ptr, i64, ptr, i64, ptr, i64, ptr, i64, ptr]),
            ):
                function = getattr(lib, name)
                function.restype, function.argtypes = restype, argtypes
            if lib.cold_sweep_ctx_size() != ctypes.sizeof(_Context):
                raise OSError("cold_sweep_ctx layout mismatch")
            _library = lib
        except OSError as exc:
            _log.warning(
                "native kernels unavailable (%s); fast sweeps, influence "
                "cascades, planted draws, unique-word tables and retweet "
                "scores run the reference kernels",
                exc,
            )
            _library = None
    return _library


_MASK64 = (1 << 64) - 1


@contextmanager
def pcg64_words(bitgen: np.random.PCG64):
    """``bitgen``'s state as a native kernel's six words, written back after.

    Yields ``(state hi, state lo, inc hi, inc lo, has_uint32, uinteger)``
    as a ``uint64`` array under the bit generator's lock: the LCG state,
    its increment and the buffered half-word numpy's 32-bit draws take
    first.  On a normal exit the advanced state and the buffer go back
    into ``bitgen.state`` (the increment never changes), so the
    generator's next draws continue the kernel's stream.  Kernels that
    draw only 64-bit outputs leave the buffer as it was, as numpy does.
    """
    with bitgen.lock:
        state = bitgen.state
        pcg = state["state"]
        words = np.array(
            [pcg["state"] >> 64, pcg["state"] & _MASK64,
             pcg["inc"] >> 64, pcg["inc"] & _MASK64,
             state["has_uint32"], state["uinteger"]],
            dtype=np.uint64,
        )
        yield words
        pcg["state"] = int(words[0]) << 64 | int(words[1])
        state["has_uint32"], state["uinteger"] = int(words[4]), int(words[5])
        bitgen.state = state


def _address(array: np.ndarray, dtype: type, writable: bool = False) -> int:
    """``array``'s data pointer, after checking the layout the kernel assumes."""
    if (
        array.dtype != dtype
        or not array.flags.c_contiguous
        or (writable and not array.flags.writeable)
    ):
        raise TypeError(
            f"native kernel needs a C-contiguous{' writable' if writable else ''} "
            f"{np.dtype(dtype).name} array, got {array.dtype} "
            f"(flags: {array.flags})"
        )
    return array.ctypes.data


def _buffer_address(array: np.ndarray) -> int | None:
    """The data pointer of a writable C-contiguous array; ``None`` if empty.

    For per-query calls: ``array.ctypes.data`` builds a helper object
    (~0.8 us), a ctypes view of the buffer costs about a third of that.
    Raises ``TypeError`` for a read-only or non-contiguous array.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(array)) if array.size else None


# -- the cache ------------------------------------------------------------------


def _kernel_arrays(state: CountState) -> tuple[np.ndarray, ...]:
    """The state arrays the kernel reads (PostTable, links) and mutates."""
    posts = state.posts
    return (
        posts.authors, posts.times, posts.lengths, posts.offsets,
        posts.unique_words, posts.unique_counts, state.links,
        *(getattr(state, name) for name in _STATE_ARRAYS),
    )


def _table_sizes(state: CountState) -> tuple[int, int, int]:
    """The largest index into each log table: posts, tokens plus the
    longest post, word frequency.

    No Gibbs move changes them: a count of posts in a cell never exceeds
    the posts counted, a topic's token total (plus an offset below a
    post's length) never exceeds the tokens plus the longest post (a
    cached Polya row sums every topic's window at its live total, the
    post's own topic included), and a topic-word count (plus a repeat
    index below its multiplicity) never exceeds the word's corpus
    frequency.
    """
    lengths = state.posts.lengths
    return (
        int(state.n_comm_topic.sum()),
        int(state.n_topic_total.sum()) + (int(lengths.max()) if len(lengths) else 0),
        int(state.n_topic_word.sum(axis=0).max()) if state.n_topic_word.size else 0,
    )


class SweepCache:
    """Incrementally-maintained factor caches and log tables for one chain.

    A cache is bound to one :class:`CountState` *and* one
    :class:`Hyperparameters`; it must observe every assignment move,
    which :func:`fast_sweep` guarantees (the native kernel patches it on
    every move).  :meth:`check_consistency` verifies the cache against a
    from-scratch rebuild, mirroring :meth:`CountState.check_invariants`.
    """

    #: Every cached array, compared bit for bit by check_consistency.
    _ARRAYS = (
        "n_comm_total", "base", "word_topic", "link_factor",
        "log_beta", "log_alpha", "log_T_eps", "log_eps", "log_V_beta",
    )

    def __init__(self, state: CountState, hp: Hyperparameters) -> None:
        with timing.phase("cache_build"):
            self.hp = hp
            self.C = state.num_communities
            self.K = state.num_topics
            self.T = state.n_comm_topic_time.shape[2]
            self.V = state.n_topic_word.shape[1]
            self._table_sizes: tuple[int, int, int] | None = None
            self._bind_counters(state)

    def refresh(self, state: CountState) -> None:
        """Rebind to ``state``'s current counters and assignments.

        ``state`` must hold the same corpus (post table and links) the
        cache was built from; only its counters and assignment arrays may
        differ.  The counter-derived factors are recomputed with the exact
        operations of a fresh build (the log tables depend only on corpus
        totals and are kept), so the refreshed cache is bit-identical to
        ``SweepCache(state, hp)``.  The parallel workers call this once
        per superstep after resetting their private counters to the
        merged snapshot.
        """
        with timing.phase("cache_refresh"):
            self._bind_counters(state)

    @property
    def comm_denom(self) -> np.ndarray:
        """The Eq. (1) interest denominator ``n_c^(.) + K alpha`` per community."""
        return self.n_comm_total + self.K * self.hp.alpha

    def _bind_counters(self, state: CountState) -> None:
        """(Re)compute every counter-derived factor cache from ``state``."""
        hp = self.hp
        sizes = _table_sizes(state)
        if sizes != self._table_sizes:
            self._table_sizes = sizes
            posts = np.arange(sizes[0] + 1)
            self.log_alpha = np.log(posts + hp.alpha)
            self.log_T_eps = np.log(posts + self.T * hp.epsilon)
            self.log_eps = np.log(posts + hp.epsilon)
            self.log_V_beta = np.log(np.arange(sizes[1] + 1) + self.V * hp.beta)
            self.log_beta = np.log(np.arange(sizes[2] + 1) + hp.beta)

        # n_c^(.) as exact integers (the Eq. 1 interest denominator).
        self.n_comm_total = state.n_comm_topic.sum(axis=1)

        # Eq. (3) fused community/time factor, in the reference's
        # association order: base[c, t, k] = log(n_c^k + alpha)
        # + (log(n_ck^t + eps) - log(n_ck^(.) + T eps)).  The (C, T, K)
        # layout makes the per-post gather ``base[c, t]`` one contiguous
        # row.
        n_ck = state.n_comm_topic
        self.base = np.empty((self.C, self.T, self.K))
        np.subtract(
            self.log_eps[state.n_comm_topic_time].transpose(0, 2, 1),
            self.log_T_eps[n_ck][:, None, :],
            out=self.base,
        )
        np.add(self.log_alpha[n_ck][:, None, :], self.base, out=self.base)

        # Transposed copy of n_topic_word: a post's word term reads one
        # contiguous (K,) row per word instead of K scattered elements.
        self.word_topic = np.ascontiguousarray(state.n_topic_word.T)

        # Eq. (2) link factor.
        self.link_factor = (state.n_link_comm + hp.lambda1) / (
            state.n_link_comm + hp.lambda0 + hp.lambda1
        )

        # The kernel's view of state and cache, built here so a sweep
        # pays no set-up.
        self._bind_context(state)

    def _bind_context(self, state: CountState) -> None:
        """Point a fresh kernel context at ``state``'s arrays and this cache's.

        Every index the kernel takes stays in bounds only for the corpus
        and dimensions the cache was built from, so any other ``state``
        is refused.
        """
        if (
            state.n_comm_topic_time.shape != (self.C, self.K, self.T)
            or state.n_topic_word.shape[1] != self.V
            or _table_sizes(state) != self._table_sizes
        ):
            raise ValueError(
                "SweepCache was built for another corpus; build a new one"
            )
        self._ctx_arrays = _kernel_arrays(state)
        spans = np.diff(state.posts.offsets)
        # Three weight rows, then one post's word terms (K = 1).
        self._scratch = np.empty(
            3 * max(self.C * self.C, self.K)
            + (int(spans.max()) if len(spans) else 0)
        )
        # Polya denominator rows per post length, none stamped yet.
        lengths = state.posts.lengths
        rows = (int(lengths.max()) if len(lengths) else 0) + 1
        self._den_rows = np.empty((rows, self.K))
        self._den_stamp = np.full(rows, -1, dtype=np.int64)
        hp = self.hp
        ctx = _Context(
            C=self.C, K=self.K, T=self.T, V=self.V,
            D=state.num_posts, E=state.num_links,
            rho=hp.rho, alpha=hp.alpha, epsilon=hp.epsilon,
            lambda0=hp.lambda0, lambda1=hp.lambda1,
            K_alpha=self.K * hp.alpha, T_eps=self.T * hp.epsilon,
            floor=_WEIGHT_FLOOR,
        )
        read_only = len(self._ctx_arrays) - len(_STATE_ARRAYS)
        pointers = [
            _address(array, np.int64, writable=i >= read_only)
            for i, array in enumerate(self._ctx_arrays)
        ] + [
            _address(getattr(self, name), np.int64 if i < 3 else np.float64)
            for i, name in enumerate(_CACHE_ARRAYS)
        ]
        fields = [f for f, kind in _Context._fields_ if kind is ctypes.c_void_p]
        for field, pointer in zip(fields, pointers):
            setattr(ctx, field, pointer)
        self._ctx = ctx

    def _context(self, state: CountState, timed: bool) -> _Context:
        """The kernel context for one sweep of ``state``, phase slots zeroed.

        A ``state`` whose arrays are not the ones the context points at
        (its fields were rebound) gets a fresh, checked context.
        """
        arrays = _kernel_arrays(state)
        if any(a is not b for a, b in zip(arrays, self._ctx_arrays)):
            self._bind_context(state)
        ctx = self._ctx
        ctx.timed = int(timed)
        ctx.pending_c = -1
        ctx.phase_s = (ctypes.c_double * 6)()
        return ctx

    def check_consistency(self, state: CountState) -> None:
        """Verify every cache against a from-scratch rebuild (tests/debug).

        The kernel's Polya rows stamped at the current epoch must equal
        the reference's row-major ``(K, L)`` window sums bit for bit.
        """
        fresh = SweepCache(state, self.hp)
        for name in self._ARRAYS:
            if not np.array_equal(getattr(self, name), getattr(fresh, name)):
                raise ValueError(f"SweepCache.{name} inconsistent with state")
        for length in np.flatnonzero(self._den_stamp == self._ctx.den_epoch):
            windows = state.n_topic_total[:, None] + np.arange(length)
            if not np.array_equal(
                self._den_rows[length], self.log_V_beta[windows].sum(axis=1)
            ):
                raise ValueError(
                    f"SweepCache Polya row {length} inconsistent with state"
                )


# -- the sweep ------------------------------------------------------------------


#: Posts or links per uniform block: a degenerate draw rewinds and
#: replays at most one block.
_BLOCK_ITEMS = 4096


def _run_kernel(
    kernel,
    ctx: _Context,
    order: np.ndarray,
    arities: tuple[int, ...],
    rng: np.random.Generator,
    loop_start: float | None,
) -> tuple[int, float, float]:
    """Drive one kernel over ``order``.

    Returns the number of degenerate draws, and — when timed, i.e. given
    the ``perf_counter`` reading the loop started at — the seconds spent
    drawing uniform blocks and the loop's wall seconds.  Each item takes
    ``len(arities)`` draws; draw ``d`` is over ``arities[d % len(arities)]``
    outcomes.  The kernel runs ``_BLOCK_ITEMS`` items at a time on one
    block of uniforms.  When it stops at a degenerate draw, the generator
    is rewound to the block's start, the uniforms the kernel consumed are
    replayed, the reference's uniform fallback ``rng.integers(n)`` is
    drawn, and the kernel resumes at that draw with the fallback forced —
    the reference's exact RNG stream.
    """
    perf = time.perf_counter
    timed = loop_start is not None
    bitgen = rng.bit_generator
    width = len(arities)
    draw, forced, pending = 0, -1, -1
    degenerate = 0
    rng_s = 0.0
    ctx_ptr = ctypes.addressof(ctx)
    while draw < width * len(order):
        stop = min(len(order), draw // width + _BLOCK_ITEMS)
        first = draw + (forced >= 0)
        if timed:
            start = perf()
        saved = bitgen.state
        uniforms = rng.random(width * stop - first)
        if timed:
            rng_s += perf() - start
        hit = kernel(
            ctx_ptr, order.ctypes.data, stop, draw, forced, pending,
            uniforms.ctypes.data,
        )
        if hit == -1:
            draw, forced, pending = width * stop, -1, -1
            continue
        bitgen.state = saved
        if hit == -2:
            raise IndexError("sweep visitation order indexes a missing item")
        rng.random(hit - first)
        forced = int(rng.integers(arities[hit % width]))
        pending = ctx.pending_c
        draw = hit
        degenerate += 1
    return degenerate, rng_s, perf() - loop_start if timed else 0.0


def fast_sweep(
    state: CountState,
    hp: Hyperparameters,
    rng: np.random.Generator,
    post_order: list[int] | np.ndarray,
    link_order: list[int] | np.ndarray | None,
    cache: SweepCache,
) -> None:
    """One full Gibbs sweep through the native kernel: every post, then every link.

    Draw for draw this is the reference sweep of :mod:`repro.core.gibbs`
    — ``resample_post`` (community by Eq. 1, then topic by Eq. 3) for each
    post, ``resample_link`` (Eq. 2) for each link — with the same RNG
    consumption order (the link visitation permutation, when not
    supplied, is drawn *after* the post loop exactly as the reference
    sweep draws it).  Without a native library it *is* the reference
    sweep, followed by a cache refresh.

    While a :class:`~repro.telemetry.profiler.PhaseProfiler` is active
    the sweep times its phases; the kernel reads its clock
    (``CLOCK_MONOTONIC``, the clock behind ``perf_counter``) only then and
    never reads the RNG for it, so profiled and dark sweeps draw the
    identical chain.  Phase seconds are flushed once per sweep under paths
    relative to the calling thread's open phases (a worker's ``shard``
    phase, or nothing in a serial fit), rooted at ``sweep``:
    ``posts``/``links`` split into ``resample`` (conditional weights), ``draw`` (uniforms,
    cdf and inverse-transform draw) and ``update`` (counter and cache
    mutation), and ``links;permutation`` times the link visitation
    shuffle.  Each loop's wall time is measured whole, Python side
    included (context binding, uniform blocks, RNG rewinds, the foreign
    call); the kernel splits only every 16th item by phase (clock reads
    would otherwise be a sizeable slice of a microsecond-scale draw), and
    the loop's time outside the uniform blocks is divided in those
    items' proportions (:func:`_split_phases`).
    """
    lib = native_kernel()
    if lib is None:
        reference_sweep(state, hp, rng, post_order, link_order)
        cache.refresh(state)
        return
    profiler = timing.get_profiler()
    timed = profiler is not None
    perf = time.perf_counter
    sweep_start = perf() if timed else None
    C = state.num_communities
    posts = np.ascontiguousarray(post_order, dtype=np.int64)
    links = np.empty(0, dtype=np.int64)
    ctx = cache._context(state, timed)
    degenerate, posts_rng_s, posts_s = _run_kernel(
        lib.cold_sweep_posts, ctx, posts, (C, cache.K), rng, sweep_start
    )
    state.degenerate_draws += degenerate
    permutation_s = links_rng_s = links_s = 0.0
    if state.num_links:
        links_start = perf() if timed else None
        if link_order is None:
            # Draw the link permutation here, after the post loop, so the
            # RNG stream matches the reference sweep exactly.
            links = rng.permutation(state.num_links)
            if timed:
                permutation_s = perf() - links_start
                links_start += permutation_s
        else:
            links = np.ascontiguousarray(link_order, dtype=np.int64)
        degenerate, links_rng_s, links_s = _run_kernel(
            lib.cold_sweep_links, ctx, links, (C * C,), rng, links_start
        )
        state.degenerate_draws += degenerate

    if not timed:
        return
    sweep_s = perf() - sweep_start
    base_path = timing.current_path(profiler) + ("sweep",)
    profiler.add(base_path, sweep_s)
    for name, count, slots, loop_s, rng_s in (
        ("posts", len(posts), ctx.phase_s[0:3], posts_s, posts_rng_s),
        ("links", len(links), ctx.phase_s[3:6], links_s, links_rng_s),
    ):
        if not count:
            continue
        path = base_path + (name,)
        if name == "links":
            profiler.add(path + ("permutation",), permutation_s)
        resample, draw, update = _split_phases(slots, loop_s - rng_s)
        profiler.add(path + ("resample",), resample, count)
        profiler.add(path + ("draw",), draw + rng_s, count)
        profiler.add(path + ("update",), update, count)


def _split_phases(split_s: list[float], loop_s: float) -> list[float]:
    """``[resample, draw, update]`` seconds that sum to ``loop_s``.

    ``split_s`` are the kernel's phase seconds for the items it split;
    ``loop_s`` is the loop's wall time outside the uniform blocks, which
    also covers the unsplit items and the Python side, and is divided
    in the split items' proportions.
    """
    measured = sum(split_s)
    if measured <= 0.0:
        return [loop_s, 0.0, 0.0]
    return [seconds * loop_s / measured for seconds in split_s]
