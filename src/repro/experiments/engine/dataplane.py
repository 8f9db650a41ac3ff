"""Zero-copy sweep data plane: trace residency in shared memory.

The sweep engine's unit of work is tiny — one (scheme, τ) replay — but
its unit of *data* is huge: a benchmark trace is a multi-hundred-
thousand-element occurrence array plus a path table.  Before this
module existed, every pooled batch pickled its whole trace into the
``ProcessPoolExecutor`` submit queue, so a 306-cell Figure 2 sweep
shipped each trace dozens of times and parallel execution lost to
serial on data movement alone.

The data plane inverts that: traces become *resident*, batches become
*references*.

* :class:`TraceArchive` is a columnar snapshot of everything the replay
  pipeline reads from a :class:`~repro.trace.recorder.PathTrace`: the
  occurrence array plus the six per-path static attribute columns
  (:data:`~repro.trace.recorder.STATIC_COLUMN_KEYS`) and the name.  It
  serializes to one flat buffer (:meth:`TraceArchive.to_bytes`) and
  deserializes *without copying* — :meth:`TraceArchive.from_buffer`
  builds numpy views straight into the buffer.
* :class:`TraceDataPlane` (parent side) publishes each archive into a
  :mod:`multiprocessing.shared_memory` segment — once, ever — and hands
  out :class:`ArchiveHandle` descriptors a few dozen bytes long.  When
  shared memory is unavailable (no ``/dev/shm``, exotic platforms, or a
  failed segment creation) it degrades to carrying the archive bytes
  inline in the handle: still columnar, still pickled at most once per
  worker, just not zero-copy.
* The worker side (:func:`install_worker_handles`,
  :func:`worker_context`) keeps a per-process store keyed by trace
  digest.  A batch arrives as ``(digest, cells)``; the first batch of a
  digest attaches the segment, restores the trace and builds its
  :class:`ReplayContext`; every later batch reuses it.  A trace
  therefore crosses the process boundary **at most once per worker**,
  and per-trace precomputation (hot set, occurrence index) happens at
  most once per worker per benchmark.

Lifecycle: the parent owns the segments.  :meth:`TraceDataPlane.close`
closes and unlinks every segment and is idempotent; the executor calls
it in a ``finally`` so normal completion, pool restarts, serial
fallback, fault exhaustion and Ctrl-C all release shared memory.
Workers only ever *attach*; their mappings die with the worker process
and the parent's ``unlink`` removes the name, so nothing leaks whether
a worker exits cleanly or is killed mid-replay.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.errors import ExperimentError
from repro.metrics.hotpaths import HotPathSet, hot_path_set
from repro.obs.core import Registry, get_registry
from repro.trace.recorder import STATIC_COLUMN_KEYS, PathTrace

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - minimal builds only
    _shared_memory = None

#: Magic prefix of a serialized archive buffer (versioned).
_MAGIC = b"RTARC1\x00"

#: Alignment of every column inside the buffer; keeps int64 views
#: aligned and cache-line friendly.
_ALIGN = 64

#: Cached availability probe result (``None`` = not probed yet).
_shm_probe: bool | None = None


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def shared_memory_available() -> bool:
    """Whether POSIX/Windows shared memory actually works here.

    Probes once per process by creating (and immediately unlinking) a
    tiny segment; import success alone does not guarantee a usable
    backing store.  Tests monkeypatch this to force the copy fallback.
    """
    global _shm_probe
    if _shm_probe is None:
        if _shared_memory is None:
            _shm_probe = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _shm_probe = True
            except OSError:
                _shm_probe = False
    return _shm_probe


def _attach_segment(name: str):
    """Attach an existing segment, untracked where the API allows.

    Python 3.13+ accepts ``track=False``, which keeps the attaching
    process's resource tracker out of the segment's lifecycle — the
    parent that created it is the sole owner.  Older versions attach
    tracked; with the default ``fork`` start method the workers share
    the parent's tracker, so the parent's single ``unlink`` still
    settles the books.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return _shared_memory.SharedMemory(name=name)


class TraceArchive:
    """Columnar, buffer-serializable snapshot of one trace.

    Parameters
    ----------
    name:
        The trace's benchmark name (appears verbatim in sweep points).
    num_paths:
        Path-table size; kept explicitly because the table may intern
        paths that never occur.
    path_ids:
        The occurrence array.
    columns:
        The per-path static attribute columns, keyed by
        :data:`~repro.trace.recorder.STATIC_COLUMN_KEYS`.
    """

    __slots__ = ("name", "num_paths", "path_ids", "columns")

    def __init__(
        self,
        name: str,
        num_paths: int,
        path_ids: np.ndarray,
        columns: dict[str, np.ndarray],
    ):
        self.name = name
        self.num_paths = int(num_paths)
        self.path_ids = path_ids
        self.columns = columns

    @classmethod
    def from_trace(cls, trace: PathTrace) -> "TraceArchive":
        """Snapshot ``trace`` (also warming its column cache)."""
        return cls(
            name=trace.name,
            num_paths=trace.num_paths,
            path_ids=trace.path_ids,
            columns=trace.static_columns(),
        )

    def restore(self) -> PathTrace:
        """A replay-equivalent :class:`PathTrace` over the columns."""
        return PathTrace.from_columns(
            self.name, self.num_paths, self.path_ids, self.columns
        )

    # -- serialization -------------------------------------------------
    def _arrays(self) -> list[tuple[str, np.ndarray]]:
        ordered = [("path_ids", self.path_ids)]
        ordered.extend((key, self.columns[key]) for key in STATIC_COLUMN_KEYS)
        return ordered

    def to_bytes(self) -> bytes:
        """One flat buffer: magic, JSON header, aligned column data."""
        specs = []
        blobs = []
        offset = 0
        for key, array in self._arrays():
            array = np.ascontiguousarray(array)
            offset = _align(offset)
            specs.append(
                {
                    "key": key,
                    "dtype": array.dtype.str,
                    "length": int(len(array)),
                    "offset": offset,
                }
            )
            blobs.append((offset, array))
            offset += array.nbytes
        header = json.dumps(
            {
                "name": self.name,
                "num_paths": self.num_paths,
                "arrays": specs,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        data_start = _align(len(_MAGIC) + 4 + len(header))
        buffer = bytearray(data_start + offset)
        buffer[: len(_MAGIC)] = _MAGIC
        buffer[len(_MAGIC) : len(_MAGIC) + 4] = len(header).to_bytes(
            4, "little"
        )
        buffer[len(_MAGIC) + 4 : len(_MAGIC) + 4 + len(header)] = header
        for start, array in blobs:
            begin = data_start + start
            buffer[begin : begin + array.nbytes] = array.tobytes()
        return bytes(buffer)

    @classmethod
    def from_buffer(cls, buffer) -> "TraceArchive":
        """Deserialize without copying: every array is a view into
        ``buffer`` (which must stay alive as long as the archive).

        The views are marked read-only where the buffer permits writes,
        so a worker bug can never scribble on a segment other workers
        are replaying from.
        """
        view = memoryview(buffer)
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise ExperimentError("not a trace archive buffer")
        header_len = int.from_bytes(
            view[len(_MAGIC) : len(_MAGIC) + 4], "little"
        )
        header = json.loads(
            bytes(view[len(_MAGIC) + 4 : len(_MAGIC) + 4 + header_len])
        )
        data_start = _align(len(_MAGIC) + 4 + header_len)
        arrays: dict[str, np.ndarray] = {}
        for spec in header["arrays"]:
            array = np.frombuffer(
                view,
                dtype=np.dtype(spec["dtype"]),
                count=spec["length"],
                offset=data_start + spec["offset"],
            )
            if array.flags.writeable:
                array.flags.writeable = False
            arrays[spec["key"]] = array
        path_ids = arrays.pop("path_ids")
        return cls(
            name=header["name"],
            num_paths=header["num_paths"],
            path_ids=path_ids,
            columns=arrays,
        )


class ArchiveHandle:
    """Picklable pointer to one published archive.

    Exactly one of ``shm_name`` (zero-copy mode) and ``payload``
    (inline copy fallback) is set.  The handle is what crosses the
    process boundary — a few dozen bytes in shared-memory mode.
    """

    __slots__ = ("digest", "shm_name", "size", "payload")

    def __init__(
        self,
        digest: str,
        shm_name: str | None,
        size: int,
        payload: bytes | None = None,
    ):
        self.digest = digest
        self.shm_name = shm_name
        self.size = size
        self.payload = payload

    def __getstate__(self) -> tuple:
        return (self.digest, self.shm_name, self.size, self.payload)

    def __setstate__(self, state: tuple) -> None:
        self.digest, self.shm_name, self.size, self.payload = state


class ReplayContext:
    """Memoized per-trace replay state shared by every cell.

    Holds the trace plus the cross-cell precomputations the sweep
    needs: the 0.1% hot set and, via the trace's own cache, the
    occurrence-index grouping and NET's head-arrival ranks (the memo
    that lets every delay's NET cell answer by threshold).  One context
    exists per trace digest per process — the parent for serial
    execution, each pool worker for pooled execution — so the Figure 2
    sweep computes nine hot sets and nine rank memos per process instead
    of one per 8-cell batch or per NET cell.
    """

    __slots__ = ("trace", "_hot")

    def __init__(self, trace: PathTrace):
        self.trace = trace
        self._hot: HotPathSet | None = None

    @property
    def hot(self) -> HotPathSet:
        """The trace's hot set, computed on first use."""
        if self._hot is None:
            self._hot = hot_path_set(self.trace)
        return self._hot


class TraceDataPlane:
    """Parent-side owner of the published trace archives.

    ``obs`` mounts the plane's accounting (``published`` / ``bytes`` /
    ``segments`` / ``fallback_copies`` / ``unlinked``) on an
    observability registry; ``use_shm=None`` auto-detects shared-memory
    support and ``False`` forces the inline-copy fallback.
    """

    def __init__(
        self, obs: Registry | None = None, use_shm: bool | None = None
    ):
        self._obs = get_registry(obs)
        self._segments: dict[str, object] = {}
        self._handles: dict[str, ArchiveHandle] = {}
        self._closed = False
        self.use_shm = (
            shared_memory_available() if use_shm is None else bool(use_shm)
        )

    def publish(self, digest: str, trace: PathTrace) -> ArchiveHandle:
        """Make ``trace`` resident under ``digest``; returns its handle.

        Publishing the same digest twice is a no-op returning the
        existing handle.  A failed segment creation (out of shared
        memory, say) degrades that one trace to the inline fallback
        rather than failing the sweep.
        """
        existing = self._handles.get(digest)
        if existing is not None:
            return existing
        if self._closed:
            raise ExperimentError("data plane is closed")
        blob = TraceArchive.from_trace(trace).to_bytes()
        self._obs.counter("published").inc()
        self._obs.counter("bytes").inc(len(blob))
        handle: ArchiveHandle | None = None
        if self.use_shm:
            try:
                segment = _shared_memory.SharedMemory(
                    create=True, size=len(blob)
                )
                segment.buf[: len(blob)] = blob
                self._segments[digest] = segment
                self._obs.gauge("segments").set(len(self._segments))
                handle = ArchiveHandle(digest, segment.name, len(blob))
            except OSError:
                handle = None
        if handle is None:
            self._obs.counter("fallback_copies").inc()
            handle = ArchiveHandle(digest, None, len(blob), payload=blob)
        self._handles[digest] = handle
        return handle

    def handles(self) -> dict[str, ArchiveHandle]:
        """Digest → handle map, as shipped to pool initializers."""
        return dict(self._handles)

    def close(self) -> None:
        """Release every segment (idempotent, exception-safe).

        Unlinking while workers are still attached is safe: their
        mappings stay valid until they exit, and the name is gone the
        moment this returns — a leak is impossible whichever order the
        parent and its workers die in.
        """
        if self._closed:
            return
        self._closed = True
        for segment in self._segments.values():
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass
            try:
                segment.unlink()
                self._obs.counter("unlinked").inc()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        self._segments.clear()
        self._obs.gauge("segments").set(0)

    def __enter__(self) -> "TraceDataPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side: the per-process trace store
# ----------------------------------------------------------------------

#: Digest → handle, installed by the pool initializer.
_worker_handles: dict[str, ArchiveHandle] = {}

#: Digest → memoized replay context (built on first touch).
_worker_contexts: dict[str, ReplayContext] = {}

#: Digest → attached SharedMemory, kept alive for the process lifetime
#: so the zero-copy numpy views never lose their buffer.
_worker_segments: dict[str, object] = {}

#: Segments displaced by a reinstall that could not be closed because
#: live numpy views still pinned their buffer.  Parked here so their
#: ``__del__`` never fires mid-view; the mappings die with the process.
_retired_segments: list = []


def install_worker_handles(handles: dict[str, ArchiveHandle]) -> None:
    """Pool initializer: (re)install the digest → archive handle map.

    Runs once in every worker process — including respawned pools after
    a crash — and resets the store, so a stale context can never
    outlive the sweep that published it.
    """
    _worker_handles.clear()
    _worker_handles.update(handles)
    _worker_contexts.clear()
    for segment in _worker_segments.values():
        try:
            segment.close()
        except (OSError, BufferError):
            # A lingering numpy view still pins the old mapping; park
            # the segment so its destructor never runs under the view.
            _retired_segments.append(segment)
    _worker_segments.clear()


def worker_context(digest: str) -> tuple[ReplayContext, float | None]:
    """The (memoized) replay context for ``digest`` in this process.

    Returns ``(context, install_seconds)`` where ``install_seconds`` is
    the one-time attach/restore cost when this call built the context,
    or ``None`` when it was already resident.
    """
    context = _worker_contexts.get(digest)
    if context is not None:
        return context, None
    start = time.perf_counter()
    handle = _worker_handles.get(digest)
    if handle is None:
        raise ExperimentError(
            f"no trace archive installed for digest {digest[:12]}…; "
            "was the pool initialized by the data plane?"
        )
    if handle.shm_name is not None:
        segment = _attach_segment(handle.shm_name)
        _worker_segments[digest] = segment
        archive = TraceArchive.from_buffer(segment.buf)
    else:
        archive = TraceArchive.from_buffer(handle.payload)
    context = ReplayContext(archive.restore())
    _worker_contexts[digest] = context
    return context, time.perf_counter() - start
