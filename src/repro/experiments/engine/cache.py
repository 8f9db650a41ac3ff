"""Content-addressed on-disk cache for sweep results.

A sweep cell's result is a pure function of three inputs: the trace
content, the scheme, and the prediction delay — plus the code that
computes it.  The cache keys every :class:`~repro.experiments.sweep.SweepPoint`
by a SHA-256 digest over exactly those inputs:

* :func:`trace_digest` — the trace's name, its full path table (every
  static attribute of every path: the table's columns, full-precision
  histories and indirect-target lists, via
  :meth:`repro.trace.path.PathTable.hash_into`) and the raw occurrence
  array.  Any change to the workload generator's output changes the
  digest, so stale results can never be served for a regenerated
  trace.  Columns and occurrence array are canonicalized to explicit
  little-endian dtypes before hashing, so the digest is a property of
  the trace's *content*, not of the host's byte order or of how the
  dtype happens to be spelled (``int64`` vs ``>i8``) — caches are
  portable between machines.  (Digests taken before the table was
  hashed by columns differ, so cache entries written then miss once
  and are recomputed; the graph state still reaches them through its
  recorded ``cache_key``.)
* the scheme name and τ;
* :data:`CODE_VERSION` — a manual tag naming the semantics of the
  predictor/metric pipeline.  Bump it whenever a change to the
  predictors, the quality metrics, or the hot-set definition alters
  what a sweep cell *means*; every previously cached entry then misses
  and is recomputed.

Entries are one JSON file per key under the cache root (created
lazily), written atomically via a temp file + ``os.replace``.  The
cache is strictly best-effort in both directions: a missing,
unreadable, truncated or corrupt entry is logged, counted as an
invalidation and treated as a miss — the engine recomputes and
overwrites — and a store that fails for *any* reason (an unwritable
disk as much as a point that does not serialize) is logged and counted
as a failed store.  Cache failures never propagate to the experiment.
A corrupt entry is additionally *quarantined*: renamed to
``<key>.corrupt`` (and counted under ``quarantined``) so a persistently
bad file is parsed and logged at most once, never on every run, while
its bytes remain available for post-mortem inspection.

Accounting lives in :class:`CacheStats`, a read-view over
``repro.obs`` counters: hand :class:`SweepCache` an observability
registry (see :mod:`repro.obs`) and its hit/miss/store traffic appears
in the run manifest under that registry's prefix.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import tempfile
import weakref

import numpy as np

from repro.experiments.sweep import SweepPoint
from repro.obs.core import Registry
from repro.trace.recorder import PathTrace

logger = logging.getLogger(__name__)

#: Semantic version of the sweep pipeline, mixed into every cache key.
#: Bump on any change to predictors, metrics, or the hot-set definition.
CODE_VERSION = "sweep-engine-v1"

#: On-disk layout version of one cache entry file.
ENTRY_FORMAT = 1

#: Canonical occurrence-array dtype hashed by :func:`trace_digest`:
#: little-endian 8-byte signed, whatever the host's native order is.
_DIGEST_DTYPE = np.dtype("<i8")

#: Digest memo, keyed weakly by trace object so it never pins a trace in
#: memory.  The value carries the table size *and* the occurrence count
#: seen at digest time: a shared path table can grow after the digest
#: was taken (another trace recorded over the same table), and a trace
#: object whose ``path_ids`` attribute is reassigned changes content the
#: table size alone cannot see — either way the entry is detected as
#: stale and recomputed rather than served.  (In-place mutation is ruled
#: out at the source: ``PathTrace`` freezes its occurrence array.)
_digest_memo: "weakref.WeakKeyDictionary[PathTrace, tuple[int, int, str]]" = (
    weakref.WeakKeyDictionary()
)


def trace_digest(trace: PathTrace) -> str:
    """Stable content digest of a trace.

    Covers the name (it appears verbatim in every result), the complete
    path table and the occurrence sequence.  Two traces with equal
    digests produce identical sweep results; the digest is identical on
    little- and big-endian hosts and for any equivalent dtype spelling
    of the occurrence array.

    Memoized per trace object: the engine digests the same traces once
    per ``run_sweep`` call (for cache addressing *and* for data-plane
    residency keys), and hashing a long occurrence array is the kind of
    per-run fixed cost the sweep loop should pay once.
    """
    memo = _digest_memo.get(trace)
    if (
        memo is not None
        and memo[0] == trace.num_paths
        and memo[1] == len(trace.path_ids)
    ):
        return memo[2]
    hasher = hashlib.sha256()
    hasher.update(trace.name.encode("utf-8"))
    hasher.update(b"\x00")
    trace.table.hash_into(hasher)
    hasher.update(b"\x00")
    ids = np.ascontiguousarray(trace.path_ids, dtype=_DIGEST_DTYPE)
    hasher.update(_DIGEST_DTYPE.str.encode("utf-8"))
    hasher.update(ids.tobytes())
    digest = hasher.hexdigest()
    try:
        _digest_memo[trace] = (trace.num_paths, len(trace.path_ids), digest)
    except TypeError:  # pragma: no cover - unweakreferenceable subclass
        pass
    return digest


def process_umask() -> int:
    """The current process umask.

    ``os`` offers no read-only accessor, so this is the usual
    set-and-restore dance; it is not atomic against concurrent
    ``os.umask`` calls in other threads, which nothing in this codebase
    makes.
    """
    current = os.umask(0)
    os.umask(current)
    return current


def _discard_file(path: pathlib.Path) -> None:
    """Best-effort unlink (already-gone and unwritable are both fine)."""
    try:
        path.unlink()
    except OSError:  # pragma: no cover - already gone or unwritable
        pass


def atomic_write_text(path: str | pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, honoring the umask.

    ``tempfile.mkstemp`` deliberately creates private mode-0600 files,
    which is wrong for published cache entries: a cache directory shared
    between users or CI jobs would fill with entries only their creator
    can read back (silent invalidation churn for everyone else).  The
    temp file is therefore chmod'ed to ``0o666 & ~umask`` — exactly what
    a plain ``open(path, "w")`` would have produced — before the rename
    publishes it.  Readers never observe a partial file.
    """
    target = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name[:12]}.", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp_name, 0o666 & ~process_umask())
        os.replace(tmp_name, target)
    except BaseException:
        _discard_file(pathlib.Path(tmp_name))
        raise


def cache_key(
    trace_digest_hex: str,
    scheme: str,
    delay: int,
    version: str = CODE_VERSION,
) -> str:
    """Content address of one sweep cell."""
    payload = json.dumps(
        {
            "trace": trace_digest_hex,
            "scheme": scheme,
            "delay": int(delay),
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CacheStats:
    """Hit/miss accounting of one :class:`SweepCache` instance.

    A read-view over ``repro.obs`` counters: pass a registry (typically
    a ``child("sweep.cache")`` of a run's root registry) and the counts
    flow into that run's manifest; without one the stats keep a private
    registry and behave exactly as before.

    ``misses`` counts every lookup that forced a recompute (including
    the ones caused by invalidation); ``invalidations`` counts entries
    discarded because they could not be read back; ``store_failures``
    counts puts that could not be persisted (never fatal).
    """

    def __init__(self, registry: Registry | None = None):
        self._registry = registry if registry is not None else Registry()
        self._hits = self._registry.counter("hits")
        self._misses = self._registry.counter("misses")
        self._stores = self._registry.counter("stores")
        self._invalidations = self._registry.counter("invalidations")
        self._store_failures = self._registry.counter("store_failures")
        self._quarantined = self._registry.counter("quarantined")

    @property
    def hits(self) -> int:
        """Lookups served from disk."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Lookups that forced a recompute."""
        return self._misses.value

    @property
    def stores(self) -> int:
        """Entries successfully persisted."""
        return self._stores.value

    @property
    def invalidations(self) -> int:
        """Entries discarded as unreadable or corrupt."""
        return self._invalidations.value

    @property
    def store_failures(self) -> int:
        """Puts that failed to persist (logged, never propagated)."""
        return self._store_failures.value

    @property
    def quarantined(self) -> int:
        """Corrupt entries renamed to ``<key>.corrupt`` for post-mortem."""
        return self._quarantined.value

    @property
    def lookups(self) -> int:
        """Total ``get`` calls served."""
        return self.hits + self.misses

    def render(self) -> str:
        """One-line report form."""
        text = (
            f"sweep cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.invalidations} invalidated"
        )
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        if self.store_failures:
            text += f", {self.store_failures} failed stores"
        return text


def _point_from_payload(payload: dict) -> SweepPoint:
    """Rebuild a SweepPoint, coercing every field to its exact type."""
    return SweepPoint(
        benchmark=str(payload["benchmark"]),
        scheme=str(payload["scheme"]),
        delay=int(payload["delay"]),
        profiled_flow_percent=float(payload["profiled_flow_percent"]),
        hit_rate=float(payload["hit_rate"]),
        noise_rate=float(payload["noise_rate"]),
        num_predicted=int(payload["num_predicted"]),
        num_predicted_hot=int(payload["num_predicted_hot"]),
    )


def _point_to_payload(point: SweepPoint) -> dict:
    return {
        "benchmark": point.benchmark,
        "scheme": point.scheme,
        "delay": point.delay,
        "profiled_flow_percent": point.profiled_flow_percent,
        "hit_rate": point.hit_rate,
        "noise_rate": point.noise_rate,
        "num_predicted": point.num_predicted,
        "num_predicted_hot": point.num_predicted_hot,
    }


class SweepCache:
    """Content-addressed store of sweep points under one directory.

    The root directory is created lazily on the first store, so pointing
    the engine at a fresh path costs nothing until a result exists.
    ``obs`` mounts the cache's accounting on an observability registry
    (see :class:`CacheStats`).
    """

    def __init__(self, root: str | pathlib.Path, obs: Registry | None = None):
        self.root = pathlib.Path(root)
        self.stats = CacheStats(obs)

    def entry_path(self, key: str) -> pathlib.Path:
        """Where ``key``'s entry lives (whether or not it exists)."""
        return self.root / f"{key}.json"

    def quarantine_path(self, key: str) -> pathlib.Path:
        """Where ``key``'s entry lands if it is found corrupt."""
        return self.root / f"{key}.corrupt"

    def get(self, key: str) -> SweepPoint | None:
        """The cached point for ``key``, or ``None`` on miss.

        Unreadable or corrupt entries degrade to a miss: the problem is
        logged and counted in :attr:`CacheStats.invalidations`, and a
        corrupt entry is *quarantined* — renamed to ``<key>.corrupt`` —
        so it can never be re-parsed and re-logged on a later run, while
        the bytes stay on disk for post-mortem inspection.
        """
        stats = self.stats
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            stats._misses.inc()
            return None
        except OSError as error:
            logger.warning(
                "sweep cache: unreadable entry %s (%s); recomputing",
                path,
                error,
            )
            stats._invalidations.inc()
            stats._misses.inc()
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
            if entry["entry_format"] != ENTRY_FORMAT:
                raise ValueError(
                    f"entry format {entry['entry_format']!r} != {ENTRY_FORMAT}"
                )
            if entry["key"] != key:
                raise ValueError("entry key does not match its address")
            point = _point_from_payload(entry["point"])
        except (ValueError, KeyError, TypeError) as error:
            logger.warning(
                "sweep cache: corrupt entry %s (%s); quarantined, "
                "recomputing",
                path,
                error,
            )
            self._quarantine(path, self.quarantine_path(key))
            stats._invalidations.inc()
            stats._quarantined.inc()
            stats._misses.inc()
            return None
        stats._hits.inc()
        return point

    def put(self, key: str, point: SweepPoint) -> None:
        """Store ``point`` under ``key`` (atomic, best-effort).

        Failures never propagate, whatever their shape: an I/O error is
        as non-fatal as a point whose fields do not serialize (a
        non-finite float, a stray numpy scalar, …).  Both are logged and
        counted in :attr:`CacheStats.store_failures`; the sweep goes on
        with the computed point.
        """
        entry = {
            "entry_format": ENTRY_FORMAT,
            "key": key,
            "code_version": CODE_VERSION,
            "point": _point_to_payload(point),
        }
        path = self.entry_path(key)
        try:
            # allow_nan=False keeps entries standard JSON; a non-finite
            # field fails the store instead of writing a token other
            # parsers reject.
            blob = json.dumps(entry, allow_nan=False)
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, blob)
        except (OSError, TypeError, ValueError) as error:
            logger.warning(
                "sweep cache: could not store entry %s (%s)", path, error
            )
            self.stats._store_failures.inc()
            return
        self.stats._stores.inc()

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        _discard_file(path)

    @staticmethod
    def _quarantine(path: pathlib.Path, target: pathlib.Path) -> None:
        """Move a corrupt entry aside (best-effort; deletes as a last
        resort so the poison can never be served again)."""
        try:
            os.replace(path, target)
        except OSError:  # cross-device or unwritable quarantine target
            SweepCache._discard(path)
