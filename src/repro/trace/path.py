"""Program paths and their bit-tracing signatures.

The paper identifies a path by the signature
``<start_address>.<history>,<indirect_branch_target_list>`` — the start
address, one bit per conditional branch outcome, and the target address of
every indirect branch on the path (§2, Figure 1).  Signatures are the
canonical identity of a path here as well: two executions are the same
path exactly when their signatures are equal.

:class:`Path` additionally carries the resolved block sequence and the
static size figures (instructions, conditional branches, indirect
branches) that the profiling overhead and Dynamo cost models consume.
:class:`PathTable` stores many paths as columns and materializes a
:class:`Path` only when a caller asks for one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError


@dataclass(frozen=True, slots=True)
class PathSignature:
    """Bit-tracing identity of a path.

    ``history`` packs the branch outcome bits into an integer, most recent
    bit in the least-significant position exactly as a shift register would
    build it; ``bit_count`` disambiguates leading zeros.
    """

    start_address: int
    history: int
    bit_count: int
    indirect_targets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.bit_count < 0:
            raise TraceError("bit_count must be non-negative")
        if not 0 <= self.history < (1 << self.bit_count):
            raise TraceError(
                f"history {self.history:#x} does not fit in "
                f"{self.bit_count} bits"
            )


@dataclass(frozen=True, slots=True)
class Path:
    """A fully-resolved program path.

    Attributes
    ----------
    signature:
        Bit-tracing identity.
    blocks:
        Uids of the blocks on the path, in execution order.
    start_uid:
        Uid of the first block — the path *head* in NET terminology.
    num_instructions / num_cond_branches / num_indirect_branches:
        Static size figures used by the overhead and Dynamo cost models.
    ends_with_backward_branch:
        True when the path terminated at a backward taken branch (the
        common, loop-closing case) rather than at a return or the halt.
    """

    signature: PathSignature
    blocks: tuple[int, ...]
    start_uid: int
    num_instructions: int
    num_cond_branches: int
    num_indirect_branches: int
    ends_with_backward_branch: bool = True

    def __post_init__(self) -> None:
        if not self.blocks:
            raise TraceError("a path must contain at least one block")
        if self.blocks[0] != self.start_uid:
            raise TraceError("start_uid must match the first block")

    @property
    def num_blocks(self) -> int:
        """Number of blocks on the path."""
        return len(self.blocks)


#: Keys of the per-path static attribute columns a trace reads (see
#: :meth:`PathTable.static_columns`).
STATIC_COLUMN_KEYS = (
    "start_uids",
    "instr",
    "cond",
    "indirect",
    "blocks",
    "ends_backward",
)

#: The stored columns of a :class:`PathTable`, in the order
#: :meth:`PathTable.hash_into` digests them.  Block lists and
#: indirect-target lists are CSR pairs: a per-row count plus every
#: row's values concatenated.
_COLUMNS = {
    "start_address": np.dtype(np.int64),
    "bit_count": np.dtype(np.int64),
    "history": np.dtype(np.uint64),
    "num_instructions": np.dtype(np.int64),
    "num_cond_branches": np.dtype(np.int64),
    "num_indirect_branches": np.dtype(np.int64),
    "ends_backward": np.dtype(bool),
    "block_counts": np.dtype(np.int64),
    "blocks": np.dtype(np.int64),
    "indirect_counts": np.dtype(np.int64),
    "indirect_targets": np.dtype(np.int64),
}

#: Widest history the ``history`` column holds.  Wider ones (long
#: extracted paths) are kept as Python integers beside the columns.
_COLUMN_BITS = 64


class PathTable:
    """Interning table assigning dense integer ids to paths.

    The table is the shared vocabulary between the extractor, the
    profilers, the predictors and the metrics: every occurrence stream
    speaks in table ids.

    Paths are stored as columns, not as one object per path, so the
    tens of thousands of synthetic paths of a workload surrogate cost a
    few arrays.  Rows arrive one at a time through :meth:`intern`, which
    keeps the :class:`Path` it is given, or many at a time through
    :meth:`append_rows`.  :meth:`path` materializes a :class:`Path` on
    demand and memoizes it; :meth:`lookup` and :meth:`intern` share a
    signature index built on first use.  Memoized paths, the index and
    the derived columns are rebuilt on demand.  Several threads may
    read a table at once; appending needs a single writer with no
    concurrent readers.
    """

    def __init__(self) -> None:
        self._size = 0
        # Every row but the pending ones, as read-only columns.
        self._stored = {
            key: np.zeros(0, dtype=dtype) for key, dtype in _COLUMNS.items()
        }
        # Interned paths whose rows are not stored yet.  Readers on
        # several threads may race to store them, so storing holds the
        # lock and empties the list only once the rows are stored.
        self._pending: list[Path] = []
        self._store_lock = threading.Lock()
        # Row -> history, for histories wider than _COLUMN_BITS.
        self._wide: dict[int, int] = {}
        self._paths: dict[int, Path] = {}
        self._index: dict[PathSignature, int] | None = None
        self._static: dict[str, np.ndarray] | None = None
        self._offsets: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Appending rows
    # ------------------------------------------------------------------
    def intern(self, path: Path) -> int:
        """Return the id for ``path``, registering it if new."""
        index = self._signature_index()
        signature = path.signature
        existing = index.get(signature)
        if existing is not None:
            return existing
        path_id = self._size
        index[signature] = path_id
        self._paths[path_id] = path
        self._pending.append(path)
        self._grow(1)
        return path_id

    def append_rows(
        self,
        *,
        start_address,
        history,
        bit_count,
        block_counts,
        blocks,
        num_instructions,
        num_cond_branches,
        ends_backward,
    ) -> np.ndarray:
        """Append one row per entry of ``block_counts``; return their ids.

        ``blocks`` holds the rows' block lists concatenated; every other
        argument holds one value per row, or one value for all rows.
        Rows appended this way have no indirect branches and histories
        of at most 64 bits (:meth:`intern` takes any path).  The checks
        :class:`Path`, :class:`PathSignature` and :meth:`intern` make
        hold here too, vectorized: every row has a block (the first is
        its head by construction), ``0 <= history < 2**bit_count``, and
        no two rows of the table share a signature.
        """
        counts = np.array(block_counts, dtype=np.int64, ndmin=1)
        rows = len(counts)

        def per_row(value, dtype) -> np.ndarray:
            column = np.empty(rows, dtype=dtype)
            column[:] = value
            return column

        flat = np.array(blocks, dtype=np.int64, ndmin=1)
        if (counts < 1).any():
            raise TraceError("a path must contain at least one block")
        if len(flat) != counts.sum():
            raise TraceError(
                f"{len(flat)} blocks given for rows of {counts.sum()}"
            )
        bits = per_row(bit_count, np.int64)
        if ((bits < 0) | (bits > _COLUMN_BITS)).any():
            raise TraceError(
                f"appended rows need bit counts in [0, {_COLUMN_BITS}]"
            )
        given = np.asarray(history)
        if given.dtype.kind not in "iu":
            raise TraceError(f"histories must be integers, not {given.dtype}")
        if (given < 0).any():
            raise TraceError("history must be non-negative")
        histories = per_row(given, np.uint64)
        # numpy shifts a uint64 by 64 or more to 0.
        if (histories >> bits.astype(np.uint64)).any():
            raise TraceError("a history does not fit in its bit count")
        addresses = per_row(start_address, np.int64)
        self._check_new_signatures(addresses, histories, bits)

        self._flush_pending()
        self._store(
            {
                "start_address": addresses,
                "bit_count": bits,
                "history": histories,
                "num_instructions": per_row(num_instructions, np.int64),
                "num_cond_branches": per_row(num_cond_branches, np.int64),
                "num_indirect_branches": np.zeros(rows, dtype=np.int64),
                "ends_backward": per_row(ends_backward, bool),
                "block_counts": counts,
                "blocks": flat,
                "indirect_counts": np.zeros(rows, dtype=np.int64),
                "indirect_targets": np.zeros(0, dtype=np.int64),
            }
        )
        # The index would need one signature per new row; rebuild it
        # lazily instead.
        self._index = None
        first = self._size
        self._grow(rows)
        return np.arange(first, first + rows, dtype=np.int64)

    def _check_new_signatures(
        self,
        addresses: np.ndarray,
        histories: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Reject indirect-free rows whose signatures are not new.

        Such a row's signature is its (start address, bit count,
        history), so it can only repeat another new row or an existing
        row without indirect targets: sort all of them and compare
        neighbours.
        """
        existing = self._columns()
        plain = existing["indirect_counts"] == 0
        keys = [
            np.concatenate((existing[key][plain], new))
            for key, new in (
                ("history", histories),
                ("bit_count", bits),
                ("start_address", addresses),
            )
        ]
        order = np.lexsort(keys)
        repeated = np.ones(max(len(order) - 1, 0), dtype=bool)
        for key in keys:
            ordered = key[order]
            repeated &= ordered[1:] == ordered[:-1]
        if repeated.any():
            raise TraceError("appended rows repeat a path signature")

    def _grow(self, rows: int) -> None:
        self._size += rows
        self._static = None
        self._offsets = None

    def _store(self, rows: dict) -> None:
        """Append ``rows`` (values per column) to the stored columns."""
        stored = {
            key: np.concatenate(
                (self._stored[key], np.asarray(rows[key], dtype=dtype))
            )
            for key, dtype in _COLUMNS.items()
        }
        for column in stored.values():
            column.flags.writeable = False
        self._stored = stored

    def _flush_pending(self) -> None:
        """Store the rows of the interned paths not stored yet."""
        if not self._pending:
            return
        with self._store_lock:
            if self._pending:
                self._store_pending()
                self._pending = []

    def _store_pending(self) -> None:
        paths = self._pending
        signatures = [path.signature for path in paths]
        first = self._size - len(paths)
        for row, signature in enumerate(signatures, start=first):
            if signature.bit_count > _COLUMN_BITS:
                self._wide[row] = signature.history
        self._store(
            {
                "start_address": [s.start_address for s in signatures],
                "bit_count": [s.bit_count for s in signatures],
                "history": [
                    0 if s.bit_count > _COLUMN_BITS else s.history
                    for s in signatures
                ],
                "num_instructions": [p.num_instructions for p in paths],
                "num_cond_branches": [p.num_cond_branches for p in paths],
                "num_indirect_branches": [
                    p.num_indirect_branches for p in paths
                ],
                "ends_backward": [
                    p.ends_with_backward_branch for p in paths
                ],
                "block_counts": [len(p.blocks) for p in paths],
                "blocks": [uid for p in paths for uid in p.blocks],
                "indirect_counts": [
                    len(s.indirect_targets) for s in signatures
                ],
                "indirect_targets": [
                    t for s in signatures for t in s.indirect_targets
                ],
            }
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _columns(self) -> dict[str, np.ndarray]:
        """Every row's stored columns (read-only)."""
        self._flush_pending()
        return self._stored

    def _row_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each row's blocks and indirect targets start (CSR)."""
        if self._offsets is None:
            columns = self._columns()
            self._offsets = tuple(
                np.concatenate(([0], np.cumsum(columns[key])))
                for key in ("block_counts", "indirect_counts")
            )
        return self._offsets

    def static_columns(self) -> dict[str, np.ndarray]:
        """Per-path static attribute arrays, keyed by
        :data:`STATIC_COLUMN_KEYS` (read-only, memoized until the table
        grows)."""
        if self._static is None:
            columns = self._columns()
            block_offsets, _ = self._row_offsets()
            heads = columns["blocks"][block_offsets[:-1]]
            heads.flags.writeable = False
            self._static = {
                "start_uids": heads,
                "instr": columns["num_instructions"],
                "cond": columns["num_cond_branches"],
                "indirect": columns["num_indirect_branches"],
                "blocks": columns["block_counts"],
                "ends_backward": columns["ends_backward"],
            }
        return self._static

    def _signature(self, row: int) -> PathSignature:
        columns = self._columns()
        _, target_offsets = self._row_offsets()
        targets = columns["indirect_targets"][
            target_offsets[row] : target_offsets[row + 1]
        ]
        return PathSignature(
            start_address=int(columns["start_address"][row]),
            history=self._wide.get(row, int(columns["history"][row])),
            bit_count=int(columns["bit_count"][row]),
            indirect_targets=tuple(targets.tolist()),
        )

    def _signature_index(self) -> dict[PathSignature, int]:
        if self._index is None:
            self._index = {
                self._signature(row): row for row in range(self._size)
            }
        return self._index

    def lookup(self, signature: PathSignature) -> int | None:
        """Id of the path with ``signature``, or ``None`` if unseen."""
        return self._signature_index().get(signature)

    def path(self, path_id: int) -> Path:
        """The path registered under ``path_id``."""
        path = self._paths.get(path_id)
        if path is not None:
            return path
        if not 0 <= path_id < self._size:
            raise TraceError(f"no path with id {path_id}")
        row = int(path_id)
        columns = self._columns()
        block_offsets, _ = self._row_offsets()
        blocks = tuple(
            columns["blocks"][
                block_offsets[row] : block_offsets[row + 1]
            ].tolist()
        )
        path = Path(
            signature=self._signature(row),
            blocks=blocks,
            start_uid=blocks[0],
            num_instructions=int(columns["num_instructions"][row]),
            num_cond_branches=int(columns["num_cond_branches"][row]),
            num_indirect_branches=int(
                columns["num_indirect_branches"][row]
            ),
            ends_with_backward_branch=bool(columns["ends_backward"][row]),
        )
        self._paths[row] = path
        return path

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return (self.path(row) for row in range(self._size))

    def hash_into(self, hasher) -> None:
        """Feed the table's content to ``hasher`` (a :mod:`hashlib` object).

        Every stored column goes in as canonical little-endian bytes
        behind its name, dtype and length, then every history wider
        than the ``history`` column as ``row:hex``.  Equal tables feed
        equal bytes however their rows arrived and whatever the host's
        byte order; tables that differ in any path attribute feed
        different bytes.
        """
        columns = self._columns()
        for key, dtype in _COLUMNS.items():
            column = np.ascontiguousarray(
                columns[key], dtype=dtype.newbyteorder("<")
            )
            header = f"{key}:{column.dtype.str}:{len(column)}\x00"
            hasher.update(header.encode("ascii"))
            hasher.update(column)
        wide = ";".join(
            f"{row}:{history:x}" for row, history in sorted(self._wide.items())
        )
        hasher.update(f"wide:{wide}\x00".encode("ascii"))
