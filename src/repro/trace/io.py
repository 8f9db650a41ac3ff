"""Persistence for path traces.

Traces are expensive to regenerate (multi-million-event workloads) and
are the natural exchange artifact between collection and analysis, so
the library can save them to a single compressed ``.npz`` file: the
occurrence array as a numpy column plus the interning table serialized
as JSON (histories as hex strings, so signatures of any bit length —
long paths can exceed 64 bits — round-trip exactly).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.errors import TraceError
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace

#: Format version stamped into every file.
FORMAT_VERSION = 1


def path_record(path: Path) -> dict:
    """Canonical JSON-serializable record of one path.

    Every static attribute that can influence a downstream measurement
    is included, so two paths with equal records are interchangeable
    for any experiment.
    """
    signature = path.signature
    return {
        "start_address": signature.start_address,
        "history_hex": format(signature.history, "x"),
        "bit_count": signature.bit_count,
        "indirect_targets": list(signature.indirect_targets),
        "blocks": list(path.blocks),
        "num_instructions": path.num_instructions,
        "num_cond_branches": path.num_cond_branches,
        "num_indirect_branches": path.num_indirect_branches,
        "ends_with_backward_branch": path.ends_with_backward_branch,
    }


def _path_from_record(record: dict) -> Path:
    signature = PathSignature(
        start_address=record["start_address"],
        history=int(record["history_hex"], 16),
        bit_count=record["bit_count"],
        indirect_targets=tuple(record["indirect_targets"]),
    )
    return Path(
        signature=signature,
        blocks=tuple(record["blocks"]),
        start_uid=record["blocks"][0],
        num_instructions=record["num_instructions"],
        num_cond_branches=record["num_cond_branches"],
        num_indirect_branches=record["num_indirect_branches"],
        ends_with_backward_branch=record["ends_with_backward_branch"],
    )


def save_trace(trace: PathTrace, file: str | pathlib.Path) -> pathlib.Path:
    """Write ``trace`` to ``file`` (a ``.npz`` suffix is appended if
    missing); returns the path written."""
    target = pathlib.Path(file)
    if target.suffix != ".npz":
        target = target.with_suffix(target.suffix + ".npz")
    header = {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "paths": [path_record(path) for path in trace.table],
    }
    encoded = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(target, path_ids=trace.path_ids, header=encoded)
    return target


def load_trace(file: str | pathlib.Path) -> PathTrace:
    """Read a trace previously written by :func:`save_trace`."""
    source = pathlib.Path(file)
    if not source.exists() and source.suffix != ".npz":
        source = source.with_suffix(source.suffix + ".npz")
    if not source.exists():
        raise TraceError(f"no trace file at {source}")
    with np.load(source) as data:
        try:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            path_ids = data["path_ids"]
        except KeyError as missing:
            raise TraceError(
                f"{source} is not a repro trace file (missing {missing})"
            ) from None
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace format version {version!r} in {source}"
        )
    table = PathTable()
    for record in header["paths"]:
        table.intern(_path_from_record(record))
    return PathTrace(table, path_ids, name=header.get("name", "trace"))
