"""The ``repro-checkpoint-v1`` journal: crash-safe sweep progress on disk.

A campaign over many cells must survive interruption -- SIGINT, a machine
reboot, an OOM-killed parent -- without losing the hours of work already
done.  The journal is an append-only JSONL file:

* line 1 is a header naming the schema, the number of cells and a
  *fingerprint* of the cell list (order-sensitive hash of the cell names),
  so a checkpoint can never be resumed against a different sweep;
* every further line records one completed cell as
  ``{"index": i, "name": ..., "result": {...}}`` where ``result`` is the
  flat :class:`~repro.sweep.runner.CellResult` dict.

Each record is flushed *and fsynced* before the supervisor moves on, so the
journal never claims more work than actually reached the disk; a torn final
line (the process died mid-write) is detected and ignored on load.  Resume
is a pure merge: completed indices are served from the journal verbatim and
the remaining cells run normally, which makes a resumed
:class:`~repro.sweep.runner.SweepResult` deterministic-field identical to
an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields
from typing import IO, Sequence

from repro.util.errors import AnalysisError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointJournal",
    "load_checkpoint",
    "sweep_fingerprint",
]

CHECKPOINT_SCHEMA = "repro-checkpoint-v1"


def sweep_fingerprint(cell_names: Sequence[str]) -> str:
    """Order-sensitive fingerprint of a sweep's cell list."""
    digest = hashlib.sha256(json.dumps(list(cell_names)).encode("utf-8"))
    return digest.hexdigest()[:16]


def _result_to_dict(result) -> dict:
    return asdict(result)


def _result_from_dict(data: dict):
    """Rebuild a CellResult from its JSON form (lists back to tuples)."""
    # imported here: runner imports this module, not the other way around
    from repro.sweep.runner import CellResult

    payload = dict(data)
    unknown = sorted(set(payload) - {f.name for f in fields(CellResult)})
    if unknown:
        raise AnalysisError(
            f"unknown result field(s) {', '.join(unknown)}: the journal was "
            "written by a different version of repro-sweep; rerun the sweep "
            "without --resume"
        )
    for key in ("counterexamples", "witness_problems"):
        if key in payload:
            payload[key] = tuple(payload[key])
    if "policy_mix" in payload:
        payload["policy_mix"] = tuple(
            (str(name), int(count)) for name, count in payload["policy_mix"]
        )
    return CellResult(**payload)


def load_checkpoint(path: str, cell_names: Sequence[str]) -> dict[int, object]:
    """Load completed results from *path*, validated against *cell_names*.

    Returns ``{cell index: CellResult}``.  A missing file is an empty
    checkpoint (nothing completed yet); a file written for a different cell
    list raises: silently mixing two sweeps' results would be corruption,
    not resumption.  A torn trailing line (interrupt mid-write) is ignored;
    torn *earlier* lines cannot happen (each record is fsynced before the
    next begins) and raise.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return {}
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"unusable checkpoint {path}: bad header ({exc})") from exc
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise AnalysisError(
            f"unusable checkpoint {path}: schema {header.get('schema')!r} "
            f"(expected {CHECKPOINT_SCHEMA!r})"
        )
    fingerprint = sweep_fingerprint(cell_names)
    if header.get("fingerprint") != fingerprint:
        raise AnalysisError(
            f"checkpoint {path} was written for a different sweep "
            f"(fingerprint {header.get('fingerprint')!r} != {fingerprint!r}); "
            "refusing to merge results across sweeps"
        )
    completed: dict[int, object] = {}
    for position, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if position == len(lines):
                # torn final line: the process died mid-append; the cell
                # never completed as far as the journal is concerned
                break
            raise AnalysisError(
                f"unusable checkpoint {path}: corrupt record on line {position} ({exc})"
            ) from exc
        index = int(record["index"])
        if not 0 <= index < len(cell_names):
            raise AnalysisError(
                f"unusable checkpoint {path}: cell index {index} out of range"
            )
        if record.get("name") != cell_names[index]:
            raise AnalysisError(
                f"unusable checkpoint {path}: record {index} names "
                f"{record.get('name')!r}, sweep has {cell_names[index]!r}"
            )
        try:
            completed[index] = _result_from_dict(record["result"])
        except AnalysisError as exc:
            raise AnalysisError(
                f"unusable checkpoint {path}: record on line {position}: {exc}"
            ) from None
    return completed


class CheckpointJournal:
    """Append-only, fsync-per-record journal of completed sweep cells."""

    def __init__(self, path: str, cell_names: Sequence[str], resume: bool = False):
        self.path = path
        self.cell_names = list(cell_names)
        self.completed: dict[int, object] = {}
        self._handle: IO[str] | None = None
        if resume:
            self.completed = load_checkpoint(path, self.cell_names)
        fresh = not resume or not os.path.exists(path)
        # line-buffered append; a fresh journal truncates any stale file
        self._handle = open(path, "w" if fresh else "a", encoding="utf-8")
        if fresh:
            self._write_line(json.dumps({
                "schema": CHECKPOINT_SCHEMA,
                "fingerprint": sweep_fingerprint(self.cell_names),
                "cells": len(self.cell_names),
            }))

    def _write_line(self, line: str) -> None:
        handle = self._handle
        assert handle is not None
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def record(self, index: int, result) -> None:
        """Journal one completed cell (flushed and fsynced before returning)."""
        self.completed[index] = result
        self._write_line(json.dumps({
            "index": index,
            "name": result.name,
            "result": _result_to_dict(result),
        }))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
