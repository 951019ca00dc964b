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

Each record is flushed *and fsynced* before :meth:`CheckpointJournal.record`
returns, so the journal never claims more work than actually reached the
disk.  A record counts once its newline is written: the bytes after the last
newline are a torn append (the process died mid-write), ignored on load and
truncated before the journal appends again.  Resume is a pure merge:
completed indices are served from the journal verbatim and the remaining
cells run normally, which makes a resumed
:class:`~repro.sweep.runner.SweepResult` deterministic-field identical to
an uninterrupted run.

:class:`JsonlJournal` and :func:`read_journal` are the file format alone --
header line, fsync per record, torn-tail handling -- shared with the
service's ``repro-cache-v1`` journal (:mod:`repro.serve.cache`).
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
    "JsonlJournal",
    "load_checkpoint",
    "read_journal",
    "sweep_fingerprint",
]

CHECKPOINT_SCHEMA = "repro-checkpoint-v1"


def read_journal(path: str, kind: str, schema: str):
    """Read a :class:`JsonlJournal` file: ``(header, [(line, record), ...])``.

    A missing file, or one without a complete line, is ``(None, [])``.  Only
    newline-terminated lines count: the bytes after the last newline are a
    torn append (the writer died mid-record, so the record never completed)
    and are ignored.  A corrupt complete line cannot come from a crash --
    each record is fsynced before the next begins -- and raises, as does a
    header of another *schema*.  *kind* names the journal in the errors.
    """
    if not os.path.exists(path):
        return None, []
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data[: data.rfind(b"\n") + 1].decode("utf-8").split("\n")[:-1]
    if not lines:
        return None, []
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"unusable {kind} {path}: bad header ({exc})") from exc
    if header.get("schema") != schema:
        raise AnalysisError(
            f"unusable {kind} {path}: schema {header.get('schema')!r} "
            f"(expected {schema!r})"
        )
    records = []
    for position, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append((position, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise AnalysisError(
                f"unusable {kind} {path}: corrupt record on line {position} ({exc})"
            ) from exc
    return header, records


class JsonlJournal:
    """Append-only JSONL file: a header line, then one fsynced line per record.

    ``append=False`` starts the file afresh.  Otherwise an existing journal
    is reopened: its torn tail is truncated first, so the next record starts
    on a line of its own, and a file without a complete line gets *header*.
    """

    def __init__(self, path: str, header: dict, append: bool = True):
        self.path = path
        if append and os.path.exists(path):
            with open(path, "r+b") as handle:
                handle.truncate(handle.read().rfind(b"\n") + 1)
        self._handle: IO[str] | None = open(path, "a" if append else "w",
                                            encoding="utf-8")
        if self._handle.tell() == 0:
            self.append(header)

    def append(self, record: dict) -> None:
        """Write one record; returns once it is flushed and fsynced."""
        handle = self._handle
        assert handle is not None
        handle.write(json.dumps(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sweep_fingerprint(cell_names: Sequence[str]) -> str:
    """Order-sensitive fingerprint of a sweep's cell list."""
    digest = hashlib.sha256(json.dumps(list(cell_names)).encode("utf-8"))
    return digest.hexdigest()[:16]


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
    not resumption.  A torn final line is ignored (:func:`read_journal`).
    """
    header, records = read_journal(path, "checkpoint", CHECKPOINT_SCHEMA)
    if header is None:
        return {}
    fingerprint = sweep_fingerprint(cell_names)
    if header.get("fingerprint") != fingerprint:
        raise AnalysisError(
            f"checkpoint {path} was written for a different sweep "
            f"(fingerprint {header.get('fingerprint')!r} != {fingerprint!r}); "
            "refusing to merge results across sweeps"
        )
    completed: dict[int, object] = {}
    for position, record in records:
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


class CheckpointJournal(JsonlJournal):
    """Append-only, fsync-per-record journal of completed sweep cells."""

    def __init__(self, path: str, cell_names: Sequence[str], resume: bool = False):
        self.cell_names = list(cell_names)
        self.completed: dict[int, object] = {}
        if resume:
            self.completed = load_checkpoint(path, self.cell_names)
        # a fresh journal truncates any stale file
        super().__init__(path, {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": sweep_fingerprint(self.cell_names),
            "cells": len(self.cell_names),
        }, append=resume)

    def record(self, index: int, result) -> None:
        """Journal one completed cell (flushed and fsynced before returning)."""
        self.completed[index] = result
        self.append({
            "index": index,
            "name": result.name,
            "result": asdict(result),
        })
