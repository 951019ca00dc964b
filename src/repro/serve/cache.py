"""The ``repro-cache-v1`` journal: crash-safe content-addressed results.

The service's cache key is the *request*, not the model name: a SHA-256
over the canonical JSON of ``{"model": ..., "options": ...}`` (sorted keys,
no whitespace), computed after the server clamps the options to its
budgets.  Two requests that differ only in key order or formatting hash
identically; two requests that differ in any analysed bit do not.

Persistence is the sweep checkpoint's file format
(:class:`repro.sweep.checkpoint.JsonlJournal`): an append-only JSONL file
whose first line names the schema, with every record flushed *and fsynced*
before the response leaves the server.  A SIGKILLed server therefore
restarts warm -- and because each record stores the exact response body
string, a recovered entry is served byte-identical to the original
response.  A torn final line (killed mid-append) is ignored on load and
truncated before the restarted server appends; a corrupt complete line
cannot happen under the fsync discipline and fails the load loudly.
"""

from __future__ import annotations

import hashlib
import json

from repro.sweep.checkpoint import JsonlJournal, read_journal
from repro.util.errors import AnalysisError

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "canonical_json",
    "load_cache",
    "request_fingerprint",
]

CACHE_SCHEMA = "repro-cache-v1"


def canonical_json(payload) -> str:
    """The one true serialisation: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def request_fingerprint(model: dict, options: dict) -> str:
    """Content address of one analysis request (clamped options included)."""
    text = canonical_json({"model": model, "options": options})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_cache(path: str) -> dict[str, str]:
    """Load ``{fingerprint: response body}`` from a journal at *path*.

    A missing file is an empty cache.  Later records win over earlier ones
    (a re-analysis after a quarantine cooldown may legitimately append a
    fresh entry for an old fingerprint).
    """
    _header, records = read_journal(path, "cache", CACHE_SCHEMA)
    entries: dict[str, str] = {}
    for position, record in records:
        fingerprint = record.get("fingerprint")
        body = record.get("body")
        if not isinstance(fingerprint, str) or not isinstance(body, str):
            raise AnalysisError(
                f"unusable cache {path}: record on line {position} lacks "
                "fingerprint/body"
            )
        entries[fingerprint] = body
    return entries


class ResultCache:
    """In-memory content-addressed result store with an optional journal."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.entries: dict[str, str] = {}
        self._journal: JsonlJournal | None = None
        if path is not None:
            self.entries = load_cache(path)
            self._journal = JsonlJournal(path, {"schema": CACHE_SCHEMA})

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, fingerprint: str) -> str | None:
        return self.entries.get(fingerprint)

    def put(self, fingerprint: str, model_name: str, body: str) -> None:
        """Store (and journal, fsynced) one response body."""
        self.entries[fingerprint] = body
        if self._journal is not None:
            self._journal.append({
                "fingerprint": fingerprint,
                "model": model_name,
                "body": body,
            })

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
