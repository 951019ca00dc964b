"""Federations: finite unions of DBMs over the same clock set.

Zones (single DBMs) are closed under intersection, delay and reset, but not
under union or complement.  A :class:`Federation` keeps a list of
non-redundant DBMs and is used where a union naturally appears, e.g. for the
set of zones stored per discrete state in the passed list and for reporting
the clock valuations that witness a property violation.

Storage
-------
The raw-bound matrices of the member zones are kept stacked row-wise in one
preallocated numpy buffer that grows by doubling, and that stack is the only
copy of each member: :attr:`Federation.zones` and iteration build
:class:`~repro.core.dbm.DBM` copies from the rows when asked.  Inserting
``N`` zones performs only ``O(N)`` total row copies (the seed implementation
re-stacked the whole array on every insert, i.e. ``O(N^2)``).  The
``stack_copies`` counter records the row copies actually performed; the test
suite uses it to pin down the amortised bound.

The inclusion checks -- the passed-list check, the hottest operation of the
reachability engine, and the eviction of members a new zone covers -- are
the ``covers``, ``covers_many`` and ``evict_masks`` kernels of
:mod:`repro.core.kernels`, each one call against all stored zones at once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core import kernels
from repro.core.dbm import DBM
from repro.util.errors import ModelError

__all__ = ["Federation"]


class Federation:
    """A finite, redundancy-reduced union of :class:`~repro.core.dbm.DBM` zones."""

    __slots__ = ("dim", "_buf", "_n", "stack_copies")

    def __init__(self, dim: int, zones: Iterable[DBM] = ()):
        self.dim = dim
        #: row-stacked raw matrices of the member zones; rows ``[0:_n]`` valid
        self._buf: np.ndarray = np.empty((0, dim * dim), dtype=np.int64)
        self._n: int = 0
        #: total member-zone rows copied while growing/compacting the stack
        self.stack_copies: int = 0
        self.add_many(zones)

    # -- collection protocol ---------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[DBM]:
        return iter(self.zones)

    def __bool__(self) -> bool:
        return self._n > 0

    @property
    def zones(self) -> tuple[DBM, ...]:
        """Copies of the member zones, in stack order."""
        return tuple(DBM(self.dim, raw=row) for row in self._buf[: self._n])

    # -- mutation -----------------------------------------------------------------
    def add(self, zone: DBM) -> bool:
        """Add *zone* unless it is empty or already covered.

        Zones previously stored that are covered by the new zone are removed.
        Returns ``True`` when the federation actually grew (i.e. the zone was
        not redundant) -- this is exactly the check used by the passed list of
        the reachability engine.
        """
        if zone.dim != self.dim:
            raise ModelError("zone dimension does not match federation dimension")
        if zone.is_empty() or self.covers(zone):
            return False
        self._append_uncovered(zone.m)
        return True

    def add_uncovered(self, zone: DBM) -> None:
        """Append *zone*, which the caller knows is non-empty and not covered.

        The reachability engine establishes non-coverage with :meth:`covers`
        on the raw successor zone before paying for extrapolation (see
        ``Explorer._store``), so re-testing it here would be wasted work.
        Stored zones that the new zone covers are still evicted.
        """
        self._append_uncovered(zone.m)

    def _append_uncovered(self, candidate: np.ndarray) -> None:
        if self._n:
            # the members the candidate covers: covers_many with the roles
            # swapped, the candidate as the one "member"
            self._evict_covered(kernels.covers_many(candidate[None, :], self._buf[: self._n]))
        self._append(candidate)

    def add_many_uncovered(self, stack: np.ndarray) -> None:
        """Batched :meth:`add_uncovered` for a run of pre-screened zones.

        ``stack`` holds one raw-bound matrix per zone, shaped like the
        argument of :meth:`covers_many`.  Semantically identical to calling
        ``add_uncovered`` on each zone in order: the caller certifies (as
        for :meth:`add_uncovered`) that each zone was non-empty and not
        covered by any member present *at its turn* -- including the
        earlier zones of the batch.  Eviction is collapsed into one pass:
        previously stored members covered by any batch zone are dropped,
        and a batch zone covered by a *later* batch zone is dropped before
        insertion (exactly the members sequential adds would have evicted;
        relative order is preserved on both sides).

        Used by the decide step of the layered core, which screens a round's
        candidates with :meth:`covers_many` + within-round screens and then
        flushes each target federation once with the stored rows.
        """
        if not len(stack):
            return
        rows = stack.reshape(len(stack), -1)  # (k, dim * dim)
        if rows.shape[1] != self.dim * self.dim:
            raise ModelError("stack dimension does not match federation dimension")
        if len(rows) == 1:
            self._append_uncovered(rows[0])
            return
        # previously stored members covered by any batch zone, and batch
        # zones covered by a *later* batch zone (earlier zones cannot cover
        # later ones -- the caller screened)
        doomed_members, doomed = kernels.evict_masks(self._buf[: self._n], rows)
        self._evict_covered(doomed_members)
        kept = rows[~doomed]
        self._grow(self._n + len(kept))
        self._buf[self._n : self._n + len(kept)] = kept
        self._n += len(kept)

    def _evict_covered(self, covered: np.ndarray) -> None:
        """Drop the stored zones flagged in the boolean row mask *covered*."""
        if covered.any():
            keep = ~covered
            kept = int(keep.sum())
            self._buf[:kept] = self._buf[: self._n][keep]
            self.stack_copies += kept
            self._n = kept

    def _append(self, candidate: np.ndarray) -> None:
        n = self._n
        if n == len(self._buf):
            self._grow(n + 1)
        self._buf[n] = candidate
        self._n = n + 1

    def add_many(self, zones: Iterable[DBM]) -> int:
        """Add every zone in *zones*; returns how many actually grew the union.

        Semantically identical to calling :meth:`add` in order, but reserves
        stack capacity for the whole batch up front.
        """
        zones = list(zones)
        if not zones:
            return 0
        if any(z.dim != self.dim for z in zones):
            raise ModelError("zone dimension does not match federation dimension")
        self._grow(self._n + len(zones))
        return sum(1 for zone in zones if self.add(zone))

    def _grow(self, needed: int) -> None:
        """Ensure stack capacity for *needed* rows (amortised doubling)."""
        capacity = len(self._buf)
        if needed <= capacity:
            return
        # doubling from a single row: most passed-list keys hold one zone,
        # and a 4-row minimum capacity raised the benchmark's peak RSS by
        # 0.8 MB on fuzz-window and 0.6 MB on serve-analyze (3 runs each)
        new_capacity = max(capacity * 2, needed)
        new_buf = np.empty((new_capacity, self.dim * self.dim), dtype=np.int64)
        if self._n:
            new_buf[: self._n] = self._buf[: self._n]
            self.stack_copies += self._n
        self._buf = new_buf

    # -- queries ----------------------------------------------------------------------
    def covers(self, zone: DBM) -> bool:
        """Return ``True`` if some member zone includes *zone* entirely.

        Note this is inclusion in a *single* member (the standard passed-list
        check), not inclusion in the union.
        """
        if not self._n:
            return False
        return kernels.covers(self._buf[: self._n], zone.m)

    def covers_many(self, stack: np.ndarray) -> np.ndarray:
        """Batched :meth:`covers` over a stack of candidate zones.

        ``stack`` holds one raw-bound matrix per candidate, either as a
        ``(k, dim, dim)`` zone array or already flattened to
        ``(k, dim * dim)``.  Returns a boolean mask:
        entry ``c`` is ``True`` when some *single* member zone includes
        candidate ``c`` entirely -- the passed-list check of the layered
        core, one vectorised comparison per key and round.

        The verdict only depends on the *set* of member zones, not on their
        insertion order: redundancy eviction removes a stored zone only when
        the evicting zone includes it, so anything the evicted zone covered
        stays covered.  For the same reason verdicts are monotone under
        later insertions (``True`` can never revert to ``False``): callers
        caching a mask across mutations may keep trusting positive entries
        and need only re-check negative ones against the zones stored since
        (the within-round screens of :mod:`repro.core.shard` rely on this).
        """
        if not len(stack):
            return np.zeros(0, dtype=bool)
        flat = stack.reshape(len(stack), -1)
        if flat.shape[1] != self.dim * self.dim:
            raise ModelError("stack dimension does not match federation dimension")
        if not self._n:
            return np.zeros(len(flat), dtype=bool)
        return kernels.covers_many(self._buf[: self._n], flat)

    def is_empty(self) -> bool:
        """True when the federation contains no zone."""
        return self._n == 0

    def contains_point(self, point) -> bool:
        """True when some member zone contains the concrete valuation."""
        return any(member.contains_point(point) for member in self.zones)

    def upper_bound(self, clock: int) -> int:
        """Largest raw upper bound of *clock* over all member zones."""
        if not self._n:
            raise ModelError("empty federation has no bounds")
        return int(self._buf[: self._n, clock * self.dim].max())

    def __str__(self) -> str:
        return " U ".join(str(zone) for zone in self.zones) or "(empty)"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Federation(dim={self.dim}, size={len(self)})"
