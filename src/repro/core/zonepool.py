"""Pooled allocation of DBM backing buffers.

The reachability engine copies a zone for every transition it fires and
throws most of those copies away almost immediately (guard failures, empty
intersections, inclusion-checked successors).  Allocating a fresh numpy
buffer for each copy makes the allocator the bottleneck of the hot path, so
:class:`ZonePool` keeps a per-dimension free list of flat ``int64`` buffers:

* :meth:`ZonePool.acquire` hands out a buffer of ``dim * dim`` raw bounds
  (contents are *undefined* -- callers must fill it),
* :meth:`ZonePool.release` returns a buffer to the free list so the next
  ``copy()`` can reuse it without touching the allocator.

:class:`~repro.core.dbm.DBM` instances acquire their buffer here and give it
back through :meth:`~repro.core.dbm.DBM.discard` when the engine knows the
zone is dead.  A buffer that is never discarded is simply garbage-collected
with its DBM; the pool holds no reference to buffers in use, so forgetting to
discard can never cause aliasing.  Discarding twice (or using a DBM after
discarding it) is a bug; ``discard`` therefore severs the DBM from its buffer
so that any later access fails loudly.

Besides single-zone buffers the pool also recycles the *stacked* block
buffers of the batched frontier kernels (:class:`~repro.core.dbm.DBMStack`):
:meth:`ZonePool.acquire_block` hands out a flat buffer able to hold a whole
block of ``dim x dim`` matrices (capacities are rounded up to powers of two
so the free lists stay small) and :meth:`ZonePool.release_block` takes it
back.

The pool is intentionally not thread-safe: the exploration engine is
single-threaded and a lock on every zone copy would cost more than the pool
saves.

Process safety
--------------
The pool is *per process*.  Sweep workers started with the ``spawn`` start
method import this module afresh and therefore get their own pool; workers
started with ``fork`` inherit a copy-on-write snapshot of the parent's free
lists, which is memory-safe (buffers live in separate address spaces after
the fork) but may be *inconsistent* if the fork happened while another
thread was mutating a free list.  :func:`reset_global_pool` restores the
invariants by dropping every pooled buffer and is registered with
``os.register_at_fork`` so that forked children always start from a clean
pool; :mod:`repro.core.dbm` registers the analogous reset for its scratch
and extrapolation-grid caches.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["SharedZonePool", "ZonePool", "global_zone_pool", "reset_global_pool"]


#: largest block capacity (rows) the pool keeps for reuse: a wide round of
#: the layered core must not pin its buffers for the rest of the process.
#: The core also chunks its stacks to this size; without the cap and the
#: chunking the sp-exact benchmark's peak RSS rose by 5.8 MB and its wall
#: time did not improve (3 runs each)
_MAX_POOLED_ROWS = 64


def _block_capacity(rows: int) -> int:
    """Round a block row count up to the pooled capacity (power of two)."""
    return max(4, 1 << (int(rows) - 1).bit_length())


class ZonePool:
    """A per-dimension free list of flat ``(dim * dim,)`` int64 buffers."""

    __slots__ = ("max_per_dim", "max_blocks_per_key", "_free", "_free_blocks",
                 "acquired", "reused", "released", "dropped")

    def __init__(self, max_per_dim: int = 4096, max_blocks_per_key: int = 64):
        #: free-list capacity per dimension; excess released buffers are dropped
        self.max_per_dim = max_per_dim
        #: free-list capacity per (dim, block capacity); excess is dropped
        self.max_blocks_per_key = max_blocks_per_key
        self._free: dict[int, list[np.ndarray]] = {}
        #: stacked block buffers keyed by (dim, row capacity)
        self._free_blocks: dict[tuple[int, int], list[np.ndarray]] = {}
        # counters (observability; also used by the pool tests)
        self.acquired = 0
        self.reused = 0
        self.released = 0
        self.dropped = 0

    def acquire(self, dim: int) -> np.ndarray:
        """Return a flat ``(dim * dim,)`` int64 buffer with undefined contents."""
        self.acquired += 1
        free = self._free.get(dim)
        if free:
            self.reused += 1
            return free.pop()
        return np.empty(dim * dim, dtype=np.int64)

    def release(self, dim: int, buffer: np.ndarray) -> None:
        """Return *buffer* (previously acquired for *dim*) to the free list."""
        free = self._free.setdefault(dim, [])
        if len(free) < self.max_per_dim:
            free.append(buffer)
            self.released += 1
        else:
            self.dropped += 1

    def acquire_block(self, rows: int, dim: int) -> np.ndarray:
        """Return a flat int64 buffer holding at least ``rows`` ``dim x dim``
        matrices (undefined contents).

        The buffer's capacity is ``rows`` rounded up to a power of two (at
        least 4), so its true row capacity can be recovered from its size;
        callers view the leading ``rows`` matrices and hand the whole buffer
        back through :meth:`release_block`.
        """
        capacity = _block_capacity(rows)
        self.acquired += 1
        free = self._free_blocks.get((dim, capacity))
        if free:
            self.reused += 1
            return free.pop()
        return np.empty(capacity * dim * dim, dtype=np.int64)

    def release_block(self, dim: int, buffer: np.ndarray) -> None:
        """Return a block buffer previously acquired for *dim* to the pool."""
        capacity = buffer.shape[0] // (dim * dim)
        free = self._free_blocks.setdefault((dim, capacity), [])
        if capacity <= _MAX_POOLED_ROWS and len(free) < self.max_blocks_per_key:
            free.append(buffer)
            self.released += 1
        else:
            self.dropped += 1

    def free_count(self, dim: int) -> int:
        """Number of buffers currently pooled for *dim* (for tests/metrics)."""
        return len(self._free.get(dim, ()))

    def free_block_count(self, dim: int) -> int:
        """Number of block buffers currently pooled for *dim* (tests/metrics)."""
        return sum(
            len(buffers) for (d, _cap), buffers in self._free_blocks.items() if d == dim
        )

    def clear(self) -> None:
        """Drop every pooled buffer (does not reset the counters)."""
        self._free.clear()
        self._free_blocks.clear()

    def reset(self) -> None:
        """Drop every pooled buffer and zero the counters.

        Used to re-initialise the process-wide pool in freshly forked sweep
        workers: the inherited free lists are memory-safe but may have been
        snapshotted mid-mutation, and the inherited counters describe the
        parent process, not this one.
        """
        self._free.clear()
        self._free_blocks.clear()
        self.acquired = 0
        self.reused = 0
        self.released = 0
        self.dropped = 0

    def stats(self) -> dict:
        """Counter snapshot for benchmarks and diagnostics."""
        return {
            "acquired": self.acquired,
            "reused": self.reused,
            "released": self.released,
            "dropped": self.dropped,
            "pooled": {dim: len(buffers) for dim, buffers in self._free.items() if buffers},
            "pooled_blocks": {
                f"{dim}x{cap}": len(buffers)
                for (dim, cap), buffers in self._free_blocks.items()
                if buffers
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ZonePool(acquired={self.acquired}, reused={self.reused})"


class SharedZonePool:
    """Per-worker outboxes of flat int64 zone rows in shared memory.

    The sharded exploration engine (:mod:`repro.core.shard`) ships raw zone
    matrices between worker processes.  Pickling every row through a pipe
    would copy each matrix twice per hand-off; instead the coordinator
    creates one ``multiprocessing.shared_memory`` segment per worker
    *before* forking, each worker writes the rows of its outgoing
    candidates into its own segment, and the receiving worker reads them
    straight out of the sender's segment -- the pipe carries only
    ``(offset, count)`` descriptors.  The round barrier of the sharded
    engine provides both the happens-before edge (descriptors travel after
    the rows are written) and the reuse guarantee (a segment is rewound
    only after every reader of the previous round has replied).

    Only the creating process may :meth:`close` the pool; forked workers
    exit with ``os._exit`` and never touch the segments' lifetime.  The
    numpy views must be dropped before closing, or ``SharedMemory.close``
    refuses with "cannot close exported pointers exist".
    """

    def __init__(self, workers: int, dim: int, rows: int = 8192):
        from multiprocessing import shared_memory

        self.dim = dim
        self.capacity_rows = rows
        self._segments = []
        self._views: list[np.ndarray] = []
        try:
            for _ in range(workers):
                segment = shared_memory.SharedMemory(
                    create=True, size=rows * dim * dim * 8
                )
                self._segments.append(segment)
                self._views.append(
                    np.frombuffer(segment.buf, dtype=np.int64).reshape(
                        rows, dim * dim
                    )
                )
        except BaseException:
            self.close()
            raise

    def write(self, rank: int, offset: int, rows: np.ndarray) -> bool:
        """Copy *rows* into worker *rank*'s segment at row *offset*.

        Returns ``False`` (without writing) when the rows do not fit; the
        caller then spills them inline through the pipe instead.
        """
        count = len(rows)
        if offset + count > self.capacity_rows:
            return False
        self._views[rank][offset : offset + count] = rows.reshape(count, -1)
        return True

    def read(self, rank: int, offset: int, count: int) -> np.ndarray:
        """Copy *count* rows out of worker *rank*'s segment at *offset*."""
        return self._views[rank][offset : offset + count].copy()

    def close(self) -> None:
        """Drop the views and close + unlink every segment (creator only)."""
        self._views.clear()
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - platform-specific teardown
                pass
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - already unlinked
                pass


#: the process-wide pool used by :class:`~repro.core.dbm.DBM`
_GLOBAL_POOL = ZonePool()


def global_zone_pool() -> ZonePool:
    """The process-wide zone pool (single-threaded use only)."""
    return _GLOBAL_POOL


def reset_global_pool() -> ZonePool:
    """Re-initialise the process-wide pool in place and return it.

    The pool object itself is kept (modules hold direct references to it),
    only its free lists and counters are reset.  Registered as an
    ``os.register_at_fork`` child hook so forked sweep workers never run on
    free lists snapshotted mid-mutation; ``spawn`` workers re-import the
    module and need no reset.
    """
    _GLOBAL_POOL.reset()
    return _GLOBAL_POOL


if hasattr(os, "register_at_fork"):  # not available on Windows
    os.register_at_fork(after_in_child=reset_global_pool)
