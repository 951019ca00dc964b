"""Zone kernels: one C source compiled on first import, or its numpy twins.

Every zone operation the engine runs in a loop is bound here once, at
import, to one of two backends:

* **compiled**: the functions of ``_zonekernels.c`` (next to this module),
  built with the system C compiler (``cc``) into a per-user cache and
  loaded with :mod:`ctypes`;
* **numpy**: the vectorised numpy bodies below, used when there is no
  compiler or the build or load fails.

The engine's hot path is two calls:

* :func:`fire` runs every plan of one discrete key -- guards, resets, the
  target's invariants and the delay -- against a ``(count, dim, dim)``
  int64 block of zones in one call.  The plans come as a packed int64
  *firing program* (:func:`plan_record`, :func:`firing_program`), built once
  per key next to its plans.  Only live rows are written, into caller-owned
  storage.
* :func:`decide` runs one round of the layered core's store discipline over
  the round's key-grouped candidate rows in one call: per key the coverage
  check against the passed federation, the within-round screen on the raw
  rows, extrapolation of the survivors, the screen again, and the two
  eviction masks of the federation flush.

The other names serve single zones and queries: rank-1 ``constrain_stack``
(:meth:`~repro.core.dbm.DBM.constrain`, the clock half of a query),
``extrapolate_stack`` (the scalar loop's store, the initial state and the
witness replay) and the federation inclusion checks ``covers`` and
``covers_many``.  The successor generator (:mod:`repro.core.successors`),
:class:`~repro.core.dbm.DBM`, :class:`~repro.core.federation.Federation` and
the decide step of :mod:`repro.core.shard` call the names bound here and
never ask which backend is in effect; both produce bit-identical zones and
verdicts.  :data:`BACKEND` says which one runs: ``"compiled"``, or
``"numpy: <reason>"`` after a fallback.  Nothing selects the backend but
the availability of a working compiler.

The cache
---------
The library is built into ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), created with mode 0700.  Loading a shared library is
code execution, so a directory that another user owns, or that group or
others can write, is not trusted: the build then goes to a private
``tempfile.mkdtemp()`` directory, removed again once the library is
loaded.  Entries are keyed by the CRC-32 of the source and the machine
type, and an entry is loaded only when the copy of the source stored with
it equals the package's source byte for byte; otherwise it is rebuilt.  A
build writes temporary files and moves them into place with
:func:`os.replace`, so concurrent processes never load a torn library.  No
``-march=native``: a home directory can be shared across hosts.

Argument checks
---------------
The compiled wrappers accept C-contiguous ``int64`` arrays of matching
shapes -- every member buffer :func:`decide` reads included -- and
constraint rows packed by :func:`constraint_rows`, only; they raise
:class:`~repro.util.errors.ModelError` otherwise, before any pointer
reaches C.  The C functions themselves reject clock indices outside the
matrix, a malformed firing program and runs outside the rows, before they
write anything.  C never writes a federation's member rows.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import shutil
import stat
import struct
import tempfile
import zlib
from array import array

import numpy as np

from repro.util.errors import ModelError

__all__ = [
    "BACKEND",
    "COMPILED_KERNELS",
    "NUMPY_KERNELS",
    "constraint_rows",
    "firing_program",
    "plan_record",
    "program_plans",
    "subset_program",
]

# A raw value larger than any bound that can arise from model constants.
# Model constants in this library are micro-seconds up to a few seconds
# (about 1e7); sums of two bounds stay far below this sentinel.  The C
# source defines the same value; the loader checks that both agree.
INFINITY_RAW: int = 2**40

# Clamp threshold for the vectorised raw additions: any sum at or above this
# is the result of an INFINITY_RAW operand and is clamped back to infinity.
# Sound as long as finite raw bounds stay within +-2**38 (|constants| up to
# ~3.4e10, far beyond the ~1e7 of the models), because then
# INFINITY_RAW - 2**38 > _INF_GUARD > 2 * max_finite_raw.
_INF_GUARD: int = 2**39

#: raw encoding of the bound (0, <=)
LE_ZERO: int = 1
#: raw encoding of the bound (0, <)
LT_ZERO: int = 0

#: raw value written to entry (0, 0) to mark a zone empty
_EMPTY_RAW: int = LT_ZERO - 2


def constraint_rows(triples) -> bytes:
    """Raw ``(i, j, bound)`` constraint triples as the rows
    :func:`constrain_stack` takes: native int64 values packed three per row.

    Bytes rather than an array: a query keeps its clock constraints this
    way for the whole exploration, and ``ctypes`` passes a bytes object to C
    without a conversion.
    """
    return array("q", [value for triple in triples for value in triple]).tobytes()


#: plan flags of a firing program (the same values as in ``_zonekernels.c``):
#: a deferred evaluation error, and a target in which time may pass
FIRE_ERROR = 1
FIRE_DELAY = 2

#: values in a plan's header: flags and the three section lengths
_PLAN_HEADER = 4

_PLAN_COUNT = struct.Struct("q")


def plan_record(guards, resets=(), invariants=(), delay=False, error=False) -> list[int]:
    """One plan of a firing program, as a list of int64 values.

    *guards* and the target's *invariants* are raw ``(i, j, bound)``
    triples, *resets* ``(clock, value)`` pairs.  With *delay* time passes in
    the target: after ``up`` the invariants come back, the upper bounds
    (``j == 0``) in one exact re-closure.  A plan with a deferred *error*
    only reports the layers whose guards pass, so its other sections are
    left empty.
    """
    if error:
        resets = invariants = ()
    flags = FIRE_ERROR if error else FIRE_DELAY if delay else 0
    record = [flags, len(guards), len(resets), len(invariants)]
    for section in (guards, resets, invariants):
        for entry in section:
            record.extend(entry)
    return record


def firing_program(records) -> bytes:
    """The packed firing program of the plan *records* (:func:`plan_record`)
    that :func:`fire` takes: the plan count, then the records in order, as
    native int64 values.  Bytes, like constraint rows: a key keeps its
    program for the whole exploration."""
    values = array("q", [len(records)])
    for record in records:
        values.extend(record)
    return values.tobytes()


def program_plans(program: bytes) -> int:
    """The number of plans of a firing *program*."""
    return _PLAN_COUNT.unpack_from(program)[0]


def _record_bounds(values: list[int]) -> list[tuple[int, int]]:
    """Where each plan record starts and stops in the int64 *values* of a
    firing program."""
    bounds, at = [], 1
    for _ in range(values[0]):
        guards, resets, invariants = values[at + 1:at + _PLAN_HEADER]
        stop = at + _PLAN_HEADER + 3 * guards + 2 * resets + 3 * invariants
        bounds.append((at, stop))
        at = stop
    return bounds


def subset_program(program: bytes, indices) -> bytes:
    """The firing program of the plans of *program* at *indices*, in that
    order (repeats allowed)."""
    bounds = _record_bounds(array("q", program).tolist())
    return _PLAN_COUNT.pack(len(indices)) + b"".join(
        program[8 * bounds[index][0]:8 * bounds[index][1]] for index in indices
    )


def _decode_program(program: bytes):
    """Decode a firing program: per plan ``(flags, guards, resets,
    invariants, uppers, others)``, the constraint sections as packed rows,
    the target's upper-bound invariants as clock and bound vectors."""
    values = array("q", program).tolist()
    for start, stop in _record_bounds(values):
        flags, guards, resets, _ = values[start:start + _PLAN_HEADER]
        resets_at = start + _PLAN_HEADER + 3 * guards
        invariants_at = resets_at + 2 * resets
        reset_values, invariant_values = values[resets_at:invariants_at], values[invariants_at:stop]
        triples = list(zip(invariant_values[::3], invariant_values[1::3], invariant_values[2::3]))
        uppers = [(i, raw) for i, j, raw in triples if j == 0]
        yield (flags, array("q", values[start + _PLAN_HEADER:resets_at]).tobytes(),
               list(zip(reset_values[::2], reset_values[1::2])),
               array("q", invariant_values).tobytes(),
               (np.array([i for i, _ in uppers], dtype=np.int64),
                np.array([raw for _, raw in uppers], dtype=np.int64)),
               constraint_rows(t for t in triples if t[1] != 0))


def add_raw(a: int, b: int) -> int:
    """Add two raw bounds (used for path shortening in the closure)."""
    if a >= INFINITY_RAW or b >= INFINITY_RAW:
        return INFINITY_RAW
    # value(a)+value(b), strict unless both weak
    return (a & ~1) + (b & ~1) + ((a & 1) & (b & 1))


# ---------------------------------------------------------------------------
# numpy twins
# ---------------------------------------------------------------------------

#: largest dimension for which the numpy closure uses min-plus squaring (the
#: squaring tensor is dim^3 entries per layer; beyond this the per-k sweep
#: wins)
_SQUARING_MAX_DIM = 24

#: stack width above which the numpy closure switches from min-plus
#: squaring to the per-k sweep.  Squaring needs fewer ufunc dispatches
#: (log d rounds vs d sweeps) but each round streams ``count * dim**4``
#: elements against the sweep's ``count * dim**3`` total; on wide stacks
#: memory traffic dominates dispatch.  Both paths compute the same unique
#: shortest-path fixpoint for satisfiable layers (empty layers are only
#: flagged, their remaining entries are unspecified either way).  Stacks
#: above it also get no squaring scratch: at 16 the benchmark's peak RSS
#: rose by 0.4 MB on fuzz-window and sp-exact (10 runs each), at the same
#: wall time.
_SQUARING_MAX_COUNT = 8


#: largest stack (rows) whose numpy kernel scratch is cached: a wide round
#: of the layered core must not pin its buffers for the rest of the process.
#: The core also chunks its stacks to this size; without the cap and the
#: chunking the sp-exact benchmark's peak RSS rose by 5.8 MB and its wall
#: time did not improve (3 runs each)
_MAX_STACK_ROWS = 64


def _block_capacity(rows: int) -> int:
    """Round a stack's row count up to its scratch size class (power of two)."""
    return max(4, 1 << (int(rows) - 1).bit_length())


class _StackScratch:
    """Preallocated work buffers for the numpy stack kernels, per (capacity, dim).

    The firing pipeline runs a handful of whole-stack ufuncs per kernel;
    letting each call allocate its ``(count, dim, dim[, dim])`` temporaries
    would put the allocator back on the hot path that the batching removed.
    Buffers are sized to the stack's *capacity* class (a power of two, see
    :func:`_block_capacity`) and sliced to the live count, so one scratch
    entry serves every stack in its size class.
    """

    __slots__ = ("t4", "w4", "m4", "c3", "w3", "m3", "e3", "v2", "u2", "w2", "b2")

    def __init__(self, capacity: int, dim: int):
        if dim <= _SQUARING_MAX_DIM and capacity <= _SQUARING_MAX_COUNT:
            self.t4 = np.empty((capacity, dim, dim, dim), dtype=np.int64)
            self.w4 = np.empty((capacity, dim, dim, dim), dtype=np.int64)
            self.m4 = np.empty((capacity, dim, dim, dim), dtype=bool)
        else:  # the squaring kernel is not used at these sizes
            self.t4 = self.w4 = self.m4 = None
        self.c3 = np.empty((capacity, dim, dim), dtype=np.int64)
        self.w3 = np.empty((capacity, dim, dim), dtype=np.int64)
        self.m3 = np.empty((capacity, dim, dim), dtype=bool)
        self.e3 = np.empty((capacity, dim, dim), dtype=bool)
        self.v2 = np.empty((capacity, dim), dtype=np.int64)
        self.u2 = np.empty((capacity, dim), dtype=np.int64)
        self.w2 = np.empty((capacity, dim), dtype=np.int64)
        self.b2 = np.empty((capacity, dim), dtype=bool)


_STACK_SCRATCH: dict[tuple[int, int], _StackScratch] = {}


def _stack_scratch(count: int, dim: int) -> _StackScratch:
    key = (_block_capacity(count), dim)
    scratch = _STACK_SCRATCH.get(key)
    if scratch is None:
        if any(other != dim for _capacity, other in _STACK_SCRATCH):
            # one network at a time: do not pin every dimension's buffers
            # (with neither this eviction nor the size cap below, the
            # sp-exact benchmark's peak RSS rose by 0.3 MB)
            _STACK_SCRATCH.clear()
        scratch = _StackScratch(*key)
        if key[0] <= _MAX_STACK_ROWS:  # wide stacks are rare: do not pin them
            _STACK_SCRATCH[key] = scratch
    return scratch


def _live(a: np.ndarray) -> int:
    """The number of non-empty layers of the stack *a*."""
    return int(np.count_nonzero(a[:, 0, 0] >= LE_ZERO))


def _constrain_stack_numpy(a: np.ndarray, rows: bytes) -> int:
    """Add the constraints ``x_i - x_j (raw)`` of the packed *rows*
    (:func:`constraint_rows`) in order to every layer; returns the live
    layer count."""
    for i, j, raw in np.frombuffer(rows, dtype=np.int64).reshape(-1, 3).tolist():
        _constrain_one(a, i, j, raw)
    return _live(a)


def _constrain_one(a: np.ndarray, i: int, j: int, raw: int) -> None:
    """Add ``x_i - x_j (raw)`` to every layer; exact rank-1 re-closure.

    Layers the bound does not tighten are provably unchanged by the shared
    rank-1 update, so no per-layer branching is needed; layers that become
    empty are flagged via entry ``(0, 0)``.
    """
    count, dim = len(a), a.shape[1]
    s = _stack_scratch(count, dim)
    opp = a[:, j, i]
    bad = (opp < INFINITY_RAW) & (raw + opp - ((raw | opp) & 1) < LE_ZERO)
    np.minimum(a[:, i, j], raw, out=a[:, i, j])
    col = a[:, :, i]
    via, w1 = s.v2[:count], s.u2[:count]
    np.add(col, raw, out=via)  # col (+) raw, per layer
    np.bitwise_or(col, raw, out=w1)
    np.bitwise_and(w1, 1, out=w1)
    np.subtract(via, w1, out=via)
    via = via[:, :, None]
    row = a[:, j, :][:, None, :]
    cand, w, mask = s.c3[:count], s.w3[:count], s.m3[:count]
    np.add(via, row, out=cand)
    np.bitwise_or(via, row, out=w)
    np.bitwise_and(w, 1, out=w)
    np.subtract(cand, w, out=cand)
    np.greater_equal(cand, _INF_GUARD, out=mask)
    np.copyto(cand, INFINITY_RAW, where=mask)
    np.minimum(a, cand, out=a)
    if bad.any():
        a[bad, 0, 0] = _EMPTY_RAW


def _impose_upper_bounds_stack_numpy(a: np.ndarray, clocks, raws) -> int:
    """Tighten the upper bounds ``x_c <= raw_c`` of several clocks, every layer.

    Every new edge ends in the reference clock, so
    ``new[x][y] = min(old[x][y], min_c(old[x][c] (+) raw_c) (+) old[0][y])``
    is the exact closure; a pair that closes a negative cycle with the
    stored lower bound empties the layer.  Returns the live layer count.
    """
    if not len(clocks):
        return _live(a)
    count, dim = len(a), a.shape[1]
    s = _stack_scratch(count, dim)
    lowers = a[:, 0, clocks]  # (count, pairs) -- variable width, no scratch
    sums = lowers + raws - ((lowers | raws) & 1)
    bad = ((lowers < INFINITY_RAW) & (sums < LE_ZERO)).any(axis=1)
    cols = a[:, :, clocks]  # (count, dim, pairs)
    t = cols + raws - ((cols | raws) & 1)
    u = s.v2[:count]
    np.min(t, axis=2, out=u)  # min_c (old[a][c] (+) raw_c)
    u = u[:, :, None]
    row0 = a[:, 0, :][:, None, :]
    cand, w, mask = s.c3[:count], s.w3[:count], s.m3[:count]
    np.add(u, row0, out=cand)
    np.bitwise_or(u, row0, out=w)
    np.bitwise_and(w, 1, out=w)
    np.subtract(cand, w, out=cand)
    np.greater_equal(cand, _INF_GUARD, out=mask)
    np.copyto(cand, INFINITY_RAW, where=mask)
    np.minimum(a, cand, out=a)
    if bad.any():
        a[bad, 0, 0] = _EMPTY_RAW
    return _live(a)


def _reset_stack_numpy(a: np.ndarray, clock: int, value: int) -> int:
    """Clock reset ``clock := value`` on every (closed) layer; returns the
    live layer count."""
    count, dim = len(a), a.shape[1]
    s = _stack_scratch(count, dim)
    pos = 2 * int(value) + 1
    neg = -2 * int(value) + 1
    row0 = a[:, 0, :]
    col0 = a[:, :, 0]
    # compute both updates before writing: the row write touches the
    # column-0 entry of the clock's row
    new_row, new_col, w1, inf_mask = s.v2[:count], s.u2[:count], s.w2[:count], s.b2[:count]
    np.add(row0, pos, out=new_row)
    np.bitwise_or(row0, pos, out=w1)
    np.bitwise_and(w1, 1, out=w1)
    np.subtract(new_row, w1, out=new_row)
    np.greater_equal(row0, INFINITY_RAW, out=inf_mask)
    np.copyto(new_row, INFINITY_RAW, where=inf_mask)
    np.add(col0, neg, out=new_col)
    np.bitwise_or(col0, neg, out=w1)
    np.bitwise_and(w1, 1, out=w1)
    np.subtract(new_col, w1, out=new_col)
    np.greater_equal(col0, INFINITY_RAW, out=inf_mask)
    np.copyto(new_col, INFINITY_RAW, where=inf_mask)
    a[:, clock, :] = new_row
    a[:, :, clock] = new_col
    a[:, clock, clock] = LE_ZERO
    return _live(a)


def _close_stack_numpy(a: np.ndarray) -> None:
    """Full closure of every layer (min-plus squaring / per-k sweep)."""
    count, dim = len(a), a.shape[1]
    s = _stack_scratch(count, dim)
    if dim <= _SQUARING_MAX_DIM and count < _SQUARING_MAX_COUNT:
        # `work` is the unconverged working set: a view over `a` at
        # first, a gathered copy once layers start converging (a layer
        # at its fixpoint is untouched by further rounds, so dropping
        # it early changes nothing -- but on wide stacks most layers
        # converge after one round and the shrink saves whole rounds
        # of (b, d, d, d) min-plus work)
        work = a
        index_map: "np.ndarray | None" = None
        rounds = max(1, int(dim - 1).bit_length())
        for round_index in range(rounds):
            active = len(work)
            t, w = s.t4[:active], s.w4[:active]
            mask, cand = s.m4[:active], s.c3[:active]
            p = work[:, :, :, None]
            q = work[:, None, :, :]
            np.add(p, q, out=t)  # t[b, i, k, j] = a[b,i,k] (+) a[b,k,j]
            np.bitwise_or(p, q, out=w)
            np.bitwise_and(w, 1, out=w)
            np.subtract(t, w, out=t)
            np.greater_equal(t, _INF_GUARD, out=mask)
            np.copyto(t, INFINITY_RAW, where=mask)
            np.minimum.reduce(t, axis=2, out=cand)
            np.minimum(work, cand, out=cand)
            changed = (cand != work).any(axis=(1, 2))
            work[:] = cand
            if round_index + 1 == rounds or not changed.any():
                break
            if not changed.all():
                keep = np.flatnonzero(changed)
                if index_map is not None:
                    # flush the converged copies before shrinking
                    a[index_map] = work
                    index_map = index_map[keep]
                else:
                    index_map = keep
                work = np.ascontiguousarray(work[keep])
        if index_map is not None:
            a[index_map] = work
    else:
        cand, mask3 = s.c3[:count], s.m3[:count]
        for k in range(dim):
            col = a[:, :, k : k + 1]
            row = a[:, k : k + 1, :]
            np.add(col, row, out=cand)
            np.bitwise_or(col, row, out=s.w3[:count])
            np.bitwise_and(s.w3[:count], 1, out=s.w3[:count])
            np.subtract(cand, s.w3[:count], out=cand)
            np.greater_equal(cand, _INF_GUARD, out=mask3)
            np.copyto(cand, INFINITY_RAW, where=mask3)
            np.minimum(a, cand, out=a)
    diag = a[:, np.arange(dim), np.arange(dim)]
    bad = (diag < LE_ZERO).any(axis=1)
    if bad.any():
        a[bad, 0, 0] = _EMPTY_RAW


def _extrapolate_stack_numpy(a: np.ndarray, upper_grid, lower_grid) -> None:
    """Extrapolate every layer against the threshold grids.

    Finite entries above ``upper_grid`` are abstracted to infinity, entries
    below ``lower_grid`` are relaxed to the grid value (relaxation wins).
    A loosened entry can be tightened back through *any* pair of untouched
    entries, so every layer an extrapolation mask touched gets a full
    re-closure; untouched layers are left as they are.
    """
    count = len(a)
    s = _stack_scratch(count, a.shape[1])
    raise_mask, relax_mask = s.m3[:count], s.e3[:count]
    np.greater(a, upper_grid, out=raise_mask)
    np.less(a, INFINITY_RAW, out=relax_mask)  # reused as the finite filter
    np.logical_and(raise_mask, relax_mask, out=raise_mask)
    np.less(a, lower_grid, out=relax_mask)
    changed = raise_mask.any(axis=(1, 2))
    changed |= relax_mask.any(axis=(1, 2))
    if not changed.any():
        return
    np.copyto(a, INFINITY_RAW, where=raise_mask)
    np.copyto(a, np.broadcast_to(lower_grid, a.shape), where=relax_mask)
    if changed.all():
        _close_stack_numpy(a)
        return
    touched = np.flatnonzero(changed)
    sub = a[touched]
    _close_stack_numpy(sub)
    a[touched] = sub


# ---------------------------------------------------------------------------
# numpy twins: inclusion
# ---------------------------------------------------------------------------

#: element budget for a single broadcast comparison intermediate (256K bools);
#: larger batched inclusion checks are chunked along the candidate axis.
#: 4M (1 << 22) raised the sp-exact benchmark's peak RSS by 3.9 MB at the
#: same wall time (3 runs each)
_COMPARE_BUDGET = 1 << 18


def _covers_numpy(members: np.ndarray, zone: np.ndarray) -> bool:
    """True when some row of *members* includes the raw row *zone*."""
    if len(members) == 1:  # the overwhelmingly common federation size
        return bool((zone <= members[0]).all())
    return bool((zone <= members).all(axis=1).any())


def _covers_many_numpy(members: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Row mask over *flat*: the row is included in some row of *members*."""
    n = len(members)
    if n == 1:
        return (flat <= members[0]).all(axis=1)
    members = members[None, :, :]
    count = len(flat)
    # the broadcast materialises a (count, n, dim^2) boolean intermediate;
    # chunk the candidate axis so a large federation times a large block
    # cannot spike transient memory (identical verdicts either way)
    chunk = max(1, _COMPARE_BUDGET // (n * flat.shape[1]))
    if count <= chunk:
        return (flat[:, None, :] <= members).all(axis=2).any(axis=1)
    out = np.empty(count, dtype=bool)
    for start in range(0, count, chunk):
        block = flat[start : start + chunk]
        out[start : start + chunk] = (block[:, None, :] <= members).all(axis=2).any(axis=1)
    return out


def _evict_masks_numpy(members: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two eviction masks of a federation flush of *rows*.

    Returns ``(doomed_members, doomed_rows)``: the members some row
    includes, and the rows some *later* row includes.
    """
    n = len(members)
    doomed_members = np.zeros(n, dtype=bool)
    if n:
        # chunk the (k, n, dim^2) broadcast like covers_many does, so a
        # large batch against a grown federation cannot spike memory
        chunk = max(1, _COMPARE_BUDGET // (n * rows.shape[1]))
        for start in range(0, len(rows), chunk):
            block = rows[start : start + chunk]
            doomed_members |= (members[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=0)
    # within the batch: zone i is evicted by any *later* zone that covers
    # it; chunked along i like the member pass above
    k = len(rows)
    doomed = np.zeros(k, dtype=bool)
    chunk = max(1, _COMPARE_BUDGET // (k * rows.shape[1]))
    for start in range(0, k, chunk):
        stop = min(k, start + chunk)
        includes = (rows[start:stop, None, :] <= rows[None, :, :]).all(axis=2)
        later = np.arange(start, stop)[:, None] < np.arange(k)[None, :]
        doomed[start:stop] = (includes & later).any(axis=1)
    return doomed_members, doomed


#: cached strictly-upper-triangular masks for the within-round screen (it
#: runs once per key per round, mostly on small candidate counts)
_TRIU_CACHE: dict = {}


def _covered_by_earlier_numpy(flat: np.ndarray) -> np.ndarray:
    """Row mask: row ``j`` is elementwise ``<=`` some EARLIER row ``i < j``.

    The pairwise comparison is chunked along the candidate axis so the
    broadcast scratch stays bounded no matter how wide a frontier level is.
    """
    k = len(flat)
    if k <= 1:
        return np.zeros(k, dtype=bool)
    step = max(1, _COMPARE_BUDGET // max(1, k * flat.shape[1]))
    if k <= step:
        earlier = _TRIU_CACHE.get(k)
        if earlier is None:
            earlier = _TRIU_CACHE[k] = np.triu(np.ones((k, k), dtype=bool), 1)
        block = (flat[:, None, :] >= flat[None, :, :]).all(axis=2)
        block &= earlier
        return block.any(axis=0)
    out = np.zeros(k, dtype=bool)
    for start in range(1, k, step):  # row 0 has no earlier row
        stop = min(k, start + step)
        block = (flat[:stop, None, :] >= flat[None, start:stop, :]).all(axis=2)
        earlier = np.arange(stop)[:, None] < np.arange(start, stop)[None, :]
        out[start:stop] = (block & earlier).any(axis=0)
    return out


def clear_scratch() -> None:
    """Drop the numpy twins' scratch buffers (they refill on demand)."""
    _STACK_SCRATCH.clear()
    _TRIU_CACHE.clear()


# ---------------------------------------------------------------------------
# numpy twins: the two round kernels
# ---------------------------------------------------------------------------

def _fire_numpy(source, program, out, nodes, counts) -> int:
    """Fire every plan of *program* against the zones *source*.

    Per plan, in program order: a copy of the live layers of *source*, the
    guards, the resets, the target's invariants and, when time may pass
    there, ``up`` and the upper bounds and difference invariants again --
    as whole-stack kernels that flag emptied layers, with the stack
    compressed only when its live count fell.  The surviving rows go to the
    next free rows of *out*, their source layers to *nodes*, and their
    number to ``counts[plan]``; a plan with a deferred error keeps the rows
    its guards pass.  Returns the number of rows written.
    """
    plans = _decode_program(program)
    base = np.flatnonzero(source[:, 0, 0] >= LE_ZERO)
    if len(base) < len(source):
        source = source[base]
    count = len(source)
    written = 0
    for index, (flags, guards, resets, invariants, uppers, others) in enumerate(plans):
        counts[index] = 0
        zones, live, kept = source.copy(), count, base
        if guards:
            live = _constrain_stack_numpy(zones, guards)
            if live < count:
                alive = np.flatnonzero(zones[:, 0, 0] >= LE_ZERO)
                zones, kept = zones[alive], kept[alive]
        if live and not flags & FIRE_ERROR:
            for clock, value in resets:
                _reset_stack_numpy(zones, clock, value)
            if invariants:
                live = _constrain_stack_numpy(zones, invariants)
            if flags & FIRE_DELAY:
                zones[:, 1:, 0] = INFINITY_RAW  # up: drop every upper bound
                if len(uppers[0]):
                    live = _impose_upper_bounds_stack_numpy(zones, *uppers)
                if others:
                    live = _constrain_stack_numpy(zones, others)
            if live < len(zones):
                alive = np.flatnonzero(zones[:, 0, 0] >= LE_ZERO)
                zones, kept = zones[alive], kept[alive]
        if not live:
            continue
        out[written:written + live] = zones
        nodes[written:written + live] = kept
        counts[index] = live
        written += live
    return written


def _decide_numpy(rows, bounds, members, grids):
    """One decide round over the key-grouped candidate *rows*.

    Per key run ``[start, stop)`` of *bounds*: the coverage check against
    the key's federation rows ``members[k]``, the screen of candidates
    included in an earlier candidate of the run on the raw rows, one
    extrapolation of every run's survivors in place (chunked, unless
    *grids* is None), the screen again on the extrapolated rows, and the
    flush's eviction masks.  Returns ``(stored, doomed_rows,
    doomed_members)`` as in the C kernel.
    """
    total = len(rows)
    stored = np.zeros(total, dtype=bool)
    doomed_rows = np.zeros(total, dtype=bool)
    doomed_members = np.zeros(sum(len(federation) for federation in members), dtype=bool)
    prepared = []  # (run, first row, survivors)
    for run, (start, stop) in enumerate(bounds.tolist()):
        candidates = rows[start:stop]
        federation = members[run]
        if len(federation):
            survivors = np.flatnonzero(~_covers_many_numpy(federation, candidates))
            candidates = candidates[survivors]
        else:
            survivors = np.arange(len(candidates))
        doomed = _covered_by_earlier_numpy(candidates)
        prepared.append((run, start, survivors[~doomed]))
    if grids is not None and prepared:
        picked = np.concatenate([start + survivors for _run, start, survivors in prepared])
        cube = rows[picked].reshape(len(picked), *grids[0].shape)
        for start in range(0, len(cube), _MAX_STACK_ROWS):
            _extrapolate_stack_numpy(cube[start:start + _MAX_STACK_ROWS], *grids)
        rows[picked] = cube.reshape(len(picked), rows.shape[1])
    offsets = np.cumsum([0] + [len(federation) for federation in members]).tolist()
    for run, start, survivors in prepared:
        flat = rows[start + survivors]
        keep = np.flatnonzero(~_covered_by_earlier_numpy(flat))
        if not len(keep):
            continue
        positions = start + survivors[keep]
        stored[positions] = True
        doomed, doomed_rows[positions] = _evict_masks_numpy(members[run], flat[keep])
        doomed_members[offsets[run]:offsets[run + 1]] = doomed
    return stored, doomed_rows, doomed_members


#: every kernel name this module binds, with its numpy twin
NUMPY_KERNELS = {
    "constrain_stack": _constrain_stack_numpy,
    "extrapolate_stack": _extrapolate_stack_numpy,
    "covers": _covers_numpy,
    "covers_many": _covers_many_numpy,
    "fire": _fire_numpy,
    "decide": _decide_numpy,
}


# ---------------------------------------------------------------------------
# The compiled backend: loader
# ---------------------------------------------------------------------------

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_zonekernels.c")

#: the compiler and flags of a build (no -march=native: the cache may be
#: shared across hosts through a common home directory)
_COMPILER = "cc"
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _private(path: str) -> bool:
    """True when *path* is a directory this user owns and only it can write."""
    info = os.stat(path)
    return (
        stat.S_ISDIR(info.st_mode)
        and hasattr(os, "getuid")
        and info.st_uid == os.getuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _cache_directory() -> tuple[str, bool]:
    """The build directory and whether it is a temporary one.

    ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) when it is
    private, else a fresh ``tempfile.mkdtemp()`` directory.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        if _private(path):
            return path, False
    except OSError:
        pass
    return tempfile.mkdtemp(prefix="repro-kernels-"), True


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _build(source: bytes, library: str, stored: str, directory: str) -> str | None:
    """Compile *source* into *library* and store the source next to it.

    Both files are written under temporary names and moved into place, the
    library first.  Returns ``None`` on success, else why the build failed.
    """
    import subprocess  # only a build needs it

    try:
        fd, c_path = tempfile.mkstemp(prefix="build-", suffix=".c", dir=directory)
    except OSError as exc:
        return f"build failed ({exc})"
    so_path = c_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(source)
        try:
            subprocess.run(
                [_COMPILER, *_CFLAGS, "-o", so_path, c_path],
                check=True, capture_output=True, timeout=120,
            )
        except FileNotFoundError:
            return f"no C compiler ({_COMPILER} not found)"
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.decode(errors="replace").strip().splitlines()
            return f"build failed ({lines[0] if lines else f'exit {exc.returncode}'})"
        except subprocess.TimeoutExpired:
            return "build failed (compiler timed out)"
        os.replace(so_path, library)
        os.replace(c_path, stored)
        return None
    except OSError as exc:
        return f"build failed ({exc})"
    finally:
        for path in (c_path, so_path):
            try:
                os.unlink(path)
            except OSError:
                pass


def _load() -> tuple[dict | None, str]:
    """The compiled kernels and ``"compiled"``, or ``None`` and why not."""
    source = _read(_SOURCE)
    if source is None:
        return None, "numpy: kernel source missing"
    try:
        directory, temporary = _cache_directory()
    except OSError as exc:
        return None, f"numpy: no build directory ({exc})"
    tag = f"{zlib.crc32(source):08x}-{platform.machine() or 'unknown'}"
    library = os.path.join(directory, f"zonekernels-{tag}.so")
    stored = os.path.join(directory, f"zonekernels-{tag}.c")
    try:
        if _read(stored) != source or not os.path.exists(library):
            reason = _build(source, library, stored, directory)
            if reason is not None:
                return None, f"numpy: {reason}"
        lib = ctypes.CDLL(library)
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, ctypes.c_int
        lib.zk_infinity_raw.argtypes, lib.zk_infinity_raw.restype = (), ctypes.c_int64
        if lib.zk_infinity_raw() != INFINITY_RAW:
            return None, "numpy: compiled kernels disagree on INFINITY_RAW"
        return _compiled_kernels(lib), "compiled"
    except (OSError, AttributeError) as exc:
        return None, f"numpy: load failed ({exc})"
    finally:
        if temporary:  # the mapped library outlives its file
            shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# The compiled backend: checked wrappers
# ---------------------------------------------------------------------------

_INT64 = np.dtype(np.int64)
_BYTE = ctypes.c_char * 1

_P, _I = ctypes.c_void_p, ctypes.c_int
#: argument types of the C functions; every one returns an int
_SIGNATURES = {
    "zk_constrain": (_P, _I, _I, _P, _I),
    "zk_extrapolate": (_P, _I, _I, _P, _P),
    "zk_covers": (_P, _I, _P, _I, _I, _P),
    "zk_fire": (_P, _I, _I, _P, _I, _P, _I, _P, _P),
    "zk_decide": (_P, _I, _I, _P, _I, _P, _P, _P, _P, _P, _P, _P),
}


def _pointer(a: np.ndarray):
    """The C argument for *a*: a C-contiguous int64 array, else ModelError."""
    if (a.dtype is not _INT64 and a.dtype != _INT64) or not a.flags.c_contiguous:
        raise ModelError("zone kernels take C-contiguous int64 arrays")
    if not a.size:
        return None
    try:
        return _BYTE.from_buffer(a)  # the cheap path: a writable array
    except TypeError:  # read-only, like the cached extrapolation grids
        return ctypes.c_void_p(a.ctypes.data)


def _output(a: np.ndarray):
    """The C argument for an array C writes: C-contiguous, int64, writable."""
    if (a.dtype is not _INT64 and a.dtype != _INT64) or not a.flags.c_contiguous:
        raise ModelError("zone kernels take C-contiguous int64 arrays")
    if not a.flags.writeable:
        raise ModelError("zone kernels write only writable arrays")
    return _BYTE.from_buffer(a) if a.size else None


def _stack(a: np.ndarray):
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not len(a):
        raise ModelError("a stack kernel takes a (count, dim, dim) array")
    return _pointer(a)


def _grids(dim: int, upper_grid: np.ndarray, lower_grid: np.ndarray):
    if upper_grid.shape != (dim, dim) or lower_grid.shape != (dim, dim):
        raise ModelError("extrapolation grids must match the zone dimension")
    return _pointer(upper_grid), _pointer(lower_grid)


#: bytes of one packed constraint row (three int64 values)
_ROW_BYTES = 24


def _constraints(rows: bytes) -> bytes:
    if not isinstance(rows, bytes) or len(rows) % _ROW_BYTES:
        raise ModelError("constraints are packed (i, j, raw) int64 rows")
    return rows


def _rows(a: np.ndarray, width: int | None = None):
    if a.ndim != 2 or (width is not None and a.shape[1] != width):
        raise ModelError("inclusion kernels take (count, dim * dim) rows")
    return _pointer(a)


def _members(members, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The address and row count of every federation's member rows, each
    checked like any other array C reads."""
    addresses, counts = [], []
    for rows in members:
        if (rows.dtype is not _INT64 or not rows.flags.c_contiguous or rows.ndim != 2
                or rows.shape[1] != width):
            raise ModelError("member rows must be C-contiguous int64 (count, dim * dim)")
        addresses.append(ctypes.addressof(ctypes.c_char.from_buffer(rows)) if len(rows) else 0)
        counts.append(len(rows))
    return np.array(addresses, dtype=np.uintp), np.array(counts, dtype=np.int64)


def _checked(live: int) -> int:
    """The live layer count a kernel returned; ``-1`` flags a bad clock index."""
    if live < 0:
        raise ModelError("clock index out of range")
    return live


def _compiled_kernels(lib: ctypes.CDLL) -> dict:
    """Checked wrappers over the library's functions, named like the twins."""
    zk_constrain, zk_extrapolate, zk_covers = lib.zk_constrain, lib.zk_extrapolate, lib.zk_covers
    zk_fire, zk_decide = lib.zk_fire, lib.zk_decide

    def constrain_stack(a, rows):
        stack = _stack(a)
        rows = _constraints(rows)
        return _checked(zk_constrain(stack, len(a), a.shape[1], rows, len(rows) // _ROW_BYTES))

    def extrapolate_stack(a, upper_grid, lower_grid):
        stack = _stack(a)
        zk_extrapolate(stack, len(a), a.shape[1], *_grids(a.shape[1], upper_grid, lower_grid))

    def covers(members, zone):
        width = members.shape[1] if members.ndim == 2 else -1
        if zone.shape != (width,):
            raise ModelError("zone dimension does not match the members")
        return zk_covers(_rows(members), len(members), _pointer(zone), 1, width, None) > 0

    def covers_many(members, flat):
        out = np.zeros(len(flat), dtype=bool)
        zk_covers(_rows(members), len(members), _rows(flat, members.shape[1]), len(flat),
                  members.shape[1], _BYTE.from_buffer(out))
        return out

    def fire(source, program, out, nodes, counts):
        stack = _stack(source)
        if not isinstance(program, bytes) or len(program) % 8 or not program or (
            out.ndim != 3 or out.shape[1:] != source.shape[1:] or nodes.ndim != 1
        ) or counts.ndim != 1 or len(counts) < program_plans(program):
            raise ModelError("fire takes a packed program, a (capacity, dim, dim) output, "
                             "node and count vectors")
        capacity = min(len(out), len(nodes))
        written = zk_fire(stack, len(source), source.shape[1], program, len(program) // 8,
                          _output(out), capacity, _output(nodes), _output(counts))
        if written < 0:
            raise ModelError("malformed firing program, clock index out of range "
                             "or output too small")
        return written

    def decide(rows, bounds, members, grids):
        width = rows.shape[1] if rows.ndim == 2 else -1
        dim = math.isqrt(max(width, 0))
        if dim * dim != width or bounds.ndim != 2 or bounds.shape[1] != 2 or (
            len(members) != len(bounds)
        ):
            raise ModelError("decide takes (count, dim * dim) rows, (runs, 2) bounds "
                             "and one member array per run")
        pointer, bound_pointer = _output(rows), _pointer(bounds)
        addresses, counts = _members(members, width)
        upper = lower = None
        if grids is not None:
            upper, lower = _grids(dim, *grids)
        stored = np.zeros(len(rows), dtype=bool)
        doomed_rows = np.zeros(len(rows), dtype=bool)
        doomed_members = np.zeros(int(counts.sum()), dtype=bool)
        kept = zk_decide(pointer, len(rows), dim, bound_pointer, len(bounds),
                         _BYTE.from_buffer(addresses) if len(addresses) else None,
                         _BYTE.from_buffer(counts) if len(counts) else None, upper, lower,
                         _BYTE.from_buffer(stored) if len(rows) else None,
                         _BYTE.from_buffer(doomed_rows) if len(rows) else None,
                         _BYTE.from_buffer(doomed_members) if len(doomed_members) else None)
        if kept < 0:
            raise ModelError("decide runs must be ordered ranges of the rows")
        return stored, doomed_rows, doomed_members

    return {
        "constrain_stack": constrain_stack,
        "extrapolate_stack": extrapolate_stack,
        "covers": covers,
        "covers_many": covers_many,
        "fire": fire,
        "decide": decide,
    }


#: the compiled wrappers by name (``None`` when they could not be built),
#: and which backend the names below are bound to
COMPILED_KERNELS, BACKEND = _load()

_bound = COMPILED_KERNELS or NUMPY_KERNELS
constrain_stack = _bound["constrain_stack"]
extrapolate_stack = _bound["extrapolate_stack"]
covers = _bound["covers"]
covers_many = _bound["covers_many"]
fire = _bound["fire"]
decide = _bound["decide"]
del _bound
