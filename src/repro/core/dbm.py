"""Difference Bound Matrices (DBMs) — the zone representation of UPPAAL.

A zone is a conjunction of constraints of the form ``x_i - x_j <= c`` or
``x_i - x_j < c`` over the clocks ``x_1 .. x_{n-1}`` plus the reference clock
``x_0`` which is constantly zero.  A DBM stores one bound per ordered clock
pair in an ``n x n`` matrix.

Bound encoding
--------------
Each matrix entry is an integer *raw* bound, following the encoding of the
UPPAAL DBM library::

    raw = 2 * c + 1      encodes  (c, <=)   -- "weak" bound
    raw = 2 * c          encodes  (c, <)    -- "strict" bound
    INFINITY_RAW         encodes  no bound

With this encoding a smaller raw value is always a *tighter* constraint,
which makes minimisation, comparison and inclusion checks plain integer
comparisons.

Storage
-------
The matrix lives in one flat, row-major ``int64`` numpy array (``DBM.m``);
``DBM.m2`` is the same memory viewed as an ``n x n`` array for the vectorised
operations.  The array belongs to the DBM: :meth:`DBM.copy` allocates a fresh
one, and a dead zone is reclaimed by the garbage collector like any other
array.

The bulk operations (``up``, ``reset``, ``intersect``, ``is_subset_of``, the
extrapolations and the partial closures) are vectorised over the buffer;
entry-level operations (``constrain``) stay scalar because they touch only a
handful of cells.

Canonical form
--------------
All public operations keep the DBM *closed* (canonical): every entry is the
length of the shortest path in the constraint graph.  Closure is computed
with Floyd-Warshall; incremental variants (``constrain`` via
``close_touched``) touch only the rows/columns affected by a modification.
Extrapolation re-closes with a Floyd-Warshall sweep restricted to the touched
clocks (the ``closex`` optimisation of the UPPAAL DBM library) instead of a
full cubic pass.

The full closure picks its kernel by dimension: repeated min-plus squaring
up to :data:`_SQUARING_MAX_DIM` clocks, a per-k vectorised sweep above that.
Both reach the same Floyd-Warshall fixpoint on satisfiable zones; the
squaring kernel also marks an unsatisfiable zone empty.
``docs/performance.md`` describes how the kernels were calibrated.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from repro.util.errors import ModelError

__all__ = [
    "INFINITY_RAW",
    "LE_ZERO",
    "LT_ZERO",
    "bound",
    "bound_value",
    "bound_is_strict",
    "bound_as_tuple",
    "add_raw",
    "negate_weak",
    "DBM",
    "DBMStack",
    "reset_process_caches",
]

# A raw value larger than any bound that can arise from model constants.
# Model constants in this library are micro-seconds up to a few seconds
# (about 1e7); sums of two bounds stay far below this sentinel.
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


def bound(value: int, strict: bool = False) -> int:
    """Encode the bound ``(value, < )`` if *strict* else ``(value, <=)``."""
    return 2 * int(value) + (0 if strict else 1)


def bound_value(raw: int) -> int:
    """Decode the numeric part of a raw bound (undefined for infinity)."""
    return int(raw) >> 1


def bound_is_strict(raw: int) -> bool:
    """Return ``True`` if the raw bound encodes a strict inequality."""
    return (raw & 1) == 0


def bound_as_tuple(raw: int) -> tuple[int | None, bool]:
    """Decode a raw bound into ``(value, strict)``; infinity gives ``(None, True)``."""
    if raw >= INFINITY_RAW:
        return None, True
    return bound_value(raw), bound_is_strict(raw)


def add_raw(a: int, b: int) -> int:
    """Add two raw bounds (used for path shortening in the closure)."""
    if a >= INFINITY_RAW or b >= INFINITY_RAW:
        return INFINITY_RAW
    # value(a)+value(b), strict unless both weak
    return (a & ~1) + (b & ~1) + ((a & 1) & (b & 1))


def negate_weak(raw: int) -> int:
    """Return the raw bound for the negation of a weak/strict constraint.

    The negation of ``x - y <= c`` is ``y - x < -c`` and the negation of
    ``x - y < c`` is ``y - x <= -c``.
    """
    if raw >= INFINITY_RAW:
        raise ModelError("cannot negate an infinite bound")
    value, strict = bound_value(raw), bound_is_strict(raw)
    return bound(-value, strict=not strict)


# ---------------------------------------------------------------------------
# Closure kernels
# ---------------------------------------------------------------------------

def _close_python(m: list[int], dim: int) -> None:
    """Floyd-Warshall closure of a flat row-major raw-bound list, in place.

    The seed's scalar triple loop, kept as the reference the tests compare
    the vectorised kernels against; the engine never calls it.
    """
    inf = INFINITY_RAW
    for k in range(dim):
        row_k = k * dim
        for i in range(dim):
            row_i = i * dim
            d_ik = m[row_i + k]
            if d_ik >= inf:
                continue
            base = d_ik & ~1
            sbit = d_ik & 1
            for j in range(dim):
                d_kj = m[row_k + j]
                if d_kj >= inf:
                    continue
                candidate = base + (d_kj & ~1) + (sbit & d_kj & 1)
                if candidate < m[row_i + j]:
                    m[row_i + j] = candidate


def _sweep_k(a: np.ndarray, k: int) -> None:
    """One Floyd-Warshall sweep of intermediate *k* on a 2-D view, in place.

    Raw addition: values add, strictness = AND of the weak bits.  The single
    place this rule is vectorised per-k; both the full per-k closure and
    :meth:`DBM.close_touched` go through it.
    """
    inf = INFINITY_RAW
    col = a[:, k : k + 1]
    row = a[k : k + 1, :]
    cand = (col & ~1) + (row & ~1) + ((col & 1) & (row & 1))
    np.copyto(cand, inf, where=(col >= inf) | (row >= inf))
    np.minimum(a, cand, out=a)


def _close_numpy_inplace(a: np.ndarray, dim: int) -> None:
    """Vectorised Floyd-Warshall on a 2-D int64 view, in place."""
    for k in range(dim):
        _sweep_k(a, k)


#: largest dimension for which :meth:`DBM.close` uses min-plus squaring (the
#: squaring tensor is dim^3 entries; beyond this the per-k sweep wins)
_SQUARING_MAX_DIM = 24

#: stack width above which :meth:`DBMStack.close` switches from min-plus
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


class _Scratch:
    """Preallocated work buffers for the vectorised kernels, one per dim.

    The closure and the incremental re-closures run hundreds of thousands of
    times per exploration on matrices of ~100 entries; at that size numpy's
    allocation overhead rivals the arithmetic, so every kernel writes into
    these shared buffers via ``out=``.  Single-threaded by design.
    """

    __slots__ = ("t3", "w3", "m3", "c2", "e2", "w2", "m2", "v1", "u1", "b1")

    def __init__(self, dim: int):
        if dim <= _SQUARING_MAX_DIM:
            self.t3 = np.empty((dim, dim, dim), dtype=np.int64)
            self.w3 = np.empty((dim, dim, dim), dtype=np.int64)
            self.m3 = np.empty((dim, dim, dim), dtype=bool)
        else:  # the squaring kernel is not used at these dimensions
            self.t3 = self.w3 = self.m3 = None
        self.c2 = np.empty((dim, dim), dtype=np.int64)
        self.e2 = np.empty((dim, dim), dtype=bool)
        self.w2 = np.empty((dim, dim), dtype=np.int64)
        self.m2 = np.empty((dim, dim), dtype=bool)
        self.v1 = np.empty(dim, dtype=np.int64)
        self.u1 = np.empty(dim, dtype=np.int64)
        self.b1 = np.empty(dim, dtype=bool)


_SCRATCH_CACHE: dict[int, _Scratch] = {}


def _scratch(dim: int) -> _Scratch:
    scratch = _SCRATCH_CACHE.get(dim)
    if scratch is None:
        scratch = _Scratch(dim)
        _SCRATCH_CACHE[dim] = scratch
    return scratch


def _close_squaring(a: np.ndarray, dim: int) -> None:
    """Closure by repeated min-plus squaring, in place.

    Each round replaces ``a`` with ``min(a, a (+) a)`` (min-plus product in
    the raw-bound algebra), doubling the path length covered; the fixpoint is
    the all-pairs-shortest-path closure.  For the small matrices of zone
    graphs this needs one or two rounds in practice and runs as a handful of
    whole-matrix numpy operations, which beats both the Python triple loop
    and the per-k vectorised sweep (see docs/performance.md).

    A satisfiable zone reaches the exact Floyd-Warshall fixpoint.  An
    unsatisfiable one (negative cycle) is detected via the diagonal and
    marked empty, which is all the callers ever inspect.
    """
    s = _scratch(dim)
    t, w, mask, cand, eq = s.t3, s.w3, s.m3, s.c2, s.e2
    rounds = max(1, int(dim - 1).bit_length())
    for round_index in range(rounds):
        p = a[:, :, None]
        q = a[None, :, :]
        # raw addition a (+) b == a + b - ((a | b) & 1); sums involving an
        # infinite operand land above _INF_GUARD and are clamped back
        np.add(p, q, out=t)
        np.bitwise_or(p, q, out=w)
        np.bitwise_and(w, 1, out=w)
        np.subtract(t, w, out=t)
        np.greater_equal(t, _INF_GUARD, out=mask)
        np.copyto(t, INFINITY_RAW, where=mask)
        np.minimum.reduce(t, axis=1, out=cand)
        np.minimum(a, cand, out=cand)
        if round_index:  # a non-canonical input never converges in one round
            np.equal(cand, a, out=eq)
            if eq.all():
                break
        a[:] = cand
    if (np.diagonal(a) < LE_ZERO).any():
        a[0, 0] = LT_ZERO - 2  # mark empty


# ---------------------------------------------------------------------------
# The DBM class
# ---------------------------------------------------------------------------

class DBM:
    """A difference bound matrix over ``dim`` clocks (including the reference).

    Clock index ``0`` is the reference clock; real clocks use indices
    ``1 .. dim-1``.  Instances behave like mutable values: operations modify
    the receiver in place and return ``self`` to allow chaining; use
    :meth:`copy` for persistent snapshots (the model checker copies before
    mutating).
    """

    __slots__ = ("dim", "m", "m2")

    def __init__(self, dim: int, raw: Sequence[int] | None = None):
        if dim < 1:
            raise ModelError("DBM dimension must be at least 1")
        self.dim = dim
        if raw is None:
            # default-construct the universal zone (all clocks >= 0):
            # no bounds anywhere except the zero diagonal and the zero row
            # (x_0 - x_i <= 0, i.e. x_i >= 0)
            m = np.full(dim * dim, INFINITY_RAW, dtype=np.int64)
            m[:: dim + 1] = LE_ZERO
            m[:dim] = LE_ZERO
        else:
            m = np.array(raw, dtype=np.int64).reshape(-1)  # always a copy
            if m.shape[0] != dim * dim:
                raise ModelError("raw DBM data has the wrong length")
        self.m = m
        self.m2 = m.reshape(dim, dim)

    # -- constructors --------------------------------------------------------
    @classmethod
    def _wrap(cls, dim: int, buffer: np.ndarray) -> "DBM":
        """Internal: adopt an already-filled flat array (no copy)."""
        d = cls.__new__(cls)
        d.dim = dim
        d.m = buffer
        d.m2 = buffer.reshape(dim, dim)
        return d

    @classmethod
    def zero(cls, dim: int) -> "DBM":
        """The zone in which every clock equals zero."""
        return cls._wrap(dim, np.full(dim * dim, LE_ZERO, dtype=np.int64))

    @classmethod
    def universal(cls, dim: int) -> "DBM":
        """The zone containing every non-negative clock valuation.

        Identical to default construction (``DBM(dim)``); kept as an explicit,
        self-documenting constructor.
        """
        return cls(dim)

    # -- accessors -------------------------------------------------------------
    def get(self, i: int, j: int) -> int:
        """Raw bound on ``x_i - x_j``."""
        return int(self.m[i * self.dim + j])

    def set(self, i: int, j: int, raw: int) -> None:
        """Set the raw bound on ``x_i - x_j`` (does not re-close)."""
        self.m[i * self.dim + j] = raw

    def upper_bound(self, clock: int) -> int:
        """Raw upper bound of ``clock`` (bound on ``x_clock - x_0``)."""
        return int(self.m[clock * self.dim])

    def lower_bound(self, clock: int) -> int:
        """Raw bound on ``x_0 - x_clock`` (the negated lower bound)."""
        return int(self.m[clock])

    def copy(self) -> "DBM":
        """Return an independent copy."""
        return DBM._wrap(self.dim, self.m.copy())

    def key(self) -> bytes:
        """A hashable canonical key (requires the DBM to be closed)."""
        return self.m.tobytes()

    # -- basic predicates --------------------------------------------------------
    def is_empty(self) -> bool:
        """Return ``True`` when the zone contains no clock valuation.

        A closed DBM is empty iff the diagonal carries a negative cycle,
        which manifests as ``m[0][0] < (0, <=)``.
        """
        return self.m[0] < LE_ZERO

    def contains_point(self, point: Sequence[int]) -> bool:
        """Check membership of a concrete valuation (point[0] must be 0)."""
        if len(point) != self.dim:
            raise ModelError("point has wrong dimension")
        for i in range(self.dim):
            for j in range(self.dim):
                raw = self.get(i, j)
                if raw >= INFINITY_RAW:
                    continue
                diff = point[i] - point[j]
                value, strict = bound_value(raw), bound_is_strict(raw)
                if diff > value or (strict and diff == value):
                    return False
        return True

    # -- canonicalisation ----------------------------------------------------------
    def close(self) -> "DBM":
        """Compute the canonical (all-pairs-shortest-path) form in place."""
        if self.dim <= _SQUARING_MAX_DIM:
            _close_squaring(self.m2, self.dim)
        else:
            _close_numpy_inplace(self.m2, self.dim)
        return self

    def close_touched(self, touched: Iterable[int]) -> "DBM":
        """Re-close after modifying only rows/columns in *touched*.

        Runs one vectorised Floyd-Warshall sweep per touched index, which is
        sufficient when the matrix was canonical before the modification and
        every modified entry has its row or column index in *touched* (for
        loosened entries, both; the ``closex`` lemma of the UPPAAL DBM
        library).
        """
        a = self.m2
        for k in touched:
            _sweep_k(a, k)
        return self

    # -- zone operations --------------------------------------------------------------
    def up(self) -> "DBM":
        """Delay: remove the upper bounds of all clocks (future closure)."""
        self.m[self.dim :: self.dim] = INFINITY_RAW
        return self

    def down(self) -> "DBM":
        """Past: allow all clocks to have been smaller (used for backwards analysis)."""
        a = self.m2
        dim = self.dim
        if dim > 1:
            # new lower bound of each clock: the loosest of (0, <=) and the
            # tightest difference bound x_j - x_i over the real clocks j
            mins = a[1:, 1:].min(axis=0)
            np.minimum(mins, LE_ZERO, out=mins)
            a[0, 1:] = mins
        return self.close()

    def constrain(self, i: int, j: int, raw: int) -> bool:
        """Add the constraint ``x_i - x_j (raw)``; re-close incrementally.

        Returns ``False`` if the zone became empty.
        """
        dim, m = self.dim, self.m
        if raw < m[i * dim + j]:
            m[i * dim + j] = raw
            # check for an immediate negative cycle
            if add_raw(raw, m[j * dim + i]) < LE_ZERO:
                m[0] = LT_ZERO - 2  # mark empty
                return False
            # exact rank-1 re-closure: for a canonical DBM tightened at a
            # single entry (i, j), the new shortest paths are
            # min(old[a][b], old[a][i] (+) raw (+) old[j][b]) -- one
            # vectorised outer combination instead of two k-sweeps
            a = self.m2
            s = _scratch(dim)
            via, w1, cand, w2, m2 = s.v1, s.u1, s.c2, s.w2, s.m2
            col = a[:, i]
            row = a[j, :]
            np.add(col, raw, out=via)  # col (+) raw
            np.bitwise_or(col, raw, out=w1)
            np.bitwise_and(w1, 1, out=w1)
            np.subtract(via, w1, out=via)
            # no intermediate clamp: an infinite operand keeps the total far
            # above _INF_GUARD (at most two infinities fit in an int64), so a
            # single clamp of the final sums suffices
            via = via[:, None]
            np.add(via, row, out=cand)  # (+) row
            np.bitwise_or(via, row, out=w2)
            np.bitwise_and(w2, 1, out=w2)
            np.subtract(cand, w2, out=cand)
            np.greater_equal(cand, _INF_GUARD, out=m2)
            np.copyto(cand, INFINITY_RAW, where=m2)
            np.minimum(a, cand, out=a)
        return not (m[0] < LE_ZERO)

    def impose_upper_bounds(self, clocks, raws, pairs) -> bool:
        """Tighten the upper bounds of several clocks at once and re-close.

        ``pairs`` is a list of ``(clock, raw)`` tuples with ``clock >= 1``;
        ``clocks``/``raws`` are the same data as numpy index/value arrays.
        Equivalent to ``constrain(c, 0, raw)`` for every pair (in any order --
        closure is order-independent), but performs a single batched re-close:
        every new edge ends in the reference clock, so shortest paths use at
        most one of them and
        ``new[a][b] = min(old[a][b], min_c(old[a][c] (+) raw_c) (+) old[0][b])``
        is the exact closure.  Emptiness is decided exactly by the per-pair
        negative-cycle check against the (canonical) input matrix.

        Returns ``False`` when the zone became empty.  Used for re-applying
        location invariants after ``up()``, where each bound is a guaranteed
        tightening of the just-removed upper bounds.
        """
        m, dim = self.m, self.dim
        for clock, raw in pairs:
            if add_raw(raw, m[clock]) < LE_ZERO:  # raw (+) m[0][clock]
                m[0] = LT_ZERO - 2  # mark empty
                return False
        if len(pairs) == 1:
            clock, raw = pairs[0]
            return self.constrain(clock, 0, raw)
        if not pairs:
            return not (m[0] < LE_ZERO)
        a = self.m2
        s = _scratch(dim)
        cols = a[:, clocks]  # (dim, len(pairs)) -- variable width, no scratch
        t = cols + raws  # candidates  old[a][c] (+) raw_c
        w = cols | raws
        w &= 1
        t -= w
        u, cand, w2, m2 = s.v1, s.c2, s.w2, s.m2
        np.minimum.reduce(t, axis=1, out=u)
        row0 = a[0, :]
        u = u[:, None]
        np.add(u, row0, out=cand)  # (+) old[0][b]
        np.bitwise_or(u, row0, out=w2)
        np.bitwise_and(w2, 1, out=w2)
        np.subtract(cand, w2, out=cand)
        np.greater_equal(cand, _INF_GUARD, out=m2)
        np.copyto(cand, INFINITY_RAW, where=m2)
        np.minimum(a, cand, out=a)
        return True

    def free(self, clock: int) -> "DBM":
        """Remove all constraints on *clock* (it may take any value >= 0)."""
        a = self.m2
        a[clock, :] = INFINITY_RAW
        a[:, clock] = a[:, 0]
        a[0, clock] = LE_ZERO
        a[clock, clock] = LE_ZERO
        return self

    def reset(self, clock: int, value: int = 0) -> "DBM":
        """Reset *clock* to the constant *value* (must be closed beforehand)."""
        a = self.m2
        inf = INFINITY_RAW
        pos = bound(value)
        neg = bound(-value)
        # grab both vectors before writing anything (the row write touches
        # the column-0 entry of the clock's row); list comprehensions beat
        # numpy at these lengths
        row0 = a[0, :].tolist()
        col0 = a[:, 0].tolist()
        # x_clock - x_j  <=  value + (x_0 - x_j)
        a[clock, :] = [pos + r - ((pos | r) & 1) if r < inf else inf for r in row0]
        # x_j - x_clock  <=  (x_j - x_0) - value
        a[:, clock] = [c + neg - ((c | neg) & 1) if c < inf else inf for c in col0]
        a[clock, clock] = LE_ZERO
        return self

    def permute(self, perm: Sequence[int]) -> "DBM":
        """Relabel the clocks: entry ``(i, j)`` receives old ``(perm[i], perm[j])``.

        *perm* must be a permutation of ``0 .. dim-1`` fixing index 0 (the
        reference clock).  A consistent relabelling preserves the canonical
        form, so no re-closure is needed.  Used by the symmetry reduction to
        map a zone onto the canonical representative of its discrete state.
        """
        p = np.asarray(perm, dtype=np.intp)
        if len(p) != self.dim or p[0] != 0:
            raise ModelError("permutation must cover every clock and fix the reference")
        a = self.m2
        np.copyto(a, a[np.ix_(p, p)])
        return self

    def copy_clock(self, dst: int, src: int) -> "DBM":
        """Assign clock *dst* := clock *src* (UPPAAL clock copy)."""
        if dst == src:
            return self
        a = self.m2
        a[dst, :] = a[src, :]
        a[:, dst] = a[:, src]
        a[dst, dst] = LE_ZERO
        a[dst, src] = LE_ZERO
        a[src, dst] = LE_ZERO
        return self

    def intersect(self, other: "DBM") -> "DBM":
        """In-place intersection with *other* (then re-closed)."""
        if other.dim != self.dim:
            raise ModelError("cannot intersect DBMs of different dimension")
        tighter = other.m < self.m
        if tighter.any():
            np.copyto(self.m, other.m, where=tighter)
            self.close()
        return self

    # -- relations -----------------------------------------------------------------------
    def is_subset_of(self, other: "DBM") -> bool:
        """Return ``True`` when this zone is included in *other* (both closed)."""
        if other.dim != self.dim:
            raise ModelError("cannot compare DBMs of different dimension")
        return not (self.m > other.m).any()

    def is_superset_of(self, other: "DBM") -> bool:
        """Return ``True`` when this zone includes *other* (both closed)."""
        return other.is_subset_of(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DBM):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.m, other.m)

    def __hash__(self) -> int:
        return hash((self.dim, self.m.tobytes()))

    def intersects(self, other: "DBM") -> bool:
        """Return ``True`` if the intersection of the two zones is non-empty."""
        return not self.copy().intersect(other).is_empty()

    # -- extrapolation ---------------------------------------------------------------------
    def extrapolate_max_bounds(self, max_bounds: Sequence[int]) -> "DBM":
        """Classical k-extrapolation with per-clock maximal constants.

        ``max_bounds[i]`` is the largest constant the model compares clock
        ``i`` against (``max_bounds[0]`` must be 0).  Bounds above the maximal
        constant are abstracted to infinity, lower bounds below ``-max`` are
        relaxed, and the result is re-closed.  This is the abstraction that
        guarantees termination of the zone-graph exploration while preserving
        reachability (Behrmann et al., "A Tutorial on UPPAAL").
        """
        if len(max_bounds) != self.dim:
            raise ModelError("max_bounds must have one entry per clock")
        upper_grid, lower_grid = _extrapolation_grids(tuple(max_bounds), tuple(max_bounds))
        return self._extrapolate_raw(upper_grid, lower_grid)

    def extrapolate_lu_bounds(self, lower: Sequence[int], upper: Sequence[int]) -> "DBM":
        """LU-extrapolation (Behrmann/Bouyer/Larsen/Pelanek).

        ``lower[i]`` is the largest constant appearing in lower-bound
        comparisons of clock ``i`` (``x_i > c`` / ``x_i >= c``), ``upper[i]``
        the largest constant in upper-bound comparisons (``x_i < c`` /
        ``x_i <= c``).  Coarser than max-bounds extrapolation, still exact for
        reachability of location/data properties.
        """
        if len(lower) != self.dim or len(upper) != self.dim:
            raise ModelError("LU bound vectors must have one entry per clock")
        upper_grid, lower_grid = _extrapolation_grids(tuple(lower), tuple(upper))
        return self._extrapolate_raw(upper_grid, lower_grid)

    def _extrapolate_raw(self, upper_grid: np.ndarray, lower_grid: np.ndarray) -> "DBM":
        """Shared vectorised extrapolation core.

        The grids come from :func:`_extrapolation_grids`: finite entries above
        ``upper_grid`` are abstracted to infinity, entries below
        ``lower_grid`` are relaxed to the grid value.  Row 0, the diagonal and
        disabled clocks are excluded via grid sentinels, so the hot path is a
        handful of whole-matrix operations with no per-call mask building.
        """
        a = self.m2
        s = _scratch(self.dim)
        raise_mask, relax_mask = s.m2, s.e2
        np.greater(a, upper_grid, out=raise_mask)
        np.less(a, INFINITY_RAW, out=relax_mask)  # reused as the finite filter
        np.logical_and(raise_mask, relax_mask, out=raise_mask)
        np.less(a, lower_grid, out=relax_mask)
        if not (raise_mask.any() or relax_mask.any()):
            return self
        np.copyto(a, INFINITY_RAW, where=raise_mask)
        np.copyto(a, lower_grid, where=relax_mask)
        # a full re-closure is required: a loosened entry can be tightened
        # back through *any* pair of untouched entries (restricting the sweep
        # to the touched clocks is unsound here, unlike for `constrain`)
        return self.close()

    # -- pretty printing ------------------------------------------------------------------
    def constraints(self, clock_names: Sequence[str] | None = None) -> list[str]:
        """Human-readable list of the non-trivial constraints of the zone."""
        names = clock_names or [f"x{i}" for i in range(self.dim)]
        if len(names) != self.dim:
            raise ModelError("clock_names must have one entry per clock")
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                if i == j:
                    continue
                raw = self.get(i, j)
                if raw >= INFINITY_RAW:
                    continue
                if i == 0 and raw == LE_ZERO:
                    continue  # trivial x_j >= 0
                value, strict = bound_value(raw), bound_is_strict(raw)
                op = "<" if strict else "<="
                if j == 0:
                    out.append(f"{names[i]} {op} {value}")
                elif i == 0:
                    out.append(f"-{names[j]} {op} {value}")
                else:
                    out.append(f"{names[i]} - {names[j]} {op} {value}")
        return out

    def __str__(self) -> str:
        return "{" + ", ".join(self.constraints()) + "}"

    def __repr__(self) -> str:
        return f"DBM(dim={self.dim}, {self})"


# cache of raw extrapolation grids per (lower, upper) bound vectors; the same
# vectors are used for every symbolic state of an exploration, so building the
# thresholds per call (as the scalar implementation did) would dominate
_EXTRA_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}


def _extrapolation_grids(
    lower_bounds: tuple[int, ...], upper_bounds: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw threshold grids for :meth:`DBM._extrapolate_raw` (cached).

    ``lower_bounds`` feeds the row thresholds (entries above ``(L_i, <=)``
    become infinite), ``upper_bounds`` the column relaxations (entries below
    ``(-U_j, <)`` become ``(-U_j, <)``; clocks with negative ``U_j`` are
    disabled).  For classical max-bounds extrapolation both vectors are the
    same ``M``.  Row 0 and the diagonal are masked out with sentinel values
    (``INFINITY_RAW`` / ``-INFINITY_RAW``) that no matrix entry can cross.
    """
    cached = _EXTRA_CACHE.get((lower_bounds, upper_bounds))
    if cached is not None:
        return cached
    dim = len(lower_bounds)
    upper_raw = np.array([2 * int(v) + 1 for v in lower_bounds], dtype=np.int64)
    lower_raw = np.array(
        [2 * -int(v) if v >= 0 else -INFINITY_RAW for v in upper_bounds], dtype=np.int64
    )
    upper_grid = np.repeat(upper_raw[:, None], dim, axis=1)
    upper_grid[0, :] = INFINITY_RAW  # the reference-clock row is never raised
    lower_grid = np.repeat(lower_raw[None, :], dim, axis=0)
    diagonal = np.arange(dim)
    upper_grid[diagonal, diagonal] = INFINITY_RAW
    lower_grid[diagonal, diagonal] = -INFINITY_RAW
    upper_grid.setflags(write=False)
    lower_grid.setflags(write=False)
    if len(_EXTRA_CACHE) > 256:  # bound the cache; query constants vary per run
        _EXTRA_CACHE.clear()
    _EXTRA_CACHE[(lower_bounds, upper_bounds)] = (upper_grid, lower_grid)
    return upper_grid, lower_grid


# ---------------------------------------------------------------------------
# Batched (stacked) kernels
# ---------------------------------------------------------------------------

#: raw value written to entry (0, 0) to mark a zone empty (matches the scalar
#: kernels, which use the same sentinel inline)
_EMPTY_RAW: int = LT_ZERO - 2

#: largest stack (rows) whose kernel scratch is cached: a wide round of the
#: layered core must not pin its buffers for the rest of the process.  The
#: core also chunks its stacks to this size; without the cap and the
#: chunking the sp-exact benchmark's peak RSS rose by 5.8 MB and its wall
#: time did not improve (3 runs each)
_MAX_STACK_ROWS = 64


def _block_capacity(rows: int) -> int:
    """Round a stack's row count up to its scratch size class (power of two)."""
    return max(4, 1 << (int(rows) - 1).bit_length())


class _StackScratch:
    """Preallocated work buffers for the stacked kernels, per (capacity, dim).

    The batched pipeline runs a handful of whole-stack ufuncs per kernel;
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


class DBMStack:
    """A stack of ``count`` DBMs over the same ``dim`` clocks in one buffer.

    The batched counterpart of :class:`DBM` used by the layered
    breadth-first core: the member matrices live in a single
    ``(count, dim, dim)`` int64 array (``DBMStack.a``) and every kernel is
    one set of whole-stack numpy operations, amortising the per-call
    dispatch overhead of the scalar kernels over the whole block.

    Semantics: each kernel is element-wise identical to applying its
    single-zone counterpart to every layer, with one deliberate exception --
    a layer that becomes *empty* is only guaranteed to be flagged empty
    (``entry (0, 0) < LE_ZERO``, see :meth:`empties`); its remaining entries
    are unspecified, exactly like the scalar kernels leave an empty zone's
    matrix behind.  Dead layers are carried along (flagged, not compacted);
    callers filter with :meth:`empties` or drop layers via :meth:`compress`.
    The property-based test suite pins the element-wise agreement on random
    zone stacks.

    Layers are lifted back into single-zone DBMs with :meth:`layer_dbm`.
    """

    __slots__ = ("count", "dim", "a")

    def __init__(self, count: int, dim: int):
        if count < 1:
            raise ModelError("DBMStack needs at least one layer")
        self.count = count
        self.dim = dim
        self.a = np.empty((count, dim, dim), dtype=np.int64)

    # -- constructors --------------------------------------------------------
    @classmethod
    def wrap(cls, a: np.ndarray) -> "DBMStack":
        """Adopt the ``(count, dim, dim)`` int64 array *a* without copying it:
        the kernels then update *a* in place."""
        stack = cls.__new__(cls)
        stack.count, stack.dim = len(a), a.shape[1]
        stack.a = a
        return stack

    @classmethod
    def from_zones(cls, zones: Sequence[DBM]) -> "DBMStack":
        """Stack copies of *zones* (which must share one dimension)."""
        if not zones:
            raise ModelError("cannot stack zero zones")
        dim = zones[0].dim
        if any(z.dim != dim for z in zones):
            raise ModelError("cannot stack DBMs of different dimensions")
        stack = cls(len(zones), dim)
        flat = stack.a.reshape(len(zones), dim * dim)
        for k, zone in enumerate(zones):
            flat[k] = zone.m
        return stack

    def copy(self) -> "DBMStack":
        """An independent copy of the whole stack."""
        return DBMStack.wrap(self.a.copy())

    def compress(self, indices: np.ndarray) -> "DBMStack":
        """A new stack holding only the layers selected by *indices*."""
        return DBMStack.wrap(self.a[indices])

    def layer_dbm(self, k: int) -> DBM:
        """Lift layer *k* into an independent :class:`DBM`."""
        return DBM(self.dim, raw=self.a[k])

    # -- predicates ----------------------------------------------------------
    def empties(self) -> np.ndarray:
        """Boolean mask of the layers whose zone is empty."""
        return self.a[:, 0, 0] < LE_ZERO

    def keys(self) -> list[bytes]:
        """Per-layer canonical keys (each layer must be closed)."""
        a = self.a
        return [a[k].tobytes() for k in range(self.count)]

    def guard_feasible(self, i: int, j: int, raw: int) -> np.ndarray:
        """Per-layer exactness precheck of ``constrain(i, j, raw)``.

        For a canonical layer the constraint is unsatisfiable iff it forms a
        negative cycle with the stored opposite bound -- the same rejection
        the scalar engine performs before paying for a zone copy.
        """
        opp = self.a[:, j, i]
        tight = raw + opp - ((raw | opp) & 1)
        return ~((opp < INFINITY_RAW) & (tight < LE_ZERO))

    # -- kernels -------------------------------------------------------------
    def up(self) -> "DBMStack":
        """Batched delay: remove the upper bounds of all clocks, every layer."""
        self.a[:, 1:, 0] = INFINITY_RAW
        return self

    def constrain(self, i: int, j: int, raw: int) -> "DBMStack":
        """Add ``x_i - x_j (raw)`` to every layer; exact rank-1 re-closure.

        Identical to :meth:`DBM.constrain` per layer (layers the bound does
        not tighten are provably unchanged by the shared rank-1 update, so
        no per-layer branching is needed); layers that become empty are
        flagged via entry ``(0, 0)``.
        """
        a = self.a
        s = _stack_scratch(self.count, self.dim)
        count = self.count
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
        return self

    def impose_upper_bounds(self, clocks: np.ndarray, raws: np.ndarray) -> "DBMStack":
        """Batched :meth:`DBM.impose_upper_bounds` across every layer.

        ``clocks``/``raws`` are the index/value arrays of the ``(clock,
        raw)`` pairs (all with ``clock >= 1``).  One exact re-closure for the
        whole stack; emptiness is decided per layer by the same per-pair
        negative-cycle check the scalar kernel uses.
        """
        if not len(clocks):
            return self
        a = self.a
        s = _stack_scratch(self.count, self.dim)
        count = self.count
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
        return self

    def reset(self, clock: int, value: int = 0) -> "DBMStack":
        """Batched clock reset ``clock := value`` on every (closed) layer."""
        a = self.a
        s = _stack_scratch(self.count, self.dim)
        count = self.count
        pos = bound(value)
        neg = bound(-value)
        row0 = a[:, 0, :]
        col0 = a[:, :, 0]
        # compute both updates before writing: the row write touches the
        # column-0 entry of the clock's row (mirrors the scalar snapshotting)
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
        return self

    def close(self) -> "DBMStack":
        """Batched full closure of every layer (min-plus squaring / per-k).

        Like :meth:`DBM.close`: exact Floyd-Warshall fixpoint for
        satisfiable layers, guaranteed empty flag for unsatisfiable ones.
        """
        a = self.a
        dim = self.dim
        count = self.count
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
        return self

    def permute(self, perm: Sequence[int]) -> "DBMStack":
        """Batched :meth:`DBM.permute` across every layer."""
        p = np.asarray(perm, dtype=np.intp)
        if len(p) != self.dim or p[0] != 0:
            raise ModelError("permutation must cover every clock and fix the reference")
        np.copyto(self.a, self.a[:, p[:, None], p[None, :]])
        return self

    def extrapolate(self, upper_grid: np.ndarray, lower_grid: np.ndarray) -> "DBMStack":
        """Batched :meth:`DBM._extrapolate_raw` across every layer.

        Only the layers an extrapolation mask actually touched are re-closed
        (untouched layers are bit-identical to their scalar counterpart,
        which skips the re-closure in exactly the same case).
        """
        a = self.a
        count = self.count
        s = _stack_scratch(count, self.dim)
        raise_mask, relax_mask = s.m3[:count], s.e3[:count]
        np.greater(a, upper_grid, out=raise_mask)
        np.less(a, INFINITY_RAW, out=relax_mask)  # reused as the finite filter
        np.logical_and(raise_mask, relax_mask, out=raise_mask)
        np.less(a, lower_grid, out=relax_mask)
        changed = raise_mask.any(axis=(1, 2))
        changed |= relax_mask.any(axis=(1, 2))
        if not changed.any():
            return self
        np.copyto(a, INFINITY_RAW, where=raise_mask)
        np.copyto(a, np.broadcast_to(lower_grid, a.shape), where=relax_mask)
        if changed.all():
            return self.close()
        touched = np.flatnonzero(changed)
        a[touched] = self.compress(touched).close().a
        return self


def reset_process_caches() -> None:
    """Drop the module's shared scratch buffers and extrapolation grids.

    The caches are plain value caches, so an inherited copy is never wrong --
    but a fork taken mid-insert can leave the dicts inconsistent, and the
    scratch buffers of a forked worker would keep parent-sized arrays alive.
    Registered as an ``os.register_at_fork`` child hook (``spawn`` workers
    re-import the module instead); safe to call at any quiescent point.
    """
    _SCRATCH_CACHE.clear()
    _STACK_SCRATCH.clear()
    _EXTRA_CACHE.clear()


if hasattr(os, "register_at_fork"):  # not available on Windows
    os.register_at_fork(after_in_child=reset_process_caches)
