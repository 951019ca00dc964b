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

The zone kernels -- closure, ``constrain``, ``impose_upper_bounds``,
``reset`` and the extrapolations -- live in :mod:`repro.core.kernels`, which
binds them once at import to compiled C functions or, without a C compiler,
to their numpy twins; :class:`DBM` and :class:`DBMStack` call them and never
ask which backend runs.  Both backends compute bit-identical zones.

Canonical form
--------------
All public operations keep the DBM *closed* (canonical): every entry is the
length of the shortest path in the constraint graph.  The full closure
reaches that fixpoint by Floyd-Warshall (compiled) or min-plus squaring
(numpy); ``constrain`` re-closes with an exact rank-1 update, and
extrapolation re-closes a zone only when it changed it.
``docs/performance.md`` describes both backends.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.core import kernels
from repro.core.kernels import INFINITY_RAW, LE_ZERO, LT_ZERO, add_raw
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
# Reference closure
# ---------------------------------------------------------------------------

def _close_python(m: list[int], dim: int) -> None:
    """Floyd-Warshall closure of a flat row-major raw-bound list, in place.

    The seed's scalar triple loop, kept as the reference the tests compare
    both kernel backends against; the engine never calls it.
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
        kernels.close_zone(self.m2)
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

        For a canonical DBM tightened at the single entry ``(i, j)`` the
        exact re-closure is the rank-1 update ``new[a][b] = min(old[a][b],
        old[a][i] (+) raw (+) old[j][b])``.  Returns ``False`` if the zone
        became empty.
        """
        return kernels.constrain_zone(self.m2, i, j, raw)

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
        return kernels.impose_upper_bounds_zone(self.m2, clocks, raws, pairs)

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
        kernels.reset_zone(self.m2, clock, value)
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
        """Shared extrapolation core.

        The grids come from :func:`_extrapolation_grids`: finite entries above
        ``upper_grid`` are abstracted to infinity, entries below
        ``lower_grid`` are relaxed to the grid value, and a changed zone is
        fully re-closed (a loosened entry can be tightened back through any
        pair of untouched entries).  Row 0, the diagonal and disabled clocks
        are excluded via grid sentinels.
        """
        kernels.extrapolate_zone(self.m2, upper_grid, lower_grid)
        return self

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

class DBMStack:
    """A stack of ``count`` DBMs over the same ``dim`` clocks in one buffer.

    The batched counterpart of :class:`DBM` used by the layered
    breadth-first core: the member matrices live in a single
    ``(count, dim, dim)`` int64 array (``DBMStack.a``) and every kernel is
    one call into :mod:`repro.core.kernels` for the whole stack, amortising
    the per-call overhead of the scalar kernels over the whole block.

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

        Identical to :meth:`DBM.constrain` per layer; layers that become
        empty are flagged via entry ``(0, 0)``.
        """
        kernels.constrain_stack(self.a, i, j, raw)
        return self

    def impose_upper_bounds(self, clocks: np.ndarray, raws: np.ndarray) -> "DBMStack":
        """Batched :meth:`DBM.impose_upper_bounds` across every layer.

        ``clocks``/``raws`` are the index/value arrays of the ``(clock,
        raw)`` pairs (all with ``clock >= 1``).  One exact re-closure for the
        whole stack; emptiness is decided per layer by the same per-pair
        negative-cycle check the scalar kernel uses.
        """
        kernels.impose_upper_bounds_stack(self.a, clocks, raws)
        return self

    def reset(self, clock: int, value: int = 0) -> "DBMStack":
        """Batched clock reset ``clock := value`` on every (closed) layer."""
        kernels.reset_stack(self.a, clock, value)
        return self

    def close(self) -> "DBMStack":
        """Batched full closure of every layer.

        Like :meth:`DBM.close`: exact Floyd-Warshall fixpoint for
        satisfiable layers, guaranteed empty flag for unsatisfiable ones.
        """
        kernels.close_stack(self.a)
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

        Only the layers the extrapolation actually changed are re-closed
        (untouched layers are bit-identical to their scalar counterpart,
        which skips the re-closure in exactly the same case).
        """
        kernels.extrapolate_stack(self.a, upper_grid, lower_grid)
        return self


def reset_process_caches() -> None:
    """Drop the extrapolation grids and the numpy kernels' scratch buffers.

    The caches are plain value caches, so an inherited copy is never wrong --
    but a fork taken mid-insert can leave the dicts inconsistent, and the
    scratch buffers of a forked worker would keep parent-sized arrays alive.
    Registered as an ``os.register_at_fork`` child hook (``spawn`` workers
    re-import the module instead); safe to call at any quiescent point.
    """
    kernels.clear_scratch()
    _EXTRA_CACHE.clear()


if hasattr(os, "register_at_fork"):  # not available on Windows
    os.register_at_fork(after_in_child=reset_process_caches)
