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
``DBM.m2`` is the same memory viewed as an ``n x n`` array, and
``DBM.m2[None]`` as a stack of one zone.  The array belongs to the DBM:
:meth:`DBM.copy` allocates a fresh one, and a dead zone is reclaimed by the
garbage collector like any other array.

:class:`DBM` is the read side of a zone -- bounds, inclusion, membership,
printing -- plus :meth:`DBM.constrain` for the property checks and the
witness schedule solver.  Everything that transforms zones in the
exploration (firing, delay, extrapolation, symmetry folding) works on
``(count, dim, dim)`` zone arrays through the kernels of
:mod:`repro.core.kernels`, which binds them once at import to compiled C
functions or, without a C compiler, to their numpy twins; both compute
bit-identical zones.

Canonical form
--------------
Every zone the engine stores is *closed* (canonical): every entry is the
length of the shortest path in the constraint graph.  ``constrain``
re-closes with an exact rank-1 update, and extrapolation re-closes a zone
by Floyd-Warshall (compiled) or min-plus squaring (numpy) only when it
changed it.  ``docs/performance.md`` describes both backends.
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
    ``1 .. dim-1``.  :meth:`constrain` modifies the receiver in place; use
    :meth:`copy` for a snapshot to constrain.
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

    # -- predicates and constraints ------------------------------------------------
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

    def constrain(self, i: int, j: int, raw: int) -> bool:
        """Add the constraint ``x_i - x_j (raw)``; re-close incrementally.

        For a canonical DBM tightened at the single entry ``(i, j)`` the
        exact re-closure is the rank-1 update ``new[a][b] = min(old[a][b],
        old[a][i] (+) raw (+) old[j][b])``, run by the stack kernel on the
        zone as a stack of one.  Returns ``False`` if the zone became empty.
        """
        rows = kernels.constraint_rows(((i, j, raw),))
        return kernels.constrain_stack(self.m2[None], rows) == 1

    # -- relations -----------------------------------------------------------------------
    def is_subset_of(self, other: "DBM") -> bool:
        """Return ``True`` when this zone is included in *other* (both closed)."""
        if other.dim != self.dim:
            raise ModelError("cannot compare DBMs of different dimension")
        return not (self.m > other.m).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DBM):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.m, other.m)

    def __hash__(self) -> int:
        return hash((self.dim, self.m.tobytes()))

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
    """Raw threshold grids of ``kernels.extrapolate_stack`` (cached).

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


class DBMStack:
    """Retired: zone stacks are plain ``(count, dim, dim)`` int64 arrays.

    The benchmark's span tracer (``perfbench/tracing.py``) still names
    ``DBMStack.close`` as a target and its harness test resolves every
    target, so this shell keeps the name until the benchmark next changes
    (ROADMAP, "Mend the benchmark texts").  Nothing calls it.
    """

    def close(self):
        raise ModelError("DBMStack is retired: zone stacks are plain arrays")
