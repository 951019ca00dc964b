"""Property tests: the zone-array kernels vs pure-Python references.

The references below are the seed implementations (scalar loops over a flat
Python list).  Every kernel of :mod:`repro.core.kernels` that the firing
pipeline runs -- rank-1 ``constrain``, ``impose_upper_bounds``, ``reset``,
the extrapolations with their re-closure -- and the delay step of the
successor generator must produce bit-identical matrices on every layer of a
``(count, dim, dim)`` zone array, one layer or several, on both backends:
the reachability engine's state counts and passed-list keys depend on exact
raw bounds, not merely on the represented polyhedra.  A layer whose zone is
empty is only guaranteed to be flagged empty (entry ``(0, 0)`` below
``LE_ZERO``), so the properties compare matrices on the live layers and the
flag on the others, and check the live count a kernel returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.dbm import (
    DBM,
    INFINITY_RAW,
    LE_ZERO,
    _close_python,
    _extrapolation_grids,
    add_raw,
    bound,
)
from repro.core.successors import SuccessorGenerator, _DiscreteInfo

pytestmark = pytest.mark.usefixtures("kernel_backend")

DIM = 4

constraint_strategy = st.tuples(
    st.integers(0, DIM - 1),
    st.integers(0, DIM - 1),
    st.integers(-20, 20),
    st.booleans(),
)

#: one constraint list per layer: one-layer and multi-layer arrays
layers_strategy = st.lists(st.lists(constraint_strategy, max_size=8), min_size=1, max_size=6)

bounds_strategy = st.lists(st.integers(0, 15), min_size=DIM, max_size=DIM).map(
    lambda bs: [0] + bs[1:]
)


def _build_zone(constraints) -> DBM:
    zone = DBM.universal(DIM)
    for i, j, value, strict in constraints:
        if i == j:
            continue
        if not zone.constrain(i, j, bound(value, strict)):
            break
    return zone


def _as_list(zone: DBM) -> list[int]:
    return zone.m.tolist()


def _build_layers(constraint_lists) -> np.ndarray:
    return np.stack([_build_zone(constraints).m2 for constraints in constraint_lists])


def _check(zones: np.ndarray, expected: list, live=None) -> None:
    """Live layers match their reference bitwise, dead ones are flagged,
    and *live* (when given) counts the live references."""
    if live is not None:
        assert live == sum(m is not None for m in expected)
    for layer, m in enumerate(expected):
        if m is None:
            assert zones[layer, 0, 0] < LE_ZERO, f"layer {layer}: reference empty, kernel not"
        else:
            assert zones[layer].reshape(-1).tolist() == m, f"layer {layer} diverged"


def _reference(zones: np.ndarray, operation) -> list:
    """Apply the in-place reference *operation* to a list copy of every live
    layer; it returns False once the layer is empty (then None)."""
    out = []
    for layer in zones:
        m = layer.reshape(-1).tolist()
        alive = m[0] >= LE_ZERO and operation(m) is not False
        out.append(m if alive else None)
    return out


# ---------------------------------------------------------------------------
# pure-Python reference implementations (the seed engine's scalar code)
# ---------------------------------------------------------------------------

def _non_empty(m, dim) -> bool:
    return all(m[k * dim + k] >= LE_ZERO for k in range(dim))


def ref_constrain(m, dim, i, j, raw) -> bool:
    """Tighten entry ``(i, j)``, close, and report whether the zone is non-empty."""
    if raw < m[i * dim + j]:
        m[i * dim + j] = raw
        _close_python(m, dim)
    return _non_empty(m, dim)


def ref_up(m, dim):
    for i in range(1, dim):
        m[i * dim + 0] = INFINITY_RAW


def ref_reset(m, dim, clock, value):
    pos, neg = bound(value), bound(-value)
    for j in range(dim):
        if j == clock:
            continue
        m[clock * dim + j] = add_raw(pos, m[0 * dim + j])
        m[j * dim + clock] = add_raw(m[j * dim + 0], neg)
    m[clock * dim + clock] = LE_ZERO


def ref_extrapolate_max_bounds(m, dim, max_bounds):
    upper_raw = [bound(value) for value in max_bounds]
    lower_raw = [bound(-value, strict=True) for value in max_bounds]
    changed = False
    for i in range(dim):
        row = i * dim
        for j in range(dim):
            if i == j:
                continue
            raw = m[row + j]
            if raw >= INFINITY_RAW:
                continue
            if i != 0 and raw > upper_raw[i]:
                m[row + j] = INFINITY_RAW
                changed = True
            elif max_bounds[j] >= 0 and raw < lower_raw[j]:
                m[row + j] = lower_raw[j]
                changed = True
    if changed:
        _close_python(m, dim)
    return _non_empty(m, dim)


def ref_extrapolate_lu_bounds(m, dim, lower, upper):
    changed = False
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            raw = m[i * dim + j]
            if raw >= INFINITY_RAW:
                continue
            if i != 0 and raw > bound(lower[i]):
                m[i * dim + j] = INFINITY_RAW
                changed = True
            elif upper[j] >= 0 and raw < bound(-upper[j], strict=True):
                m[i * dim + j] = bound(-upper[j], strict=True)
                changed = True
    if changed:
        _close_python(m, dim)
    return _non_empty(m, dim)


def extrapolate_max_bounds(zones: np.ndarray, max_bounds) -> np.ndarray:
    """The extrapolation kernel with the classical grids of *max_bounds*."""
    grids = _extrapolation_grids(tuple(max_bounds), tuple(max_bounds))
    kernels.extrapolate_stack(zones, *grids)
    return zones


# ---------------------------------------------------------------------------
# kernel vs reference properties
# ---------------------------------------------------------------------------

class TestKernelsAgainstReferences:
    @given(layers_strategy, st.lists(constraint_strategy, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_constrain_matches_sequential_constrain(self, constraint_lists, constraints):
        rows = [(i, j, bound(value, strict)) for i, j, value, strict in constraints if i != j]
        zones = _build_layers(constraint_lists)

        def sequential(m):
            return all(ref_constrain(m, DIM, i, j, raw) for i, j, raw in rows)

        expected = _reference(zones, sequential)
        live = kernels.constrain_stack(zones, kernels.constraint_rows(rows))
        _check(zones, expected, live)

    @given(
        layers_strategy,
        st.lists(st.tuples(st.integers(1, DIM - 1), st.integers(0, 25)), max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_impose_upper_bounds_matches_sequential_constrain(self, constraint_lists, pairs):
        pairs = [(clock, bound(value)) for clock, value in pairs]
        zones = _build_layers(constraint_lists)
        zones[:, 1:, 0] = INFINITY_RAW  # the kernel's use: right after up

        def sequential(m):
            return all(ref_constrain(m, DIM, clock, 0, raw) for clock, raw in pairs)

        expected = _reference(zones, sequential)
        live = kernels.impose_upper_bounds_stack(
            zones,
            np.array([c for c, _ in pairs], dtype=np.int64),
            np.array([r for _, r in pairs], dtype=np.int64),
        )
        _check(zones, expected, live)

    @given(layers_strategy, st.integers(1, DIM - 1), st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_reset(self, constraint_lists, clock, value):
        zones = _build_layers(constraint_lists)
        expected = _reference(zones, lambda m: ref_reset(m, DIM, clock, value))
        live = kernels.reset_stack(zones, clock, value)
        _check(zones, expected, live)

    @given(layers_strategy, bounds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_extrapolate_max_bounds(self, constraint_lists, max_bounds):
        zones = _build_layers(constraint_lists)
        expected = _reference(zones, lambda m: ref_extrapolate_max_bounds(m, DIM, max_bounds))
        _check(extrapolate_max_bounds(zones, max_bounds), expected)

    @given(layers_strategy, bounds_strategy, bounds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_extrapolate_lu_bounds(self, constraint_lists, lower, upper):
        zones = _build_layers(constraint_lists)
        expected = _reference(zones, lambda m: ref_extrapolate_lu_bounds(m, DIM, lower, upper))
        kernels.extrapolate_stack(zones, *_extrapolation_grids(tuple(lower), tuple(upper)))
        _check(zones, expected)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_extrapolation_closes_like_the_python_reference(self, data):
        """A changed layer is re-closed by Floyd-Warshall (compiled) or by
        min-plus squaring up to _SQUARING_MAX_DIM clocks and the per-k sweep
        above (numpy): on unclosed satisfiable matrices every layer must
        reach the scalar loop's fixpoint bit for bit.  Each layer carries a
        redundant upper bound above its clock's maximal constant, so the
        extrapolation changes -- and re-closes -- every layer."""
        dim = data.draw(st.sampled_from(
            [3, DIM, kernels._SQUARING_MAX_DIM, kernels._SQUARING_MAX_DIM + 1, 30]
        ))
        count = data.draw(st.integers(1, 3))
        zones = np.empty((count, dim, dim), dtype=np.int64)
        max_bounds = [0] + [40] * (dim - 1)
        for layer in range(count):
            # constraints satisfied by one concrete point keep the matrix
            # satisfiable, so the shortest-path fixpoint is unique
            point = [0] + data.draw(
                st.lists(st.integers(0, 30), min_size=dim - 1, max_size=dim - 1)
            )
            edges = data.draw(st.lists(
                st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                          st.integers(0, 10), st.booleans()),
                max_size=3 * dim,
            ))
            zone = DBM.universal(dim)
            for i, j, slack, strict in edges:
                if i != j:
                    raw = bound(point[i] - point[j] + slack, strict and slack > 0)
                    zone.m2[i, j] = min(zone.m2[i, j], raw)
            zone.m2[dim - 1, 0] = bound(100)  # above 40: raised to infinity
            zones[layer] = zone.m2
        expected = _reference(zones, lambda m: ref_extrapolate_max_bounds(m, dim, max_bounds))
        _check(extrapolate_max_bounds(zones, max_bounds), expected)

    @given(
        layers_strategy,
        st.lists(
            st.tuples(st.integers(1, DIM - 1), st.integers(0, DIM - 1), st.integers(0, 25)),
            max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_delay_step(self, constraint_lists, bounds, urgent):
        """The generator's target-invariant and delay step: invariants, then
        (unless time is frozen) up and the invariants again -- upper bounds
        and difference bounds alike."""
        invariants = tuple((i, j, bound(value)) for i, j, value in bounds if i != j)
        info = _DiscreteInfo(urgent, frozenset(), invariants)
        zones = _build_layers(constraint_lists)
        zones = zones[zones[:, 0, 0] >= LE_ZERO]  # the step takes live layers
        if not len(zones):
            return

        def settle(m):
            if not all(ref_constrain(m, DIM, i, j, raw) for i, j, raw in invariants):
                return False
            if urgent:
                return True
            ref_up(m, DIM)
            return all(ref_constrain(m, DIM, i, j, raw) for i, j, raw in invariants)

        expected = _reference(zones, settle)
        live = SuccessorGenerator._settle(zones, info)
        _check(zones, expected, live)

    @given(st.lists(constraint_strategy, max_size=8), st.lists(constraint_strategy, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_subset_matches_entrywise_reference(self, left_constraints, right_constraints):
        left = _build_zone(left_constraints)
        right = _build_zone(right_constraints)
        expected = all(a <= b for a, b in zip(_as_list(left), _as_list(right)))
        assert left.is_subset_of(right) == expected


class TestInfinityGuard:
    def test_constrain_keeps_exact_infinities(self):
        zone = DBM.universal(3)
        assert zone.constrain(1, 2, bound(5))
        for raw in zone.m.tolist():
            assert raw == INFINITY_RAW or raw < INFINITY_RAW // 2

    def test_extrapolation_closure_clamps_to_exact_infinity(self):
        zone = DBM.universal(4)
        zone.constrain(1, 0, bound(1_000_000))
        zone.constrain(0, 2, bound(-1_000))
        extrapolate_max_bounds(zone.m2[None], [0, 10, 10, 10])
        values = set(zone.m.tolist())
        assert all(v == INFINITY_RAW or v < INFINITY_RAW // 2 for v in values)
