"""Round-trip tests: vectorised DBM operations vs the pure-Python originals.

The references below are the seed implementations (scalar loops over a flat
Python list).  Every vectorised operation of the numpy-backed DBM must
produce bit-identical matrices -- the reachability engine's state counts and
passed-list keys depend on exact raw bounds, not merely on the represented
polyhedra.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbm import (
    DBM,
    INFINITY_RAW,
    LE_ZERO,
    _close_python,
    add_raw,
    bound,
)
from repro.core.kernels import _SQUARING_MAX_DIM

pytestmark = pytest.mark.usefixtures("kernel_backend")

DIM = 4

constraint_strategy = st.tuples(
    st.integers(0, DIM - 1),
    st.integers(0, DIM - 1),
    st.integers(-20, 20),
    st.booleans(),
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


# ---------------------------------------------------------------------------
# pure-Python reference implementations (the seed engine's scalar code)
# ---------------------------------------------------------------------------

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


def ref_free(m, dim, clock):
    for j in range(dim):
        if j != clock:
            m[clock * dim + j] = INFINITY_RAW
            m[j * dim + clock] = m[j * dim + 0]
    m[0 * dim + clock] = LE_ZERO
    m[clock * dim + clock] = LE_ZERO


def ref_intersect(m, other, dim):
    changed = False
    for idx, raw in enumerate(other):
        if raw < m[idx]:
            m[idx] = raw
            changed = True
    if changed:
        _close_python(m, dim)


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


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

bounds_strategy = st.lists(st.integers(0, 15), min_size=DIM, max_size=DIM).map(
    lambda bs: [0] + bs[1:]
)


class TestVectorisedRoundTrips:
    @given(st.lists(constraint_strategy, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_up(self, constraints):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reference = _as_list(zone)
        ref_up(reference, DIM)
        assert _as_list(zone.up()) == reference

    @given(st.lists(constraint_strategy, max_size=10), st.integers(1, DIM - 1), st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_reset(self, constraints, clock, value):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reference = _as_list(zone)
        ref_reset(reference, DIM, clock, value)
        assert _as_list(zone.reset(clock, value)) == reference

    @given(st.lists(constraint_strategy, max_size=10), st.integers(1, DIM - 1))
    @settings(max_examples=100, deadline=None)
    def test_free(self, constraints, clock):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reference = _as_list(zone)
        ref_free(reference, DIM, clock)
        assert _as_list(zone.free(clock)) == reference

    @given(st.lists(constraint_strategy, max_size=8), st.lists(constraint_strategy, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_intersect(self, left_constraints, right_constraints):
        left = _build_zone(left_constraints)
        right = _build_zone(right_constraints)
        if left.is_empty() or right.is_empty():
            return
        reference = _as_list(left)
        ref_intersect(reference, _as_list(right), DIM)
        result = _as_list(left.intersect(right))
        if reference[0] < LE_ZERO or result[0] < LE_ZERO:
            # both must agree that the intersection is empty (the auto
            # backend marks emptiness more eagerly than a bare FW pass)
            assert left.is_empty()
            probe = DBM(DIM, reference)
            assert any(
                add_raw(probe.get(i, j), probe.get(j, i)) < LE_ZERO
                for i in range(DIM)
                for j in range(DIM)
            ) or reference[0] < LE_ZERO
        else:
            assert result == reference

    @given(st.lists(constraint_strategy, max_size=8), bounds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_extrapolate_max_bounds(self, constraints, max_bounds):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reference = _as_list(zone)
        ref_extrapolate_max_bounds(reference, DIM, max_bounds)
        assert _as_list(zone.extrapolate_max_bounds(max_bounds)) == reference

    @given(st.lists(constraint_strategy, max_size=8), bounds_strategy, bounds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_extrapolate_lu_bounds(self, constraints, lower, upper):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reference = _as_list(zone)
        ref_extrapolate_lu_bounds(reference, DIM, lower, upper)
        assert _as_list(zone.extrapolate_lu_bounds(lower, upper)) == reference

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_close_matches_python_reference(self, data):
        """close() squares up to _SQUARING_MAX_DIM clocks and sweeps per k
        above: on unclosed satisfiable matrices of either size both kernels
        must reach the scalar loop's fixpoint bit for bit."""
        dim = data.draw(st.sampled_from(
            [2, DIM, _SQUARING_MAX_DIM, _SQUARING_MAX_DIM + 1, 30]
        ))
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
                zone.set(i, j, min(zone.get(i, j), raw))
        reference = _as_list(zone)
        _close_python(reference, dim)
        assert _as_list(zone.close()) == reference

    @given(
        st.lists(constraint_strategy, max_size=8),
        st.lists(st.tuples(st.integers(1, DIM - 1), st.integers(0, 25)), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_impose_upper_bounds_matches_sequential_constrain(self, constraints, bounds_pairs):
        base = _build_zone(constraints)
        if base.is_empty():
            return
        base.up()
        pairs = [(clock, bound(value)) for clock, value in bounds_pairs]
        batched = base.copy()
        sequential = base.copy()
        ok_batched = batched.impose_upper_bounds(
            np.array([c for c, _ in pairs], dtype=np.intp),
            np.array([r for _, r in pairs], dtype=np.int64),
            pairs,
        )
        ok_sequential = True
        for clock, raw in pairs:
            if not sequential.constrain(clock, 0, raw):
                ok_sequential = False
                break
        assert ok_batched == ok_sequential
        if ok_batched:
            assert _as_list(batched) == _as_list(sequential)

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

    def test_close_clamps_to_exact_infinity(self):
        zone = DBM.universal(4)
        zone.constrain(1, 0, bound(1_000_000))
        zone.up()
        zone.close()
        values = set(zone.m.tolist())
        assert all(v == INFINITY_RAW or v < INFINITY_RAW // 2 for v in values)
