"""Tests of the DBM (zone) library."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.dbm import (
    DBM,
    INFINITY_RAW,
    LE_ZERO,
    DBMStack,
    _close_python,
    add_raw,
    bound,
    bound_as_tuple,
    bound_is_strict,
    bound_value,
    negate_weak,
    reset_process_caches,
)
from repro.core.kernels import _MAX_STACK_ROWS, _SQUARING_MAX_DIM, _block_capacity
from repro.util.errors import ModelError

pytestmark = pytest.mark.usefixtures("kernel_backend")

#: for the tests that watch the numpy kernels' scratch caches
numpy_only = pytest.mark.parametrize("kernel_backend", ["numpy"], indirect=True)


class TestBoundEncoding:
    def test_roundtrip_weak(self):
        raw = bound(5)
        assert bound_value(raw) == 5
        assert not bound_is_strict(raw)

    def test_roundtrip_strict(self):
        raw = bound(-3, strict=True)
        assert bound_value(raw) == -3
        assert bound_is_strict(raw)

    def test_ordering_tighter_is_smaller(self):
        assert bound(3, strict=True) < bound(3) < bound(4, strict=True)

    def test_add_raw(self):
        # (2, <=) + (3, <=) = (5, <=)
        assert add_raw(bound(2), bound(3)) == bound(5)
        # (2, <) + (3, <=) = (5, <)
        assert add_raw(bound(2, strict=True), bound(3)) == bound(5, strict=True)
        assert add_raw(bound(2), INFINITY_RAW) == INFINITY_RAW

    def test_negate_weak(self):
        assert negate_weak(bound(4)) == bound(-4, strict=True)
        assert negate_weak(bound(4, strict=True)) == bound(-4)

    def test_infinity_decodes_to_none(self):
        assert bound_as_tuple(INFINITY_RAW) == (None, True)


class TestBasicZones:
    def test_zero_zone_contains_origin_only(self):
        zone = DBM.zero(3)
        assert zone.contains_point([0, 0, 0])
        assert not zone.contains_point([0, 1, 0])

    def test_universal_zone_contains_everything_nonnegative(self):
        zone = DBM.universal(3)
        assert zone.contains_point([0, 5, 100])
        assert zone.contains_point([0, 0, 0])

    def test_default_constructor_is_universal(self):
        assert DBM(3).close() == DBM.universal(3).close()

    def test_empty_after_contradictory_constraints(self):
        zone = DBM.universal(2)
        assert zone.constrain(1, 0, bound(5))     # x <= 5
        assert not zone.constrain(0, 1, bound(-6))  # x >= 6
        assert zone.is_empty()

    def test_up_removes_upper_bounds(self):
        zone = DBM.zero(2)
        zone.up()
        assert zone.contains_point([0, 1000])
        # lower bounds (here x >= 0) survive delay
        assert not zone.contains_point([0, -1])

    def test_up_preserves_canonical_form(self):
        zone = DBM.zero(3)
        zone.constrain(1, 0, bound(5))
        zone.up()
        copy = zone.copy()
        copy.close()
        assert copy == zone

    def test_down_allows_smaller_values(self):
        zone = DBM.zero(2)
        zone.reset(1, 10)
        zone.down()
        assert zone.contains_point([0, 3])
        assert zone.contains_point([0, 10])

    def test_reset(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(7))
        zone.reset(1, 0)
        assert zone.contains_point([0, 0, 50])
        assert not zone.contains_point([0, 1, 0])

    def test_reset_to_value(self):
        zone = DBM.zero(2)
        zone.up()
        zone.reset(1, 5)
        assert zone.contains_point([0, 5])
        assert not zone.contains_point([0, 6])

    def test_copy_clock(self):
        zone = DBM.zero(3)
        zone.up()
        zone.constrain(1, 0, bound(4))  # x <= 4 (and x == y from zero+up diag 0)
        zone.copy_clock(2, 1)
        # now y == x everywhere in the zone
        assert zone.contains_point([0, 3, 3])
        assert not zone.contains_point([0, 3, 2])

    def test_free_removes_all_constraints_on_clock(self):
        zone = DBM.zero(3)
        zone.free(1)
        assert zone.contains_point([0, 99, 0])
        assert not zone.contains_point([0, 99, 1])

    def test_intersect(self):
        a = DBM.universal(2)
        a.constrain(1, 0, bound(10))
        b = DBM.universal(2)
        b.constrain(0, 1, bound(-5))  # x >= 5
        a.intersect(b)
        assert a.contains_point([0, 7])
        assert not a.contains_point([0, 4])
        assert not a.contains_point([0, 11])

    def test_constraints_pretty_printing(self):
        zone = DBM.universal(2)
        zone.constrain(1, 0, bound(10))
        text = zone.constraints(["t0", "x"])
        assert "x <= 10" in text

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ModelError):
            DBM.universal(2).intersect(DBM.universal(3))

    def test_key_is_stable(self):
        a = DBM.zero(3)
        b = DBM.zero(3)
        assert a.key() == b.key()
        b.up()
        assert a.key() != b.key()


class TestRelations:
    def test_subset_reflexive(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(5))
        assert zone.is_subset_of(zone)

    def test_zero_subset_of_universal(self):
        assert DBM.zero(3).is_subset_of(DBM.universal(3))
        assert not DBM.universal(3).is_subset_of(DBM.zero(3))

    def test_superset(self):
        assert DBM.universal(3).is_superset_of(DBM.zero(3))

    def test_intersects(self):
        a = DBM.universal(2)
        a.constrain(1, 0, bound(5))
        b = DBM.universal(2)
        b.constrain(0, 1, bound(-3))
        assert a.intersects(b)
        c = DBM.universal(2)
        c.constrain(0, 1, bound(-6, strict=True))
        assert not a.intersects(c)


class TestExtrapolation:
    def test_extrapolation_removes_large_upper_bounds(self):
        zone = DBM.universal(2)
        zone.constrain(1, 0, bound(1000))
        zone.extrapolate_max_bounds([0, 10])
        # the upper bound 1000 > 10 is abstracted away
        assert zone.upper_bound(1) >= INFINITY_RAW

    def test_extrapolation_keeps_small_bounds(self):
        zone = DBM.universal(2)
        zone.constrain(1, 0, bound(7))
        zone.extrapolate_max_bounds([0, 10])
        assert zone.upper_bound(1) == bound(7)

    def test_extrapolation_relaxes_large_lower_bounds(self):
        zone = DBM.universal(2)
        zone.constrain(0, 1, bound(-1000))  # x >= 1000
        zone.extrapolate_max_bounds([0, 10])
        value, strict = bound_as_tuple(zone.lower_bound(1))
        assert value == -10 and strict

    def test_extrapolated_zone_is_superset(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(500))
        zone.constrain(0, 2, bound(-700))
        original = zone.copy()
        zone.extrapolate_max_bounds([0, 10, 10])
        assert original.is_subset_of(zone)

    def test_lu_extrapolation_is_superset(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(500))
        zone.constrain(0, 2, bound(-700))
        original = zone.copy()
        zone.extrapolate_lu_bounds([0, 10, 10], [0, 20, 20])
        assert original.is_subset_of(zone)

    def test_wrong_bound_vector_length(self):
        with pytest.raises(ModelError):
            DBM.universal(2).extrapolate_max_bounds([0])


class TestClose:
    """``close()`` squares up to ``_SQUARING_MAX_DIM`` clocks and sweeps per
    k above; either kernel must reproduce the scalar reference loop."""

    @pytest.mark.parametrize(
        "dim", [2, 4, _SQUARING_MAX_DIM, _SQUARING_MAX_DIM + 1, 32]
    )
    def test_matches_python_reference(self, dim):
        zone = DBM.universal(dim)
        # an unclosed chain x1 <= 5, x_{i+1} - x_i <= 3 with a few strict
        # lower bounds: the closure must propagate along the whole chain
        zone.set(1, 0, bound(5))
        for i in range(1, dim - 1):
            zone.set(i + 1, i, bound(3, strict=i % 3 == 0))
            zone.set(0, i, bound(-(i % 4), strict=i % 2 == 0))
        expected = zone.m.tolist()
        _close_python(expected, dim)
        assert zone.close().m.tolist() == expected
        assert not zone.is_empty()

    def test_squaring_marks_a_negative_cycle_empty(self):
        zone = DBM.universal(4)
        zone.set(1, 2, bound(-2))
        zone.set(2, 1, bound(1))
        assert zone.close().is_empty()


class TestOwnership:
    def test_copy_is_independent(self):
        zone = DBM.zero(3)
        clone = zone.copy()
        clone.constrain(1, 0, bound(5))
        assert zone == DBM.zero(3)
        assert not np.shares_memory(zone.m, clone.m)

    @numpy_only
    def test_reset_process_caches_clears_kernel_scratch(self):
        from repro.core import dbm

        DBM.universal(3).close()  # populate the scalar scratch cache
        DBMStack.from_zones([DBM.zero(3)]).close()  # and the stack scratch
        assert kernels._SCRATCH_CACHE and kernels._STACK_SCRATCH
        reset_process_caches()
        assert not kernels._SCRATCH_CACHE
        assert not kernels._STACK_SCRATCH
        assert not dbm._EXTRA_CACHE
        # kernels repopulate on demand and stay correct
        assert DBM.zero(3).up().close().get(1, 0) >= 0

    def test_raw_constructor_copies_its_input(self):
        # federations hand out zones built from their stored rows: a zone
        # must never write through to the row it was built from
        row = DBM.zero(3).m.copy()
        zone = DBM(3, raw=row)
        zone.up()
        assert np.array_equal(row, DBM.zero(3).m)
        assert not np.shares_memory(row, zone.m)

    def test_from_zones_copies_the_zones(self):
        zones = [DBM.zero(3), DBM.zero(3)]
        stack = DBMStack.from_zones(zones)
        stack.up()
        assert zones[0] == DBM.zero(3) and zones[1] == DBM.zero(3)
        assert not any(np.shares_memory(stack.a, zone.m) for zone in zones)

    @numpy_only
    def test_forked_child_starts_with_empty_kernel_scratch(self):
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only guard
            return
        from repro.core import dbm

        DBM.universal(3).close()
        DBMStack.from_zones([DBM.zero(3)]).close()
        assert kernels._SCRATCH_CACHE and kernels._STACK_SCRATCH
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: the at-fork hook must have dropped the caches
            os.close(read_fd)
            clean = not (
                kernels._SCRATCH_CACHE or kernels._STACK_SCRATCH or dbm._EXTRA_CACHE
            )
            os.write(write_fd, b"ok" if clean else b"no")
            os.close(write_fd)
            os._exit(0)
        os.close(write_fd)
        try:
            assert os.read(read_fd, 2) == b"ok"
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        # the parent's caches are untouched by the child's reset
        assert kernels._SCRATCH_CACHE and kernels._STACK_SCRATCH


class TestStackScratch:
    """The stacked kernels' scratch buffers: cached per (capacity class,
    dimension), for one dimension at a time and up to ``_MAX_STACK_ROWS``."""

    def setup_method(self):
        reset_process_caches()

    def test_block_capacity_rounds_to_powers_of_two(self):
        assert _block_capacity(1) == 4
        assert _block_capacity(4) == 4
        assert _block_capacity(5) == 8
        assert _block_capacity(64) == 64
        assert _block_capacity(65) == 128

    @numpy_only
    def test_capacity_classes_of_one_dimension_coexist(self):
        DBMStack.from_zones([DBM.zero(3)] * 2).close()
        DBMStack.from_zones([DBM.zero(3)] * 20).close()
        assert set(kernels._STACK_SCRATCH) == {(4, 3), (32, 3)}

    def test_wide_stack_scratch_is_not_pinned(self):
        zones = []
        for layer in range(_MAX_STACK_ROWS + 1):
            zone = DBM.universal(3)  # unclosed: x1 <= layer, x2 - x1 <= 1
            zone.set(1, 0, bound(layer))
            zone.set(2, 1, bound(1))
            zones.append(zone)
        stack = DBMStack.from_zones(zones).close()
        assert all(capacity <= _MAX_STACK_ROWS for capacity, _dim in kernels._STACK_SCRATCH)
        # the unpinned buffers still served a correct closure
        for layer, zone in enumerate(zones):
            expected = zone.m.tolist()
            _close_python(expected, 3)
            assert stack.a[layer].reshape(-1).tolist() == expected

    @numpy_only
    def test_new_dimension_evicts_other_scratch(self):
        DBMStack.from_zones([DBM.zero(3)]).close()
        DBMStack.from_zones([DBM.zero(5)]).close()
        assert set(kernels._STACK_SCRATCH) == {(4, 5)}


# ---------------------------------------------------------------------------
# Property-based tests: random constraint sets
# ---------------------------------------------------------------------------

constraint_strategy = st.tuples(
    st.integers(0, 3),                 # i
    st.integers(0, 3),                 # j
    st.integers(-20, 20),              # value
    st.booleans(),                     # strict
)


def _build_zone(constraints) -> DBM:
    zone = DBM.universal(4)
    for i, j, value, strict in constraints:
        if i == j:
            continue
        if not zone.constrain(i, j, bound(value, strict)):
            break
    return zone


class TestZoneProperties:
    @given(st.lists(constraint_strategy, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_close_is_idempotent(self, constraints):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        once = zone.copy().close()
        twice = once.copy().close()
        assert once == twice

    @given(st.lists(constraint_strategy, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_incremental_constrain_matches_full_close(self, constraints):
        """constrain()'s incremental closure equals a full Floyd-Warshall."""
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reclosed = zone.copy().close()
        assert zone == reclosed

    @given(st.lists(constraint_strategy, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_up_gives_superset(self, constraints):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        delayed = zone.copy().up()
        assert zone.is_subset_of(delayed)

    @given(st.lists(constraint_strategy, max_size=6), st.integers(0, 3), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_reset_point_membership(self, constraints, clock, value):
        """After reset(clock, v) every member point has clock == v."""
        if clock == 0:
            return
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        zone.reset(clock, value)
        assert not zone.is_empty()
        raw_upper = zone.upper_bound(clock)
        raw_lower = zone.lower_bound(clock)
        assert raw_upper == bound(value)
        assert raw_lower == bound(-value)

    @given(st.lists(constraint_strategy, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_extrapolation_gives_superset(self, constraints):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        extrapolated = zone.copy().extrapolate_max_bounds([0, 5, 5, 5])
        assert zone.is_subset_of(extrapolated)
