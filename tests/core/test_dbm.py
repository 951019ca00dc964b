"""Tests of the DBM (zone) library."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_dbm_vectorised import extrapolate_max_bounds, fire_layers, ref_extrapolate_max_bounds

from repro.core import kernels
from repro.core.dbm import (
    DBM,
    INFINITY_RAW,
    _close_python,
    _extrapolation_grids,
    add_raw,
    bound,
    bound_as_tuple,
    bound_is_strict,
    bound_value,
    negate_weak,
    reset_process_caches,
)
from repro.core.kernels import _MAX_STACK_ROWS, _block_capacity
from repro.util.errors import ModelError

pytestmark = pytest.mark.usefixtures("kernel_backend")

#: for the tests that watch the numpy kernels' scratch caches
numpy_only = pytest.mark.parametrize("kernel_backend", ["numpy"], indirect=True)


def _populate_scratch(dim: int, count: int = 1) -> None:
    """Run a numpy stack kernel on *count* zones of *dim* clocks."""
    rows = kernels.constraint_rows([(1, 0, bound(5))])
    kernels.constrain_stack(np.stack([DBM.universal(dim).m2] * count), rows)


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
        assert DBM(3) == DBM.universal(3)

    def test_empty_after_contradictory_constraints(self):
        zone = DBM.universal(2)
        assert zone.constrain(1, 0, bound(5))     # x <= 5
        assert not zone.constrain(0, 1, bound(-6))  # x >= 6
        assert zone.is_empty()

    def test_constraints_pretty_printing(self):
        zone = DBM.universal(2)
        zone.constrain(1, 0, bound(10))
        text = zone.constraints(["t0", "x"])
        assert "x <= 10" in text

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ModelError):
            DBM.universal(2).is_subset_of(DBM.universal(3))

    def test_key_is_stable(self):
        a = DBM.universal(3)
        b = DBM.universal(3)
        assert a.key() == b.key()
        b.constrain(1, 0, bound(5))
        assert a.key() != b.key()


class TestRelations:
    def test_subset_reflexive(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(5))
        assert zone.is_subset_of(zone)

    def test_zero_subset_of_universal(self):
        assert DBM.zero(3).is_subset_of(DBM.universal(3))
        assert not DBM.universal(3).is_subset_of(DBM.zero(3))


class TestExtrapolation:
    """The extrapolation kernel on one zone (``zone.m2[None]``)."""

    def test_extrapolation_removes_large_upper_bounds(self):
        zone = DBM.universal(2)
        zone.constrain(1, 0, bound(1000))
        extrapolate_max_bounds(zone.m2[None], [0, 10])
        # the upper bound 1000 > 10 is abstracted away
        assert zone.upper_bound(1) >= INFINITY_RAW

    def test_extrapolation_keeps_small_bounds(self):
        zone = DBM.universal(2)
        zone.constrain(1, 0, bound(7))
        extrapolate_max_bounds(zone.m2[None], [0, 10])
        assert zone.upper_bound(1) == bound(7)

    def test_extrapolation_relaxes_large_lower_bounds(self):
        zone = DBM.universal(2)
        zone.constrain(0, 1, bound(-1000))  # x >= 1000
        extrapolate_max_bounds(zone.m2[None], [0, 10])
        value, strict = bound_as_tuple(zone.lower_bound(1))
        assert value == -10 and strict

    def test_extrapolated_zone_is_superset(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(500))
        zone.constrain(0, 2, bound(-700))
        original = zone.copy()
        extrapolate_max_bounds(zone.m2[None], [0, 10, 10])
        assert original.is_subset_of(zone)

    def test_lu_extrapolation_is_superset(self):
        zone = DBM.universal(3)
        zone.constrain(1, 0, bound(500))
        zone.constrain(0, 2, bound(-700))
        original = zone.copy()
        grids = _extrapolation_grids((0, 10, 10), (0, 20, 20))
        kernels.extrapolate_stack(zone.m2[None], *grids)
        assert original.is_subset_of(zone)


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

        _populate_scratch(3)
        _extrapolation_grids((0, 1, 1), (0, 1, 1))
        assert kernels._STACK_SCRATCH and dbm._EXTRA_CACHE
        reset_process_caches()
        assert not kernels._STACK_SCRATCH
        assert not dbm._EXTRA_CACHE
        # kernels repopulate on demand and stay correct
        zone = DBM.universal(3)
        assert zone.constrain(1, 0, bound(4)) and zone.upper_bound(1) == bound(4)

    def test_raw_constructor_copies_its_input(self):
        # federations hand out zones built from their stored rows: a zone
        # must never write through to the row it was built from
        row = DBM.universal(3).m.copy()
        zone = DBM(3, raw=row)
        zone.constrain(1, 0, bound(5))
        assert np.array_equal(row, DBM.universal(3).m)
        assert not np.shares_memory(row, zone.m)

    @numpy_only
    def test_forked_child_starts_with_empty_kernel_scratch(self):
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only guard
            return
        from repro.core import dbm

        _populate_scratch(3)
        assert kernels._STACK_SCRATCH
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: the at-fork hook must have dropped the caches
            os.close(read_fd)
            clean = not (kernels._STACK_SCRATCH or dbm._EXTRA_CACHE)
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
        assert kernels._STACK_SCRATCH


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
        _populate_scratch(3, 2)
        _populate_scratch(3, 20)
        assert set(kernels._STACK_SCRATCH) == {(4, 3), (32, 3)}

    def test_wide_stack_scratch_is_not_pinned(self):
        zones = np.stack([DBM.universal(3).m2] * (_MAX_STACK_ROWS + 1))
        for layer in range(len(zones)):
            # unclosed: x1 <= layer, x2 - x1 <= 1, and x2 <= 100 above the
            # maximal constant, so the extrapolation re-closes every layer
            zones[layer, 1, 0] = bound(layer)
            zones[layer, 2, 1] = bound(1)
            zones[layer, 2, 0] = bound(100)
        expected = []
        for layer in zones:
            m = layer.reshape(-1).tolist()
            assert ref_extrapolate_max_bounds(m, 3, [0, 80, 80])
            expected.append(m)
        extrapolate_max_bounds(zones, [0, 80, 80])
        assert all(capacity <= _MAX_STACK_ROWS for capacity, _dim in kernels._STACK_SCRATCH)
        # the unpinned buffers still served a correct closure
        assert [layer.reshape(-1).tolist() for layer in zones] == expected

    @numpy_only
    def test_new_dimension_evicts_other_scratch(self):
        _populate_scratch(3)
        _populate_scratch(5)
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
    def test_extrapolation_is_idempotent(self, constraints):
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        once = extrapolate_max_bounds(zone.m2[None].copy(), [0, 5, 5, 5])
        twice = extrapolate_max_bounds(once.copy(), [0, 5, 5, 5])
        assert np.array_equal(once, twice)

    @given(st.lists(constraint_strategy, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_incremental_constrain_matches_full_close(self, constraints):
        """constrain()'s incremental closure equals a full Floyd-Warshall."""
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reclosed = zone.m.tolist()
        _close_python(reclosed, zone.dim)
        assert zone.m.tolist() == reclosed

    @given(st.lists(constraint_strategy, max_size=6), st.integers(0, 3), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_reset_point_membership(self, constraints, clock, value):
        """After reset(clock, v) every member point has clock == v."""
        if clock == 0:
            return
        zone = _build_zone(constraints)
        if zone.is_empty():
            return
        reset, live = fire_layers(zone.m2[None], kernels.plan_record((), [(clock, value)]))
        assert live == 1
        zone = DBM._wrap(zone.dim, reset.reshape(-1))
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
        extrapolated = zone.copy()
        extrapolate_max_bounds(extrapolated.m2[None], [0, 5, 5, 5])
        assert zone.is_subset_of(extrapolated)
