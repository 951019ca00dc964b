"""Property tests: batched stack kernels vs their single-zone counterparts.

Every :class:`~repro.core.dbm.DBMStack` kernel must be element-wise
identical to applying the scalar :class:`~repro.core.dbm.DBM` operation to
each layer -- the batched frontier engine's state counts and passed-list
keys depend on exact raw bounds.  The one sanctioned divergence mirrors the
scalar backends: a layer whose zone becomes *empty* is only guaranteed to
be flagged empty (its remaining entries are unspecified), so the properties
compare matrices where the scalar result is non-empty and the empty flag
everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbm import (
    DBM,
    DBMStack,
    _close_python,
    _extrapolation_grids,
    bound,
)
from repro.core.federation import Federation
from repro.core.kernels import _SQUARING_MAX_COUNT, _SQUARING_MAX_DIM
from repro.util.errors import ModelError

pytestmark = pytest.mark.usefixtures("kernel_backend")

DIM = 4

constraint_strategy = st.tuples(
    st.integers(0, DIM - 1),
    st.integers(0, DIM - 1),
    st.integers(-12, 12),
    st.booleans(),
)

#: a stack of zones: one constraint list per layer
stack_strategy = st.lists(
    st.lists(constraint_strategy, max_size=8), min_size=1, max_size=6
)

bounds_strategy = st.lists(st.integers(0, 12), min_size=DIM, max_size=DIM).map(
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


def _build_stack(constraint_lists) -> tuple[list[DBM], DBMStack]:
    zones = [_build_zone(constraints) for constraints in constraint_lists]
    return zones, DBMStack.from_zones(zones)


def _assert_layerwise_equal(zones: list[DBM], stack: DBMStack) -> None:
    """Non-empty layers match bitwise; empty layers agree on the flag."""
    empties = stack.empties()
    for layer, zone in enumerate(zones):
        if zone.is_empty():
            assert empties[layer], f"layer {layer}: scalar empty, stack not"
        else:
            assert not empties[layer], f"layer {layer}: stack empty, scalar not"
            assert np.array_equal(stack.a[layer], zone.m2), f"layer {layer} diverged"


class TestStackKernelRoundTrips:
    @given(stack_strategy)
    @settings(max_examples=100, deadline=None)
    def test_from_zones_and_keys(self, constraint_lists):
        zones, stack = _build_stack(constraint_lists)
        _assert_layerwise_equal(zones, stack)
        keys = stack.keys()
        for layer, zone in enumerate(zones):
            assert keys[layer] == zone.key()

    @given(stack_strategy)
    @settings(max_examples=100, deadline=None)
    def test_up(self, constraint_lists):
        zones, stack = _build_stack(constraint_lists)
        for zone in zones:
            zone.up()
        stack.up()
        _assert_layerwise_equal(zones, stack)

    @given(
        stack_strategy,
        st.integers(0, DIM - 1),
        st.integers(0, DIM - 1),
        st.integers(-10, 10),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_constrain(self, constraint_lists, i, j, value, strict):
        if i == j:
            return
        zones, stack = _build_stack(constraint_lists)
        raw = bound(value, strict)
        for zone in zones:
            if not zone.is_empty():
                zone.constrain(i, j, raw)
        stack.constrain(i, j, raw)
        _assert_layerwise_equal(zones, stack)

    @given(
        stack_strategy,
        st.lists(
            st.tuples(st.integers(1, DIM - 1), st.integers(0, 20)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_impose_upper_bounds_after_up(self, constraint_lists, bounds_pairs):
        zones, stack = _build_stack(constraint_lists)
        pairs = [(clock, bound(value)) for clock, value in bounds_pairs]
        clocks = np.array([c for c, _ in pairs], dtype=np.intp)
        raws = np.array([r for _, r in pairs], dtype=np.int64)
        for zone in zones:
            if not zone.is_empty():
                zone.up()
                zone.impose_upper_bounds(clocks, raws, pairs)
        stack.up()
        stack.impose_upper_bounds(clocks, raws)
        _assert_layerwise_equal(zones, stack)

    @given(stack_strategy, st.integers(1, DIM - 1), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_reset(self, constraint_lists, clock, value):
        zones, stack = _build_stack(constraint_lists)
        for zone in zones:
            if not zone.is_empty():
                zone.reset(clock, value)
        stack.reset(clock, value)
        _assert_layerwise_equal(zones, stack)

    @given(stack_strategy)
    @settings(max_examples=100, deadline=None)
    def test_close_after_up(self, constraint_lists):
        # loosen (up) then re-close: exercises the squaring fixpoint on
        # non-canonical but satisfiable input, like the extrapolation path
        zones, stack = _build_stack(constraint_lists)
        for zone in zones:
            if not zone.is_empty():
                zone.up().close()
        stack.up()
        stack.close()
        _assert_layerwise_equal(zones, stack)

    @given(stack_strategy, bounds_strategy)
    @settings(max_examples=150, deadline=None)
    def test_extrapolate(self, constraint_lists, max_bounds):
        zones, stack = _build_stack(constraint_lists)
        upper_grid, lower_grid = _extrapolation_grids(
            tuple(max_bounds), tuple(max_bounds)
        )
        for zone in zones:
            if not zone.is_empty():
                zone._extrapolate_raw(upper_grid, lower_grid)
        stack.extrapolate(upper_grid, lower_grid)
        _assert_layerwise_equal(zones, stack)

    @given(
        stack_strategy,
        st.integers(0, DIM - 1),
        st.integers(0, DIM - 1),
        st.integers(-10, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_guard_feasible_matches_scalar_precheck(self, constraint_lists, i, j, value):
        if i == j:
            return
        from repro.core.dbm import INFINITY_RAW, LE_ZERO

        zones, stack = _build_stack(constraint_lists)
        raw = bound(value)
        feasible = stack.guard_feasible(i, j, raw)
        for layer, zone in enumerate(zones):
            opposite = zone.get(j, i)
            expected = not (
                opposite < INFINITY_RAW
                and raw + opposite - ((raw | opposite) & 1) < LE_ZERO
            )
            assert feasible[layer] == expected

    @given(stack_strategy)
    @settings(max_examples=50, deadline=None)
    def test_copy_and_compress_are_independent(self, constraint_lists):
        zones, stack = _build_stack(constraint_lists)
        duplicate = stack.copy()
        sub = stack.compress(np.arange(stack.count))
        stack.up()
        for layer, zone in enumerate(zones):
            assert np.array_equal(duplicate.a[layer], zone.m2)
            assert np.array_equal(sub.a[layer], zone.m2)


class TestStackClose:
    """``DBMStack.close`` squares small stacks of up to ``_SQUARING_MAX_DIM``
    clocks and sweeps per k otherwise; both must reproduce the scalar
    reference loop on every layer."""

    @pytest.mark.parametrize(
        "dim, count",
        [
            (4, 3),  # squaring
            (_SQUARING_MAX_DIM, _SQUARING_MAX_COUNT - 1),  # squaring at its limits
            (4, _SQUARING_MAX_COUNT),  # per-k sweep: too many layers
            (_SQUARING_MAX_DIM + 1, 2),  # per-k sweep: too many clocks
        ],
    )
    def test_matches_python_reference(self, dim, count):
        zones = []
        for layer in range(count):
            # chains of different lengths converge in different rounds, so
            # the squaring kernel's shrinking working set is exercised too
            zone = DBM.universal(dim)
            zone.set(1, 0, bound(5 + layer))
            for i in range(1, 1 + (layer * 3) % (dim - 1)):
                if i + 1 < dim:
                    zone.set(i + 1, i, bound(2, strict=i % 2 == 0))
            zones.append(zone)
        stack = DBMStack.from_zones(zones).close()
        for layer, zone in enumerate(zones):
            expected = zone.m.tolist()
            _close_python(expected, dim)
            assert stack.a[layer].reshape(-1).tolist() == expected, layer

    def test_seventy_clock_stack_matches_python_reference(self):
        """Wider than any fixed-size buffer a kernel could keep."""
        dim = 70
        zones = []
        for layer in range(3):
            # unclosed chains x1 <= 5 + layer, x_{i+1} - x_i <= 2 (some strict)
            zone = DBM.universal(dim)
            zone.set(1, 0, bound(5 + layer))
            for i in range(1, dim - 1, 1 + layer):
                zone.set(i + 1, i, bound(2, strict=i % 3 == 0))
                zone.set(0, i, bound(-(i % 5), strict=i % 2 == 0))
            zones.append(zone)
        empty = DBM.universal(dim)  # a negative cycle through two clocks
        empty.set(1, dim - 1, bound(-3))
        empty.set(dim - 1, 1, bound(2))
        stack = DBMStack.from_zones(zones + [empty]).close()
        for layer, zone in enumerate(zones):
            expected = zone.m.tolist()
            _close_python(expected, dim)
            assert stack.a[layer].reshape(-1).tolist() == expected, layer
        assert stack.empties().tolist() == [False, False, False, True]


class TestStackBasics:
    def test_layer_dbm_lifts_independent_copy(self):
        zones = [DBM.zero(DIM), DBM.universal(DIM)]
        stack = DBMStack.from_zones(zones)
        lifted = stack.layer_dbm(0)
        assert lifted == zones[0]
        lifted.up()  # mutating the lifted zone must not touch the stack
        assert np.array_equal(stack.a[0], zones[0].m2)

    def test_wrap_adopts_the_array_without_copying(self):
        zones = [DBM.zero(DIM), DBM.zero(DIM)]
        cube = DBMStack.from_zones(zones).a.copy()
        stack = DBMStack.wrap(cube)
        assert (stack.count, stack.dim) == (2, DIM)
        stack.up()  # the kernels write through to the adopted array
        assert np.array_equal(cube[1], zones[1].copy().up().m2)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ModelError):
            DBMStack.from_zones([DBM.zero(3), DBM.zero(4)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ModelError):
            DBMStack.from_zones([])
        with pytest.raises(ModelError):
            DBMStack(0, DIM)

    def test_covers_many_matches_scalar_covers(self):
        federation = Federation(DIM)
        member = DBM.zero(DIM).up()
        member.constrain(1, 0, bound(10))
        federation.add(member)
        candidates = [DBM.zero(DIM), DBM.universal(DIM)]
        stack = DBMStack.from_zones(candidates)
        verdicts = federation.covers_many(stack.a)
        for layer, candidate in enumerate(candidates):
            assert verdicts[layer] == federation.covers(candidate)
