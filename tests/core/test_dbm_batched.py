"""Zone-array kernels at the edges of their sizes, and the firing routine's
ownership of its input.

The closure runs inside the extrapolation kernel, on every layer the
extrapolation changed: Floyd-Warshall compiled; min-plus squaring on small
numpy stacks of up to ``_SQUARING_MAX_DIM`` clocks and the per-k sweep
otherwise.  Every case below gives each layer an upper bound above its
clock's maximal constant, so the extrapolation changes -- and re-closes --
every layer, and the result must match the pure-Python reference.
"""

import numpy as np
import pytest
from test_dbm_vectorised import extrapolate_max_bounds, ref_extrapolate_max_bounds

from repro.core.automaton import TimedAutomaton
from repro.core.dbm import DBM, LE_ZERO, bound
from repro.core.federation import Federation
from repro.core.kernels import _SQUARING_MAX_COUNT, _SQUARING_MAX_DIM
from repro.core.network import Network
from repro.core.successors import SuccessorGenerator
from repro.core.symmetry import permute_zones
from repro.util.errors import ModelError

pytestmark = pytest.mark.usefixtures("kernel_backend")

DIM = 4

#: the maximal constant of every clock in the closure cases; each layer's
#: last clock carries an upper bound ``BIG`` above it, which the
#: extrapolation raises to infinity
MAX_CONSTANT = 1000
BIG = bound(10 * MAX_CONSTANT)


def _chain(dim: int, first: int, stride: int) -> np.ndarray:
    """An unclosed chain ``x1 <= first``, ``x_{i+1} - x_i <= 2`` (some
    strict) every *stride* clocks, and ``x_{dim-1} <= BIG`` (dim > 2)."""
    zone = DBM.universal(dim).m2
    zone[1, 0] = bound(first)
    for i in range(1, dim - 1, stride):
        zone[i + 1, i] = bound(2, strict=i % 3 == 0)
        zone[0, i] = bound(-(i % 5), strict=i % 2 == 0)
    zone[dim - 1, 0] = BIG
    return zone


def _bounds(dim: int) -> list[int]:
    return [0] + [MAX_CONSTANT] * (dim - 1)


def _expected(zones: np.ndarray) -> list:
    """The Python reference of every layer's extrapolation and re-closure."""
    dim = zones.shape[1]
    out = []
    for layer in zones:
        m = layer.reshape(-1).tolist()
        assert ref_extrapolate_max_bounds(m, dim, _bounds(dim))
        out.append(m)
    return out


def _extrapolate(zones: np.ndarray) -> np.ndarray:
    return extrapolate_max_bounds(zones, _bounds(zones.shape[1]))


class TestExtrapolationClosure:
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
        # chains of different lengths converge in different rounds, so the
        # squaring kernel's shrinking working set is exercised too
        zones = np.stack([
            _chain(dim, 5 + layer, 1 + (layer * 3) % (dim - 1)) for layer in range(count)
        ])
        expected = _expected(zones)
        _extrapolate(zones)
        for layer, m in enumerate(expected):
            assert zones[layer].reshape(-1).tolist() == m, layer

    def test_seventy_clock_stack_matches_python_reference(self):
        """Wider than any fixed-size buffer a kernel could keep."""
        dim = 70
        zones = [_chain(dim, 5 + layer, 1 + layer) for layer in range(3)]
        empty = DBM.universal(dim).m2  # a negative cycle through two clocks
        empty[1, dim - 1] = bound(-3)
        empty[dim - 1, 1] = bound(2)
        empty[dim - 1, 0] = BIG
        zones = np.stack(zones + [empty])
        expected = _expected(zones[:3])
        _extrapolate(zones)
        for layer, m in enumerate(expected):
            assert zones[layer].reshape(-1).tolist() == m, layer
        assert (zones[:, 0, 0] < LE_ZERO).tolist() == [False, False, False, True]

    def test_a_negative_cycle_is_flagged_empty(self):
        zone = DBM.universal(4).m2
        zone[1, 2] = bound(-2)
        zone[2, 1] = bound(1)
        zone[3, 0] = BIG
        assert _extrapolate(zone[None])[0, 0, 0] < LE_ZERO


class TestZoneArrays:
    def test_covers_many_matches_scalar_covers(self):
        federation = Federation(DIM)
        member = DBM.universal(DIM)
        member.constrain(1, 0, bound(10))
        federation.add(member)
        candidates = [DBM.zero(DIM), DBM.universal(DIM)]
        verdicts = federation.covers_many(np.stack([zone.m2 for zone in candidates]))
        for layer, candidate in enumerate(candidates):
            assert verdicts[layer] == federation.covers(candidate)

    def test_firing_leaves_the_source_zones_untouched(self):
        ta = TimedAutomaton("T")
        ta.add_clock("x")
        ta.add_location("a", invariant="x <= 10", initial=True)
        ta.add_location("b", invariant="x <= 3")
        ta.add_edge("a", "b", guard="x >= 4", resets="x")
        ta.add_edge("a", "a", guard="x <= 2")
        net = Network("test")
        net.add_instance(ta, "A")
        generator = SuccessorGenerator(net.compile())
        state = generator.initial_state()
        before = state.zone.copy()
        _info, fires = generator.block_successors([state, state])
        assert [fire.plan_index for fire in fires] == [0, 1]
        assert all(not np.shares_memory(fire.zones, state.zone.m) for fire in fires)
        for _label, successor in generator.successors(state):
            assert not np.shares_memory(successor.zone.m, state.zone.m)
        assert state.zone == before

    def test_permute_zones_relabels_every_layer(self):
        zones = np.stack([_chain(DIM, 5 + layer, 1) for layer in range(3)])
        before = zones.copy()
        perm = (0, 2, 3, 1)
        permute_zones(zones, perm)
        for layer in range(3):
            for i in range(DIM):
                for j in range(DIM):
                    assert zones[layer, i, j] == before[layer, perm[i], perm[j]]
        with pytest.raises(ModelError):
            permute_zones(zones, (1, 0, 2, 3))  # moves the reference clock
        with pytest.raises(ModelError):
            permute_zones(zones, (0, 2, 1))  # misses a clock
