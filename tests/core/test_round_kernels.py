"""Property tests: the two round kernels vs pure-Python reference loops.

``kernels.fire`` runs every plan of one discrete key against a block of
zones, and ``kernels.decide`` runs one round of the layered core's store
discipline.  The references below spell both out one zone and one plan at
a time on flat Python lists, with the seed's scalar zone operations (the
references of ``test_dbm_vectorised``), and both backends must match them
bit for bit: every live successor row with its source layer and plan, every
stored candidate with its extrapolated row, and both eviction masks of the
federation flush.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_dbm_vectorised import (
    DIM,
    _build_layers,
    _build_zone,
    constraint_strategy,
    ref_constrain,
    ref_extrapolate_max_bounds,
    ref_reset,
    ref_up,
)
from test_statistics_contract import _erroneous_network, _interleaved_network

from repro.core import kernels
from repro.core.dbm import _extrapolation_grids, bound
from repro.core.successors import SuccessorGenerator
from repro.util.errors import ModelError

pytestmark = pytest.mark.usefixtures("kernel_backend")


# ---------------------------------------------------------------------------
# fire
# ---------------------------------------------------------------------------

def _triples(draw_list):
    return [(i, j, bound(value, strict)) for i, j, value, strict in draw_list if i != j]


@st.composite
def plan_strategy(draw):
    """A plan: guards, resets, the target's invariants -- upper bounds,
    lower bounds and differences -- whether time passes there, and whether
    it carries a deferred error."""
    guards = _triples(draw(st.lists(constraint_strategy, max_size=3)))
    resets = draw(st.lists(st.tuples(st.integers(1, DIM - 1), st.integers(0, 9)), max_size=2))
    invariants = _triples(draw(st.lists(constraint_strategy, max_size=3)))
    invariants += [(clock, 0, bound(value)) for clock, value in draw(st.lists(
        st.tuples(st.integers(1, DIM - 1), st.integers(0, 25)), max_size=2))]
    return guards, resets, invariants, draw(st.booleans()), draw(st.integers(0, 5)) == 0


def _record(plan) -> list[int]:
    guards, resets, invariants, delay, error = plan
    return kernels.plan_record(guards, resets, invariants, delay=delay, error=error)


def reference_fire(zones: np.ndarray, plans) -> tuple[list, list, list]:
    """Plan by plan, layer by layer: the kept rows, their layers, and the
    number each plan kept."""
    rows, nodes, counts = [], [], []
    for guards, resets, invariants, delay, error in plans:
        kept = 0
        for layer, zone in enumerate(zones):
            m = zone.reshape(-1).tolist()
            if m[0] < 1 or not all(ref_constrain(m, DIM, i, j, raw) for i, j, raw in guards):
                continue
            if not error:
                for clock, value in resets:
                    ref_reset(m, DIM, clock, value)
                if not all(ref_constrain(m, DIM, i, j, raw) for i, j, raw in invariants):
                    continue
                if delay:
                    ref_up(m, DIM)
                    if not all(ref_constrain(m, DIM, i, j, raw) for i, j, raw in invariants):
                        continue
            rows.append(m)
            nodes.append(layer)
            kept += 1
        counts.append(kept)
    return rows, nodes, counts


def run_fire(zones: np.ndarray, program: np.ndarray):
    """``kernels.fire`` into fresh storage: rows, layers and counts."""
    plans = int(program[0])
    out = np.empty((len(zones) * plans, DIM, DIM), dtype=np.int64)
    nodes = np.empty(len(zones) * plans, dtype=np.int64)
    counts = np.empty(plans, dtype=np.int64)
    source = zones.copy()
    written = kernels.fire(source, program, out, nodes, counts)
    assert np.array_equal(source, zones)  # the source is only read
    rows = out[:written].reshape(written, DIM * DIM)
    return rows.tolist(), nodes[:written].tolist(), counts.tolist()


def _random_layers(rng, count) -> np.ndarray:
    """*count* zones from random constraints (some of them empty)."""
    return _build_layers([
        [(int(rng.integers(DIM)), int(rng.integers(DIM)), int(rng.integers(-20, 21)),
          bool(rng.integers(2))) for _ in range(int(rng.integers(0, 8)))]
        for _ in range(count)
    ])


class TestFire:
    @given(st.lists(st.lists(constraint_strategy, max_size=8), min_size=1, max_size=6),
           st.lists(plan_strategy(), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_loop(self, constraint_lists, plans):
        zones = _build_layers(constraint_lists)
        program = kernels.firing_program([_record(plan) for plan in plans])
        assert run_fire(zones, program) == reference_fire(zones, plans)

    @pytest.mark.parametrize("count", [1, 64])
    def test_one_layer_and_64_layer_blocks(self, count):
        rng = np.random.default_rng(count)
        zones = _random_layers(rng, count)
        plans = [
            ([(1, 0, bound(8))], [(1, 0)], [(1, 0, bound(6)), (2, 3, bound(2))], True, False),
            ([], [(2, 3)], [(2, 0, bound(9))], False, False),  # guard-free, urgent target
            ([(0, 2, bound(-3))], [], [], True, True),  # deferred error
            ([(1, 2, bound(-1, True))], [(3, 1)], [(3, 2, bound(1))], True, False),
        ]
        program = kernels.firing_program([_record(plan) for plan in plans])
        fired = run_fire(zones, program)
        assert fired == reference_fire(zones, plans)
        assert sum(fired[2]) > count  # the block really fired

    def test_deferred_error_reports_the_layers_whose_guards_pass(self):
        zones = np.stack([_build_zone([(1, 0, limit, False)]).m2 for limit in (1, 5, 9)])
        plan = ([(0, 1, bound(-4))], [(1, 0)], [(1, 0, bound(0))], True, True)
        rows, nodes, counts = run_fire(zones, kernels.firing_program([_record(plan)]))
        assert nodes == [1, 2] and counts == [2]  # x1 >= 4 needs x1 <= 5 or 9
        assert (rows, nodes, counts) == reference_fire(zones, [plan])

    def test_urgent_target_does_not_delay(self):
        zone = np.full((1, DIM, DIM), 1, dtype=np.int64)  # every clock 0
        urgent = ([], [], [(1, 0, bound(5))], False, False)
        delayed = ([], [], [(1, 0, bound(5))], True, False)
        program = kernels.firing_program([_record(urgent), _record(delayed)])
        rows, _nodes, counts = run_fire(zone, program)
        assert counts == [1, 1]
        assert rows[0][DIM] == bound(0)  # x1 <= 0: time frozen
        assert rows[1][DIM] == bound(5)  # x1 <= 5: up, then the invariant

    def test_empty_source_layers_fire_nothing(self):
        zones = _build_layers([[(1, 0, 3, False), (0, 1, -5, False)], []])
        assert zones[0, 0, 0] < 1 and zones[1, 0, 0] >= 1
        program = kernels.firing_program([_record(([], [], [], True, False))])
        _rows, nodes, counts = run_fire(zones, program)
        assert nodes == [1] and counts == [1]

    def test_writes_only_live_rows(self):
        zones = _build_layers([[(1, 0, 2, False)], [(1, 0, 9, False)], [(1, 0, 3, False)]])
        plan = ([(0, 1, bound(-5))], [], [], True, False)  # only the x1 <= 9 layer passes
        program = kernels.firing_program([_record(plan)])
        out = np.full((3, DIM, DIM), 7, dtype=np.int64)
        nodes = np.full(3, 7, dtype=np.int64)
        written = kernels.fire(zones, program, out, nodes, np.empty(1, dtype=np.int64))
        assert written == 1 and nodes[0] == 1
        assert (out[2] == 7).all() and (nodes[1:] == 7).all()  # rows after the live one untouched


class TestSubsetPrograms:
    """A ``plan_indices`` subset program fires exactly its plans, in order."""

    @staticmethod
    def _generator_and_state():
        """Three independent tickers: the initial state has three plans."""
        generator = SuccessorGenerator(_interleaved_network())
        return generator, generator.initial_state()

    @pytest.mark.parametrize("indices", [[0], [2, 0], [1], [0, 2, 0], []])
    def test_subset_fires_like_the_full_program(self, indices):
        generator, state = self._generator_and_state()
        info = generator.plan_info(state.locations, state.variables)
        assert len(info.plans) == 3
        fired = [index for index in range(len(info.plans))
                 if generator.successors(state, plan_indices=[index])]
        full = [child.zone.key() for _label, child in generator.successors(state)]
        by_plan = dict(zip(fired, full))
        subset = generator.successors(state, plan_indices=indices)
        assert [child.zone.key() for _label, child in subset] == [
            by_plan[index] for index in indices if index in by_plan
        ]

    def test_subset_program_is_the_records_of_its_plans(self):
        records = [kernels.plan_record([(1, 0, bound(i))], [(2, i)], [(1, 2, bound(i))], True)
                   for i in range(3)]
        program = kernels.firing_program(records)
        assert kernels.subset_program(program, range(3)) == program
        assert kernels.subset_program(program, [2, 0, 2]) == kernels.firing_program(
            [records[2], records[0], records[2]])
        assert kernels.subset_program(program, []) == kernels.firing_program([])
        assert kernels.program_plans(program) == 3

    def test_deferred_error_raises_when_its_guards_pass(self):
        generator = SuccessorGenerator(_erroneous_network())
        state = generator.initial_state()
        info = generator.plan_info(state.locations, state.variables)
        failing = [i for i, plan in enumerate(info.plans) if plan.error is not None]
        assert failing
        # the tickers keep every clock <= 3 at first: the guard x == 9 fails
        assert generator.successors(state, plan_indices=failing) == []
        frontier = [state]
        while frontier:
            state = frontier.pop(0)
            try:
                frontier.extend(child for _label, child in generator.successors(state))
            except ModelError:
                break
        else:
            pytest.fail("the range violation never fired")
        info = generator.plan_info(state.locations, state.variables)
        failing = [i for i, plan in enumerate(info.plans) if plan.error is not None]
        with pytest.raises(ModelError):
            generator.successors(state, plan_indices=failing)
        others = [i for i in range(len(info.plans)) if i not in failing]
        generator.successors(state, plan_indices=others)  # the other plans still fire


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _included(small, big) -> bool:
    return all(s <= b for s, b in zip(small, big))


def _screen(rows, alive) -> list[bool]:
    """The within-round screen: a row included in some EARLIER row that is
    still alive before the screen (the naive pair loop)."""
    return [
        alive[r] and not any(alive[s] and _included(rows[r], rows[s]) for s in range(r))
        for r in range(len(rows))
    ]


def reference_decide(rows: list, runs: list, members: list, max_bounds):
    """One round, key by key, on Python lists: the stored flags, the rows
    after extrapolation, and the two eviction masks."""
    rows = [list(row) for row in rows]
    stored, doomed_rows, doomed_members = [False] * len(rows), [False] * len(rows), []
    for (start, stop), federation in zip(runs, members):
        run = rows[start:stop]
        alive = [not any(_included(row, member) for member in federation) for row in run]
        alive = _screen(run, alive)
        if max_bounds is not None:
            for row, live in zip(run, alive):
                if live:
                    ref_extrapolate_max_bounds(row, DIM, max_bounds)
            alive = _screen(run, alive)
        doomed_members += [
            any(live and _included(member, row) for row, live in zip(run, alive))
            for member in federation
        ]
        for offset, (row, live) in enumerate(zip(run, alive)):
            stored[start + offset] = live
            doomed_rows[start + offset] = live and any(
                alive[later] and _included(row, run[later])
                for later in range(offset + 1, len(run))
            )
    return stored, rows, doomed_rows, doomed_members


def run_decide(rows: list, runs: list, members: list, max_bounds):
    """``kernels.decide`` on arrays built from the lists; the rows it writes
    are compared for stored candidates only."""
    width = DIM * DIM
    array = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    bounds = np.array(runs, dtype=np.int64).reshape(len(runs), 2)
    federations = [np.array(f, dtype=np.int64).reshape(len(f), width) for f in members]
    before = [f.copy() for f in federations]
    grids = None
    if max_bounds is not None:
        grids = _extrapolation_grids(tuple(max_bounds), tuple(max_bounds))
    stored, doomed_rows, doomed_members = kernels.decide(array, bounds, federations, grids)
    assert all(np.array_equal(a, b) for a, b in zip(federations, before))  # read only
    return stored.tolist(), array.tolist(), doomed_rows.tolist(), doomed_members.tolist()


def _compare(rows, runs, members, max_bounds):
    stored, out, doomed_rows, doomed_members = run_decide(rows, runs, members, max_bounds)
    expected = reference_decide(rows, runs, members, max_bounds)
    assert stored == expected[0]
    assert [row for row, keep in zip(out, stored) if keep] == [
        row for row, keep in zip(expected[1], stored) if keep
    ]
    assert (doomed_rows, doomed_members) == expected[2:]
    return stored, doomed_rows, doomed_members


@st.composite
def round_strategy(draw):
    """A round over a small pool of zones: runs of candidates and their
    federations drawn from the pool, so equal rows, inclusions and covered
    candidates are common."""
    pool = [z for z in (
        _build_zone(constraints) for constraints in draw(st.lists(
            st.lists(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1),
                               st.integers(-6, 12), st.booleans()), max_size=4),
            min_size=1, max_size=6))
    ) if not z.is_empty()]
    if not pool:
        pool = [_build_zone([])]
    pick = st.sampled_from([z.m.tolist() for z in pool])
    rows, runs, members = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        run = draw(st.lists(pick, min_size=1, max_size=6))
        runs.append((len(rows), len(rows) + len(run)))
        rows.extend(run)
        members.append(draw(st.lists(pick, max_size=3)))
    max_bounds = draw(st.one_of(st.none(), st.lists(st.integers(0, 8), min_size=DIM,
                                                    max_size=DIM).map(lambda b: [0] + b[1:])))
    return rows, runs, members, max_bounds


class TestDecide:
    @given(round_strategy())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_loop(self, round_):
        _compare(*round_)

    def test_empty_federations_store_the_unscreened(self):
        rows = [_build_zone([(1, 0, 3, False)]).m.tolist(), _build_zone([]).m.tolist()]
        stored, doomed_rows, doomed_members = _compare(rows, [(0, 2)], [[]], None)
        assert stored == [True, True] and doomed_rows == [True, False] and doomed_members == []

    def test_a_key_whose_candidates_are_all_covered(self):
        small, big = _build_zone([(1, 0, 3, False)]).m.tolist(), _build_zone([]).m.tolist()
        rows = [small, small, big]
        # the first key is covered by its member; the second stores its one row
        stored, _doomed, doomed_members = _compare(
            rows, [(0, 2), (2, 3)], [[big], [small]], [0, 9, 9, 9])
        assert stored == [False, False, True]
        assert doomed_members == [False, True]  # the second key's member is evicted

    def test_equal_rows_in_the_raw_screen(self):
        zone = _build_zone([(1, 0, 4, False), (2, 1, 1, True)]).m.tolist()
        stored, *_ = _compare([zone, zone, zone], [(0, 3)], [[]], [0, 9, 9, 9])
        assert stored == [True, False, False]

    def test_rows_equal_only_after_extrapolation(self):
        # x1 <= 12 and x1 <= 15 differ raw but both exceed the bound 9:
        # extrapolated they are equal, and the later one is screened out
        rows = [_build_zone([(1, 0, 12, False)]).m.tolist(),
                _build_zone([(1, 0, 15, False)]).m.tolist()]
        stored, *_ = _compare(rows, [(0, 2)], [[]], None)
        assert stored == [True, True]  # no extrapolation: both stay
        stored, *_ = _compare(rows, [(0, 2)], [[]], [0, 9, 9, 9])
        assert stored == [True, False]

    def test_no_extrapolation_leaves_rows_alone(self):
        rows = [_build_zone([(1, 0, 12, False)]).m.tolist()]
        _stored, out, *_ = run_decide(rows, [(0, 1)], [[]], None)
        assert out == rows
