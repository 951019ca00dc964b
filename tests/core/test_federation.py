"""Tests of the amortised federation stack (growth, eviction, bulk adds,
block-aware coverage)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbm import DBM, LT_ZERO, bound
from repro.core.federation import Federation
from repro.util.errors import ModelError

pytestmark = pytest.mark.usefixtures("kernel_backend")


def _box(dim: int, uppers: list[int]) -> DBM:
    """A box zone with the given per-clock upper bounds."""
    zone = DBM.universal(dim)
    for clock, upper in enumerate(uppers, start=1):
        assert zone.constrain(clock, 0, bound(upper))
    return zone


def _incomparable(n: int) -> list[DBM]:
    """n pairwise-incomparable zones: {x <= i, y <= n - i}."""
    return [_box(3, [i, n - i]) for i in range(1, n + 1)]


class TestAmortisedGrowth:
    def test_insert_n_zones_costs_linear_stack_copies(self):
        """Growing the stack must be amortised O(N) row copies, not O(N^2).

        With doubling, inserting N pairwise-incomparable zones copies each
        stored row only at the capacity doublings: 1 + 2 + 4 + ... < 2N rows
        in total.  The seed implementation re-stacked every row on every insert
        (N^2 / 2 copies); this counter-based bound would catch that reliably.
        """
        n = 64
        federation = Federation(3)
        zones = _incomparable(n)
        for zone in zones:
            assert federation.add(zone)
        assert len(federation) == n
        assert federation.stack_copies <= 2 * n  # doubling: 1+2+4+8+16+32 = 63
        assert federation.zones == tuple(zones)

    def test_eviction_copies_are_counted(self):
        federation = Federation(2)
        for upper in range(1, 11):
            federation.add(_box(2, [upper]))
        # every add covered the previous zone: exactly one member remains
        assert len(federation) == 1
        assert federation.zones == (_box(2, [10]),)

    def test_add_many_matches_sequential_add(self):
        zones = _incomparable(6) + [_box(3, [2, 2])] + _incomparable(3)
        sequential = Federation(3)
        grown = sum(1 for z in zones if sequential.add(z.copy()))
        bulk = Federation(3)
        assert bulk.add_many(z.copy() for z in zones) == grown
        assert [z.key() for z in bulk] == [z.key() for z in sequential]
        assert len(bulk) == len(sequential)

    def test_add_many_on_construction(self):
        federation = Federation(3, _incomparable(4))
        assert len(federation) == 4
        assert federation.zones == tuple(_incomparable(4))

    def test_add_many_dimension_mismatch(self):
        with pytest.raises(ModelError):
            Federation(2).add_many([DBM.universal(3)])

    def test_add_uncovered_skips_covered_check_but_still_evicts(self):
        federation = Federation(2)
        federation.add(_box(2, [3]))
        big = _box(2, [10])
        federation.add_uncovered(big)
        assert len(federation) == 1  # the smaller zone was evicted
        assert federation.covers(_box(2, [3]))
        assert federation.zones == (big,)

    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_property_members_cover_every_add_without_redundancy(self, boxes):
        """After any add sequence every added zone is covered and no
        member covers another."""
        federation = Federation(3)
        for x_upper, y_upper in boxes:
            federation.add(_box(3, [x_upper, y_upper]))
        zones = federation.zones
        assert len(zones) == len(federation)
        assert all(federation.covers(_box(3, list(box))) for box in boxes)
        # no stored zone covers another (redundancy-freedom)
        for a_index, a in enumerate(zones):
            for b_index, b in enumerate(zones):
                if a_index != b_index:
                    assert not a.is_subset_of(b)

    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_property_covers_matches_member_subset(self, boxes):
        federation = Federation(3)
        for x_upper, y_upper in boxes:
            federation.add(_box(3, [x_upper, y_upper]))
        probe = _box(3, [boxes[0][0], boxes[0][1]])
        expected = any(probe.is_subset_of(member) for member in federation)
        assert federation.covers(probe) == expected


def _stack_of(zones: list[DBM]) -> np.ndarray:
    return np.stack([zone.m for zone in zones])


class TestCoversMany:
    def test_empty_federation_covers_nothing(self):
        federation = Federation(3)
        probes = [_box(3, [1, 1]), _box(3, [5, 5])]
        verdicts = federation.covers_many(_stack_of(probes))
        assert verdicts.dtype == bool
        assert not verdicts.any()

    def test_mixed_dimensions_rejected(self):
        federation = Federation(3)
        federation.add(_box(3, [2, 2]))
        with pytest.raises(ModelError):
            federation.covers_many(_stack_of([DBM.universal(4)]))

    def test_empty_candidate_stack_gives_empty_mask(self):
        federation = Federation(3, _incomparable(3))
        verdicts = federation.covers_many(np.empty((0, 9), dtype=np.int64))
        assert verdicts.shape == (0,) and verdicts.dtype == bool

    def test_single_member_fast_path_matches_scalar(self):
        federation = Federation(3)
        federation.add(_box(3, [4, 4]))
        probes = [_box(3, [1, 1]), _box(3, [9, 1]), _box(3, [4, 4])]
        verdicts = federation.covers_many(_stack_of(probes))
        assert list(verdicts) == [federation.covers(probe) for probe in probes]

    def test_accepts_3d_layer_stacks(self):
        federation = Federation(3, _incomparable(4))
        probes = [_box(3, [1, 1]), _box(3, [12, 12])]
        flat = federation.covers_many(_stack_of(probes))
        cube = federation.covers_many(
            _stack_of(probes).reshape(len(probes), 3, 3)
        )
        assert np.array_equal(flat, cube)

    @given(
        st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), min_size=0, max_size=12),
        st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scalar_covers(self, members, probes):
        federation = Federation(3)
        for x_upper, y_upper in members:
            federation.add(_box(3, [x_upper, y_upper]))
        probe_zones = [_box(3, [x, y]) for x, y in probes]
        verdicts = federation.covers_many(_stack_of(probe_zones))
        for verdict, probe in zip(verdicts, probe_zones):
            assert verdict == federation.covers(probe)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_subsumption_is_insertion_order_independent(self, order):
        """covers_many depends on the stored *set*, not the insertion order.

        Inserting the same zones in any order (with redundancy eviction
        running in between) must produce identical coverage verdicts.
        """
        zones = _incomparable(3) + [_box(3, [2, 2]), _box(3, [1, 3])]
        reference = Federation(3)
        for zone in zones:
            reference.add(zone.copy())
        shuffled = Federation(3)
        for index in order:
            shuffled.add(zones[index].copy())
        probes = [_box(3, [x, y]) for x in range(1, 5) for y in range(1, 5)]
        assert np.array_equal(
            reference.covers_many(_stack_of(probes)),
            shuffled.covers_many(_stack_of(probes)),
        )

    @pytest.mark.parametrize("kernel_backend", ["numpy"], indirect=True)
    def test_chunked_path_matches_unchunked(self, monkeypatch):
        from repro.core import kernels

        federation = Federation(3, _incomparable(6))
        probes = [_box(3, [x, y]) for x in range(1, 7) for y in range(1, 7)]
        full = federation.covers_many(_stack_of(probes))
        monkeypatch.setattr(kernels, "_COMPARE_BUDGET", 64)
        chunked = federation.covers_many(_stack_of(probes))
        assert np.array_equal(full, chunked)

    def test_verdicts_are_monotone_under_insertion(self):
        """A True covers_many verdict can never revert to False -- the
        invariant the block replay's cached pre-verdicts rely on."""
        federation = Federation(2)
        federation.add(_box(2, [3]))
        probes = _stack_of([_box(2, [1]), _box(2, [5])])
        before = federation.covers_many(probes)
        federation.add(_box(2, [9]))  # evicts the original member
        after = federation.covers_many(probes)
        assert (after | ~before).all()  # before => after, entrywise


class TestAddManyUncovered:
    def test_matches_sequential_add_uncovered(self):
        zones = _incomparable(5)
        batch_zones = [zone.copy() for zone in zones]
        sequential = Federation(3)
        for zone in zones:
            sequential.add_uncovered(zone)
        batched = Federation(3)
        batched.add_many_uncovered(_stack_of(batch_zones))
        assert [z.key() for z in batched] == [z.key() for z in sequential]
        assert len(batched) == len(sequential) == 5

    def test_later_zone_evicts_earlier_batch_zone(self):
        # z1 ⊆ z3: sequential add_uncovered(z3) would evict z1; the batch
        # must drop it before insertion
        z1, z2, z3 = _box(3, [1, 1]), _box(3, [5, 1]), _box(3, [2, 2])
        batched = Federation(3)
        batched.add_many_uncovered(_stack_of([z1, z2, z3]))
        sequential = Federation(3)
        for zone in (_box(3, [1, 1]), _box(3, [5, 1]), _box(3, [2, 2])):
            sequential.add_uncovered(zone)
        assert [z.key() for z in batched] == [z.key() for z in sequential]
        assert batched.zones == (z2, z3)

    def test_batch_evicts_previously_stored_members(self):
        federation = Federation(3)
        federation.add(_box(3, [1, 1]))
        federation.add_many_uncovered(_stack_of([_box(3, [3, 3]), _box(3, [1, 9])]))
        zones = federation.zones
        assert not any(zone.is_subset_of(other)
                       for a, zone in enumerate(zones)
                       for b, other in enumerate(zones) if a != b)
        assert federation.covers(_box(3, [1, 1]))
        assert zones == (_box(3, [3, 3]), _box(3, [1, 9]))

    def test_empty_and_singleton_batches(self):
        federation = Federation(3)
        federation.add_many_uncovered(np.empty((0, 9), dtype=np.int64))
        assert len(federation) == 0
        federation.add_many_uncovered(_stack_of([_box(3, [2, 2])]))
        assert len(federation) == 1
        assert federation.zones == (_box(3, [2, 2]),)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            Federation(3).add_many_uncovered(_stack_of([DBM.universal(4)] * 2))

    @pytest.mark.parametrize("size", [1, 3])
    def test_callers_rows_are_copied_in(self, size):
        # the decide step passes rows of its own round array, which it
        # reuses: the federation must keep its own copy
        rows = _stack_of(_incomparable(size))
        federation = Federation(3)
        federation.add_many_uncovered(rows)
        rows[:] = DBM.zero(3).m
        assert federation.zones == tuple(_incomparable(size))


class TestMemberViews:
    """The row stack is the only copy of each member: every zone a
    federation hands out is a fresh copy built from its rows."""

    def test_zones_are_independent_copies(self):
        federation = Federation(3, _incomparable(3))
        for zone in federation.zones:
            zone.m[:] = LT_ZERO
        for zone in federation:
            zone.constrain(1, 0, bound(0))
        assert federation.zones == tuple(_incomparable(3))

    def test_iteration_yields_the_members_in_stack_order(self):
        federation = Federation(3, _incomparable(4))
        assert list(federation) == list(federation.zones) == _incomparable(4)
        assert list(Federation(3)) == []

    def test_contains_point_reads_the_members(self):
        federation = Federation(3, [_box(3, [1, 5]), _box(3, [5, 1])])
        assert federation.contains_point([0, 1, 5])
        assert federation.contains_point([0, 5, 1])
        assert not federation.contains_point([0, 5, 5])
        assert not Federation(3).contains_point([0, 0, 0])

    def test_upper_bound_is_the_largest_member_bound(self):
        federation = Federation(3, [_box(3, [2, 7]), _box(3, [6, 3])])
        assert federation.upper_bound(1) == bound(6)
        assert federation.upper_bound(2) == bound(7)
        with pytest.raises(ModelError):
            Federation(3).upper_bound(1)


class _NaiveFederation:
    """The passed-list contract spelled out on int tuples, independently of
    :class:`Federation`: one zone includes another iff its raw bounds are
    entrywise ``>=``, and an insert evicts the members it includes."""

    def __init__(self):
        self.members: list[tuple[int, ...]] = []

    @staticmethod
    def _includes(big, small) -> bool:
        return all(s <= b for s, b in zip(small, big))

    def covers(self, zone) -> bool:
        return any(self._includes(member, zone) for member in self.members)

    def add_uncovered(self, zone) -> None:
        self.members = [m for m in self.members if not self._includes(zone, m)]
        self.members.append(zone)

    def add(self, zone) -> bool:
        if self.covers(zone):
            return False
        self.add_uncovered(zone)
        return True


@st.composite
def _small_zones(draw, dim):
    """A non-empty closed zone over ``dim`` clocks: box bounds plus
    difference bounds (``None`` when the drawn constraints are empty)."""
    zone = DBM.universal(dim)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, dim - 1))
        j = draw(st.integers(0, dim - 1))
        if i == j:
            continue
        value = draw(st.integers(-6, 6) if i and j else st.integers(0, 8))
        if i == 0:
            value = -value  # a lower bound x_j >= value
        if not zone.constrain(i, j, bound(value, draw(st.booleans()))):
            return None
    return zone


class TestAgainstNaiveReference:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_operation_sequences(self, data):
        dim = data.draw(st.integers(2, 4), label="dim")
        zones = _small_zones(dim)
        federation, reference = Federation(dim), _NaiveFederation()
        seen: list[DBM] = []
        for _step in range(data.draw(st.integers(1, 12), label="steps")):
            op = data.draw(st.sampled_from(["add", "add_uncovered", "add_many_uncovered"]))
            batch = [z for z in data.draw(st.lists(zones, min_size=1, max_size=5)) if z]
            if op == "add":
                for zone in batch:
                    assert federation.add(zone) == reference.add(tuple(zone.m.tolist()))
            elif op == "add_uncovered":
                for zone in batch:
                    row = tuple(zone.m.tolist())
                    if not reference.covers(row):
                        federation.add_uncovered(zone)
                        reference.add_uncovered(row)
            else:
                # pre-screened like the decide step: each zone uncovered by
                # the members present at its turn, earlier batch zones included
                screened = []
                for zone in batch:
                    row = tuple(zone.m.tolist())
                    if not reference.covers(row):
                        reference.add_uncovered(row)
                        screened.append(zone)
                if screened:
                    federation.add_many_uncovered(_stack_of(screened))
            seen.extend(batch)
            assert len(federation) == len(reference.members)
            assert [tuple(z.m.tolist()) for z in federation.zones] == reference.members
            for probe in seen:
                assert federation.covers(probe) == reference.covers(tuple(probe.m.tolist()))
            if seen:
                expected = [reference.covers(tuple(p.m.tolist())) for p in seen]
                assert federation.covers_many(_stack_of(seen)).tolist() == expected
