"""Sharded exploration vs the scalar engine: exact equivalence.

:class:`repro.core.shard.ShardedExplorer` partitions the passed/waiting
stores across forked workers by discrete key, hands successors across
shard boundaries -- and must still be
*observationally identical* to the scalar engine: every verdict, trace,
witness and :class:`ExplorationStatistics` counter (minus the shard-only
counters and wall time) has to match bit for bit.  These tests pin that
contract on small networks, including the corners where the machinery is
most likely to drift: tight budgets, traces across shard boundaries,
symmetry/LU composition, skewed partitioning, deferred model errors and
worker crashes.
"""

import dataclasses

import numpy as np
import pytest
from test_statistics_contract import (
    _branching_network,
    _interleaved_network,
    _samekey_network,
)

from repro.core import (
    AG,
    EF,
    DataProp,
    Explorer,
    Network,
    SearchOptions,
    Sup,
    TimedAutomaton,
)
from repro.core import shard as shard_mod
from repro.core.shard import ShardedExplorer, select_explorer
from repro.util.errors import AnalysisError, ModelError

pytestmark = pytest.mark.skipif(
    not hasattr(shard_mod.os, "fork"), reason="sharded engine requires os.fork"
)


def _stats(stats, ignore=("elapsed_seconds",)):
    """Every comparable ExplorationStatistics field (wall time excluded)."""
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.compare and f.name not in ignore
    }


def _keys(trace):
    return [step.state.discrete_key() for step in trace.steps] if trace else None


# ---------------------------------------------------------------- counting


@pytest.mark.parametrize("factory", [_interleaved_network, _samekey_network,
                                     _branching_network])
@pytest.mark.parametrize("workers", [2, 3])
def test_count_states_matches_scalar(factory, workers):
    compiled = factory()
    sharded = ShardedExplorer(
        compiled, search=SearchOptions(shard_workers=workers)
    ).count_states()
    scalar = Explorer(factory()).count_states()
    assert _stats(sharded) == _stats(scalar)
    assert sharded.shard_workers == workers
    assert sharded.shard_handoffs > 0


@pytest.mark.parametrize("budget", [0, 1, 5, 17, 100])
def test_state_budget_matches_scalar(budget):
    sharded = ShardedExplorer(
        _interleaved_network(),
        search=SearchOptions(shard_workers=2, max_states=budget),
    ).count_states()
    scalar = Explorer(
        _interleaved_network(), search=SearchOptions(max_states=budget)
    ).count_states()
    assert _stats(sharded) == _stats(scalar)


# ---------------------------------------------------------------- queries


def test_sup_query_matches_scalar():
    query = Sup("w0.x")
    sharded = ShardedExplorer(
        _interleaved_network(), search=SearchOptions(shard_workers=2)
    ).sup(query)
    scalar = Explorer(_interleaved_network()).sup(query)
    assert (sharded.value, sharded.attained, sharded.is_lower_bound) == (
        scalar.value, scalar.attained, scalar.is_lower_bound)
    assert _stats(sharded.statistics) == _stats(scalar.statistics)
    assert _keys(sharded.trace) == _keys(scalar.trace)


def test_ef_goal_and_trace_match_scalar():
    query = EF(DataProp.parse("n == 5"))
    sharded = ShardedExplorer(
        _interleaved_network(), search=SearchOptions(shard_workers=2)
    ).check(query)
    scalar = Explorer(_interleaved_network()).check(query)
    assert sharded.holds == scalar.holds
    assert _stats(sharded.statistics) == _stats(scalar.statistics)
    assert _keys(sharded.trace) == _keys(scalar.trace)


def test_ef_without_traces_matches_scalar():
    query = EF(DataProp.parse("n == 5"))
    sharded = ShardedExplorer(
        _interleaved_network(),
        search=SearchOptions(shard_workers=2, record_traces=False),
    ).check(query)
    scalar = Explorer(
        _interleaved_network(), search=SearchOptions(record_traces=False)
    ).check(query)
    assert (sharded.holds, sharded.trace) == (scalar.holds, None)
    assert _stats(sharded.statistics) == _stats(scalar.statistics)


@pytest.mark.parametrize("bound, holds", [(6, True), (3, False)])
def test_ag_verdicts_match_scalar(bound, holds):
    query = AG(DataProp.parse(f"steps <= {bound}"))
    sharded = ShardedExplorer(
        _branching_network(), search=SearchOptions(shard_workers=2)
    ).check(query)
    scalar = Explorer(_branching_network()).check(query)
    assert sharded.holds == scalar.holds == holds
    assert _stats(sharded.statistics) == _stats(scalar.statistics)
    assert _keys(sharded.trace) == _keys(scalar.trace)


# ---------------------------------------------------------------- reductions


def test_symmetry_and_lu_composition():
    from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
    from repro.casestudy import REPLICATED_REQUIREMENT, build_replicated_load

    reductions = "lu_extrapolation,symmetry"
    scalar = analyze_wcrt(build_replicated_load(), REPLICATED_REQUIREMENT,
                          TimedAutomataSettings(reductions=reductions))
    sharded = analyze_wcrt(
        build_replicated_load(), REPLICATED_REQUIREMENT,
        TimedAutomataSettings(reductions=reductions, shard_workers=2))
    assert sharded.wcrt_ticks == scalar.wcrt_ticks
    assert _stats(sharded.detail.statistics) == _stats(scalar.detail.statistics)
    assert sharded.detail.statistics.keys_folded > 0
    assert sharded.detail.statistics.states_subsumed_lu > 0
    assert sharded.detail.statistics.shard_workers == 2


# ---------------------------------------------------------------- hand-off


def test_handoff_packs_one_array_per_destination():
    rng = np.random.default_rng(7)

    def group(key, rows):
        parent_seqs = np.arange(rows, dtype=np.int64)
        return (key, 0, False, parent_seqs,
                rng.integers(-50, 50, size=(rows, 9), dtype=np.int64))

    outgoing = {1: [group(b"a", 2), group(b"b", 3)], 2: [group(b"c", 1)]}

    class FakePartition:
        rank = 0

        def expand(self, upto, assigned):
            return outgoing, None, 6

    worker = shard_mod._ShardWorker(FakePartition(), -1, -1, attempt=1)
    parcels, error, handoffs = worker._expand(1, ())
    assert (error, handoffs) == (None, 6)
    assert set(parcels) == {1, 2}
    rows, refs = parcels[1]
    assert rows.shape == (5, 9) and rows.flags.c_contiguous
    assert [ref[4] for ref in refs] == [0, 2]  # each group's offset
    for dest, groups in outgoing.items():
        unpacked = shard_mod._ShardWorker._unpack([parcels[dest]])
        assert len(unpacked) == len(groups)
        for got, sent in zip(unpacked, groups):
            assert got[:3] == sent[:3]
            assert np.array_equal(got[3], sent[3])
            assert np.array_equal(got[4], sent[4])


# ---------------------------------------------------------------- skew


def test_fully_skewed_partitioning_matches_scalar(monkeypatch):
    # every key hashes to worker 0: worker 1 owns nothing and idles, and
    # no candidate ever crosses a partition boundary
    monkeypatch.setattr(shard_mod, "_owner_of", lambda key_bytes, workers: 0)
    sharded = ShardedExplorer(
        _samekey_network(), search=SearchOptions(shard_workers=2)
    ).count_states()
    scalar = Explorer(_samekey_network()).count_states()
    assert _stats(sharded) == _stats(scalar)
    assert sharded.shard_workers == 2
    assert sharded.shard_handoffs == 0


# ---------------------------------------------------------------- faults


def test_worker_crash_restarts_and_matches_scalar():
    from repro.sweep.faults import FaultPlan, FaultSpec, install_plan

    install_plan(FaultPlan((FaultSpec(cell="shard/0", action="crash",
                                      attempts=(1,), stage="shard"),)))
    try:
        explorer = ShardedExplorer(_interleaved_network(),
                                   search=SearchOptions(shard_workers=2))
        sharded = explorer.count_states()
    finally:
        install_plan(None)
    scalar = Explorer(_interleaved_network()).count_states()
    assert _stats(sharded) == _stats(scalar)
    assert explorer.restarts == 1


def test_poisoned_worker_raises_analysis_error():
    from repro.sweep.faults import FaultPlan, FaultSpec, install_plan

    install_plan(FaultPlan((FaultSpec(cell="shard/1", action="crash",
                                      stage="shard"),)))
    try:
        explorer = ShardedExplorer(_interleaved_network(),
                                   search=SearchOptions(shard_workers=2))
        with pytest.raises(AnalysisError, match="crashed twice"):
            explorer.count_states()
    finally:
        install_plan(None)


# ---------------------------------------------------------------- errors


def test_deferred_model_error_matches_scalar():
    def build():
        net = Network("erroneous")
        net.add_variable("n", 0, 0, 6)
        for index, period in enumerate((2, 3)):
            ticker = TimedAutomaton(f"Tick{index}")
            ticker.add_clock("y")
            ticker.add_constant("Q", period)
            ticker.add_location("run", invariant="y <= Q", initial=True)
            ticker.add_edge("run", "run", guard="y == Q && n < 6",
                            updates="n++", resets="y")
            net.add_instance(ticker, f"t{index}")
        bad = TimedAutomaton("Bad")
        bad.add_clock("x")
        bad.add_location("a", initial=True, invariant="x <= 9")
        bad.add_edge("a", "a", guard="x == 9", updates="n = 9")
        net.add_instance(bad, "B")
        return net.compile()

    with pytest.raises(ModelError) as scalar_exc:
        Explorer(build()).count_states()
    with pytest.raises(ModelError) as shard_exc:
        ShardedExplorer(
            build(), search=SearchOptions(shard_workers=2)
        ).count_states()
    assert str(shard_exc.value) == str(scalar_exc.value)


# ---------------------------------------------------------------- dispatch


def test_select_explorer_dispatch():
    compiled = _interleaved_network()
    assert isinstance(
        select_explorer(compiled, search=SearchOptions(shard_workers=2)),
        ShardedExplorer,
    )
    assert isinstance(
        select_explorer(compiled, search=SearchOptions(shard_workers=0)),
        Explorer,
    )


def test_shard_counters_dropped_from_scalar_dict():
    stats = Explorer(_interleaved_network()).count_states()
    assert stats.shard_workers == 0
    assert "shard_workers" not in stats.as_dict()


# ---------------------------------------------------------------- screens


def _covered_by_earlier_reference(rows):
    """Row j is included in some earlier row i < j (the naive pair loop)."""
    return [any((rows[j] <= rows[i]).all() for i in range(j)) for j in range(len(rows))]


@pytest.mark.usefixtures("kernel_backend")
class TestWithinRoundScreen:
    """The decide step screens a key's candidates, raw and extrapolated, with
    ``kernels.covered_by_earlier``: a candidate included in an earlier one of
    the same round is discarded.  Both backends must agree with the naive
    pair loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        # small values over few entries: plenty of inclusions and ties
        rows = rng.integers(0, 3, size=(int(rng.integers(2, 60)), 6)).astype(np.int64)
        assert shard_mod.kernels.covered_by_earlier(rows).tolist() == (
            _covered_by_earlier_reference(rows)
        )

    def test_equal_rows_keep_the_first(self):
        rows = np.array([[1, 2], [1, 2], [0, 5], [1, 2]], dtype=np.int64)
        assert shard_mod.kernels.covered_by_earlier(rows).tolist() == [
            False, True, False, True,
        ]

    def test_short_screens_doom_nothing(self):
        for rows in (np.zeros((0, 4), dtype=np.int64), np.zeros((1, 4), dtype=np.int64)):
            assert not shard_mod.kernels.covered_by_earlier(rows).any()


def test_chunked_numpy_screen_matches(monkeypatch):
    """The numpy screen chunks wide keys along the candidate axis."""
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 3, size=(50, 6)).astype(np.int64)
    monkeypatch.setattr(shard_mod.kernels, "_COMPARE_BUDGET", 64)
    assert shard_mod.kernels._covered_by_earlier_numpy(rows).tolist() == (
        _covered_by_earlier_reference(rows)
    )
