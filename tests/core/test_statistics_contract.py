"""One statistics contract across every breadth-first engine mode.

The layered core (:mod:`repro.core.shard`) is the only breadth-first
engine; it runs in-process or forked into key partitions.  Both must be
*observationally identical* to the scalar loop
(:meth:`Explorer._explore_scalar`), the equality oracle: every verdict,
trace and comparable :class:`ExplorationStatistics` field (wall time
excluded; the shard topology counters are ``compare=False``) -- for every
reductions config and every kind of run, including budget cut-offs,
deadline stops and deferred plan errors.

The main contract and the other networks' counts run on both zone-kernel
backends (fixture ``kernel_backend``).  The scalar oracle fires through the
same ``kernels.fire`` programs as the layered core, so it checks the store
discipline, the round order and the statistics, not firing itself: the
independent check on firing is the textbook explorer of
``tests/core/reference_explorer.py`` (``test_reference_explorer.py``), which
shares no code with the engine and runs on both backends too.
"""

import dataclasses
import functools
import itertools
import os

import pytest

from repro.core import (
    AG,
    EF,
    ClockProp,
    DataProp,
    Explorer,
    Network,
    Not,
    SearchOptions,
    Sup,
    TimedAutomaton,
)
from repro.core import kernels, shard as shard_mod
from repro.core.shard import ShardedExplorer
from repro.util.errors import ModelError


def _interleaved_network(workers=3, period=7, limit=4):
    """Several independent tickers: a frontier rich in shared discrete keys."""
    net = Network("interleaved")
    net.add_variable("n", 0, 0, workers * limit + 1)
    for index in range(workers):
        ta = TimedAutomaton(f"W{index}")
        ta.add_clock("x")
        ta.add_constant("P", period + index)
        ta.add_location("run", invariant="x <= P", initial=True)
        ta.add_edge("run", "run", guard=f"x == P && n < {workers * limit}",
                    updates="n++", resets="x")
        net.add_instance(ta, f"w{index}")
    return net.compile()


def _samekey_network(workers=6, period=7, limit=4):
    """Tickers with *equal* periods: the root expansion already produces a
    run of ``workers`` same-key states, so the first layer is wide."""
    net = Network("samekey")
    net.add_variable("n", 0, 0, workers * limit + 1)
    for index in range(workers):
        ta = TimedAutomaton(f"W{index}")
        ta.add_clock("x")
        ta.add_constant("P", period)
        ta.add_location("run", invariant="x <= P", initial=True)
        ta.add_edge("run", "run", guard=f"x == P && n < {workers * limit}",
                    updates="n++", resets="x")
        net.add_instance(ta, f"w{index}")
    return net.compile()


def _branching_network(depth=6):
    """A branching automaton whose zones repeatedly cover one another."""
    net = Network("branching")
    net.add_variable("steps", 0, 0, depth + 1)
    ta = TimedAutomaton("B")
    ta.add_clock("x")
    ta.add_clock("y")
    ta.add_constant("D", depth)
    ta.add_location("a", invariant="x <= D", initial=True)
    ta.add_location("b", invariant="y <= D")
    ta.add_edge("a", "b", guard=f"steps < {depth}", updates="steps++", resets="y")
    ta.add_edge("a", "b", guard=f"x >= 1 && steps < {depth}", updates="steps++")
    ta.add_edge("b", "a", resets="x")
    net.add_instance(ta, "B")
    return net.compile()


def _erroneous_network():
    """A range violation behind a live guard, fired from shared keys."""
    net = Network("erroneous")
    net.add_variable("n", 0, 0, 6)
    for index, period in enumerate((2, 3)):  # interleaving => wide layers
        ticker = TimedAutomaton(f"Tick{index}")
        ticker.add_clock("y")
        ticker.add_constant("Q", period)
        ticker.add_location("run", invariant="y <= Q", initial=True)
        ticker.add_edge("run", "run", guard="y == Q && n < 6", updates="n++", resets="y")
        net.add_instance(ticker, f"t{index}")
    bad = TimedAutomaton("Bad")
    bad.add_clock("x")
    bad.add_location("a", initial=True, invariant="x <= 9")
    bad.add_edge("a", "a", guard="x == 9", updates="n = 9")  # range violation
    net.add_instance(bad, "B")
    return net.compile()


def _tie_network():
    """Two keys of one round reach the same supremum of ``T.y``; the key
    stored first reaches it later in tag order."""
    ta = TimedAutomaton("T")
    ta.add_clock("x")
    ta.add_clock("y")  # never reset: the elapsed time
    for name, bound in (("s", 1), ("a", 1), ("b", 2), ("c", 2), ("d", 2)):
        ta.add_location(name, invariant=f"x <= {bound}", initial=name == "s")
    for source, targets in (("s", "ab"), ("a", "cd"), ("b", "cd")):
        for target in targets:
            ta.add_edge(source, target, resets="x")
    net = Network("ties")
    net.add_instance(ta, "T")
    return net.compile()


class ScalarOracle(Explorer):
    """Every exploration on the scalar loop: the equality oracle."""

    def explore(self, visit=None, spec=None):
        return self._explore_scalar(visit, spec)


def _forked(network, semantics=None, search=None):
    return ShardedExplorer(
        network, semantics, dataclasses.replace(search, shard_workers=2)
    )


ENGINES = {"in-process": Explorer, "forked-2": _forked}
REDUCTIONS = ("none", "lu_extrapolation", "symmetry", "all")

forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _stats(stats, ignore=("elapsed_seconds",)):
    """Every comparable ExplorationStatistics field (wall time excluded)."""
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.compare and f.name not in ignore
    }


def _trace(trace):
    """A trace, bit for bit: labels, discrete states and zones."""
    if trace is None:
        return None
    return [
        (str(step.label), step.state.discrete_key(), step.state.zone.key())
        for step in trace.steps
    ]


def _count(make):
    return [_stats(make(record_traces=False).count_states())]


def _sup(make):
    out = []
    for record_traces in (True, False):  # LU and symmetry act untraced only
        result = make(record_traces=record_traces).sup(Sup("w0.x"))
        out.append((result.value, result.attained, result.is_lower_bound,
                    _trace(result.trace), _stats(result.statistics)))
    return out


def _sup_of(query, network=None):
    """Like ``_sup``, for another supremum query or network."""
    def run(make):
        out = []
        for record_traces in (True, False):
            built = network() if network is not None else None
            result = make(network=built, record_traces=record_traces).sup(query)
            out.append((result.value, result.attained, result.is_lower_bound,
                        _trace(result.trace), _stats(result.statistics)))
        return out

    return run


def _check(query):
    def run(make):
        out = []
        for record_traces in (True, False):
            result = make(record_traces=record_traces).check(query)
            out.append((result.holds, _trace(result.trace), _stats(result.statistics)))
        return out

    return run


def _state_budget(make):
    out = []
    for budget in (0, 1, 5, 17):
        stats = make(record_traces=False, max_states=budget).count_states()
        assert stats.states_explored <= budget
        out.append(_stats(stats))
    result = make(max_states=17).sup(Sup("w0.x"))
    out.append((result.value, result.is_lower_bound, _trace(result.trace),
                _stats(result.statistics)))
    return out


def _plan_error(make):
    with pytest.raises(ModelError) as raised:
        make(network=_erroneous_network()).count_states()
    return [str(raised.value)]


def _clock(text):
    """A clock atom over the tickers' clocks."""
    return ClockProp.parse(text, ("w0.x", "w1.x"))


RUNS = {
    "count": _count,
    "sup": _sup,
    "ef-goal": _check(EF(DataProp.parse("n == 5"))),
    "ag-violation": _check(AG(DataProp.parse("n <= 4"))),
    "state-budget": _state_budget,
    "plan-error": _plan_error,
    # clock-constrained specs: the zone half of the query evaluation
    "ef-clock-goal": _check(EF(DataProp.parse("n == 3") & _clock("w0.x > 5"))),
    "ag-clock-violation": _check(
        AG(Not(DataProp.parse("n == 4")) | _clock("w1.x < 3"))
    ),
    "sup-clock-condition": _sup_of(
        Sup("w0.x", condition=DataProp.parse("n >= 2") & _clock("w1.x < 3"))
    ),
    # the first state in tag order keeps a supremum tied across keys
    "sup-tie-across-keys": _sup_of(Sup("T.y", ceiling=10), _tie_network),
}


def _observe(engine, reductions, run):
    def make(network=None, **search):
        return engine(
            network or _samekey_network(),
            search=SearchOptions(reductions=reductions, **search),
        )

    return RUNS[run](make)


def _oracle(reductions, run):
    """The scalar loop's observation on the zone-kernel backend bound now."""
    return _oracle_on(kernels.BACKEND, reductions, run)


@functools.lru_cache(maxsize=None)
def _oracle_on(backend, reductions, run):
    return _observe(ScalarOracle, reductions, run)


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("reductions", REDUCTIONS)
@pytest.mark.parametrize("engine", [
    "in-process", pytest.param("forked-2", marks=forks),
])
def test_engine_matches_the_scalar_oracle(engine, reductions, run, kernel_backend):
    assert _observe(ENGINES[engine], reductions, run) == _oracle(reductions, run)


def test_the_runs_exercise_what_they_claim():
    """Goals, violations, cut-offs and LU subsumption actually happen."""
    (traced, untraced) = _oracle("all", "sup")
    assert traced[0] is not None and traced[3] is not None
    assert untraced[4]["states_subsumed_lu"] > 0
    ef = _oracle("none", "ef-goal")[0]
    assert ef[0] is True and ef[2]["termination"] == "goal"
    ag = _oracle("none", "ag-violation")[0]
    assert ag[0] is False and len(ag[1]) > 1
    budgets = _oracle("none", "state-budget")
    assert [stats["termination"] for stats in budgets[:4]] == ["state-budget"] * 4


def test_the_clock_runs_exercise_what_they_claim():
    """The clock-constrained specs decide on a zone, after a real search."""
    ef = _oracle("none", "ef-clock-goal")[0]
    assert ef[0] is True and ef[2]["termination"] == "goal"
    assert ef[2]["states_explored"] == 13
    ag = _oracle("none", "ag-clock-violation")[0]
    assert ag[0] is False and ag[2]["states_explored"] == 27
    sup = _oracle("none", "sup-clock-condition")[0]
    assert sup[:3] == (7, True, False) and sup[3] is not None
    tie = _oracle("none", "sup-tie-across-keys")[0]
    assert tie[:3] == (5, True, False)
    assert [step[1][0] for step in tie[3]] == [(0,), (2,), (3,)]  # s, b, c


@pytest.mark.parametrize("network", [_interleaved_network, _branching_network])
@pytest.mark.parametrize("engine", [
    "in-process", pytest.param("forked-2", marks=forks),
])
def test_other_networks_count_identically(engine, network, kernel_backend):
    layered = ENGINES[engine](network(), search=SearchOptions()).count_states()
    scalar = ScalarOracle(network()).count_states()
    assert _stats(layered) == _stats(scalar)


# ------------------------------------------------------------ replicated showcase


@functools.lru_cache(maxsize=None)
def _replicated(engine, reductions, method="sup"):
    from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
    from repro.casestudy import REPLICATED_REQUIREMENT, build_replicated_load
    from repro.core import wcrt

    settings = TimedAutomataSettings(
        method=method, reductions=reductions,
        shard_workers=2 if engine == "forked-2" else 0,
    )
    original = wcrt.select_explorer
    if engine == "scalar":
        wcrt.select_explorer = ScalarOracle
    try:
        result = analyze_wcrt(build_replicated_load(2), REPLICATED_REQUIREMENT, settings)
    finally:
        wcrt.select_explorer = original
    return result.wcrt_ticks, _stats(result.detail.statistics)


@pytest.mark.parametrize("reductions", REDUCTIONS)
@pytest.mark.parametrize("engine", [
    "in-process", pytest.param("forked-2", marks=forks),
])
def test_replicated_showcase_matches_the_scalar_oracle(engine, reductions):
    observed = _replicated(engine, reductions)
    assert observed == _replicated("scalar", reductions)
    folded = observed[1]["keys_folded"]
    assert folded == (1881 if reductions in ("symmetry", "all") else 0)


@pytest.mark.parametrize("reductions", REDUCTIONS)
@pytest.mark.parametrize("engine", [
    "in-process", pytest.param("forked-2", marks=forks),
])
def test_replicated_binary_search_matches_the_scalar_oracle(engine, reductions):
    """Property 1's binary search: one explorer serves every probe, in
    every engine, and the merged statistics match probe for probe."""
    observed = _replicated(engine, reductions, "binary-search")
    assert observed == _replicated("scalar", reductions, "binary-search")
    assert observed[0] == _replicated("scalar", reductions)[0]
    folded = observed[1]["keys_folded"]
    assert folded == (5658 if reductions in ("symmetry", "all") else 0)


# ------------------------------------------------------------ deadlines


@pytest.fixture
def fake_clock(monkeypatch):
    """perf_counter advances one second per reading: a deadline of 3.0 has
    expired by the third check of the round loop."""
    import time as time_module

    ticks = itertools.count(1)
    monkeypatch.setattr(time_module, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(shard_mod, "_DEADLINE_ROUND", 2)


@pytest.mark.parametrize("engine", [
    "in-process", pytest.param("forked-2", marks=forks),
])
def test_deadline_overshoot_is_at_most_one_capped_round(engine, fake_clock):
    stats = ENGINES[engine](
        _samekey_network(workers=6), search=SearchOptions(deadline=3.0)
    ).count_states()
    assert stats.termination == "time-budget"
    # the root round, then one round capped at 2 of the 6-state layer
    assert stats.states_explored == 1 + shard_mod._DEADLINE_ROUND


@pytest.mark.parametrize("engine", [
    "in-process", pytest.param("forked-2", marks=forks),
])
def test_deadline_stop_matches_the_oracle_field_by_field(engine, fake_clock):
    stopped = ENGINES[engine](
        _samekey_network(workers=6), search=SearchOptions(deadline=3.0)
    ).count_states()
    scalar = ScalarOracle(
        _samekey_network(workers=6),
        search=SearchOptions(max_states=stopped.states_explored),
    ).count_states()
    assert scalar.termination == "state-budget"
    ignore = ("elapsed_seconds", "termination")
    assert _stats(stopped, ignore) == _stats(scalar, ignore)
