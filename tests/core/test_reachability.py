"""Tests of the reachability engine, queries and WCRT extraction."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    AG,
    DBM,
    EF,
    DataProp,
    Explorer,
    LocationProp,
    Network,
    Not,
    Or,
    SearchOptions,
    Sup,
    SymbolicState,
    TimedAutomaton,
    wcrt_binary_search,
    wcrt_sup,
)
from repro.core import wcrt as wcrt_module
from repro.core.properties import BoundFormula, ClockProp, parse_atom
from repro.core.successors import SuccessorGenerator
from repro.util.errors import AnalysisError, ModelError


def _counter_network(limit=3, period=10):
    """A single automaton counting to `limit`, one tick every `period`."""
    ta = TimedAutomaton("Ticker")
    ta.add_clock("x")
    ta.add_constant("P", period)
    ta.add_location("run", invariant="x <= P", initial=True)
    ta.add_edge("run", "run", guard=f"x == P && n < {limit}", updates="n++", resets="x")
    net = Network("ticker")
    net.add_variable("n", 0, 0, limit + 1)
    net.add_instance(ta, "T")
    return net.compile()


def _request_response_network(delay=5, deadline=20):
    """A request/response pair used for WCRT checks: response after `delay`."""
    net = Network("reqresp")
    net.add_broadcast_channel("req")
    net.add_broadcast_channel("resp")
    env = TimedAutomaton("Env")
    env.add_clock("x")
    env.add_constant("P", 50)
    env.add_location("idle", invariant="x <= P", initial=True)
    env.add_location("wait", invariant="x <= P")
    env.add_edge("idle", "wait", sync="req!", resets="x")
    env.add_edge("wait", "wait", guard="x == P", sync="req!", resets="x")
    server = TimedAutomaton("Server")
    server.add_clock("c")
    server.add_constant("D", delay)
    server.add_location("free", initial=True)
    server.add_location("busy", invariant="c <= D")
    server.add_edge("free", "busy", sync="req?", resets="c")
    server.add_edge("busy", "free", guard="c == D", sync="resp!")
    obs = TimedAutomaton("Obs")
    obs.add_clock("y")
    obs.add_location("idle", initial=True)
    obs.add_location("measuring")
    obs.add_location("seen", committed=True)
    obs.add_edge("idle", "measuring", sync="req?", resets="y")
    obs.add_edge("measuring", "seen", sync="resp?")
    obs.add_edge("seen", "idle")
    net.add_instance(env, "env")
    net.add_instance(server, "srv")
    net.add_instance(obs, "obs")
    return net.compile()


class TestQueries:
    def test_ef_reachable(self):
        compiled = _counter_network()
        result = Explorer(compiled).check(EF(DataProp.parse("n == 3")))
        assert result.holds is True
        assert result.trace is not None
        assert len(result.trace) == 4  # initial + three ticks

    def test_ef_unreachable(self):
        compiled = _counter_network()
        result = Explorer(compiled).check(EF(DataProp.parse("n == 5")))
        assert result.holds is False

    def test_ag_holds(self):
        compiled = _counter_network()
        result = Explorer(compiled).check(AG(DataProp.parse("n <= 3")))
        assert result.holds is True
        assert result.trace is None

    def test_ag_violated_with_counterexample(self):
        compiled = _counter_network()
        result = Explorer(compiled).check(AG(DataProp.parse("n < 3")))
        assert result.holds is False
        assert result.trace is not None
        final = result.trace.final_state
        assert final.variables[compiled.variable_id("n")] == 3

    def test_ag_with_clock_atom(self):
        compiled = _counter_network()
        formula = Or(Not(LocationProp("T", "run")), ClockProp.parse("T.x <= 10", compiled.clock_index))
        result = Explorer(compiled).check(AG(formula))
        assert result.holds is True

    def test_location_prop(self):
        compiled = _request_response_network()
        result = Explorer(compiled).check(EF(LocationProp("obs", "seen")))
        assert result.holds is True

    def test_parse_atom(self):
        compiled = _counter_network()
        atom = parse_atom("T.run", compiled)
        assert isinstance(atom, LocationProp)
        atom2 = parse_atom("n == 2", compiled)
        assert isinstance(atom2, DataProp)
        atom3 = parse_atom("T.x <= 5", compiled)
        assert isinstance(atom3, ClockProp)

    def test_trace_formatting(self):
        compiled = _counter_network()
        result = Explorer(compiled).check(EF(DataProp.parse("n == 2")))
        text = result.trace.format(compiled)
        assert "T.run" in text


class TestSearchOptions:
    def test_dfs_and_rdfs_reach_goal(self):
        compiled = _counter_network()
        for order in ("dfs", "rdfs"):
            explorer = Explorer(compiled, search=SearchOptions(order=order, seed=7))
            result = explorer.check(EF(DataProp.parse("n == 3")))
            assert result.holds is True, order

    def test_invalid_order_rejected(self):
        with pytest.raises(ModelError):
            SearchOptions(order="zigzag")

    def test_state_budget_gives_undecided(self):
        compiled = _counter_network(limit=5)
        explorer = Explorer(compiled, search=SearchOptions(max_states=1))
        result = explorer.check(AG(DataProp.parse("n < 100")))
        assert result.holds is None
        assert result.statistics.termination == "state-budget"

    def test_state_budget_is_exact(self):
        """The budget is checked before popping: no overshoot, no dropped node."""
        compiled = _counter_network(limit=10)
        for budget in (1, 2, 3):
            stats = Explorer(compiled, search=SearchOptions(max_states=budget)).explore()
            assert stats.states_explored == budget
            assert stats.termination == "state-budget"

    def test_budget_larger_than_state_space_is_exhaustive(self):
        compiled = _counter_network(limit=3)
        stats = Explorer(compiled, search=SearchOptions(max_states=100)).explore()
        assert stats.states_explored == 4
        assert stats.termination == "exhausted"

    def test_peak_waiting_is_tracked(self):
        compiled = _counter_network(limit=3)
        stats = Explorer(compiled).explore()
        assert stats.peak_waiting >= 1

    def test_statistics_counters(self):
        compiled = _counter_network()
        stats = Explorer(compiled).count_states()
        assert stats.states_explored == 4
        assert stats.transitions == 3
        assert stats.exhaustive

    def test_reachable_discrete_states(self):
        compiled = _counter_network()
        states = Explorer(compiled).reachable_discrete_states()
        assert len(states) == 4


class TestSupAndWCRT:
    def test_sup_without_condition(self):
        compiled = _counter_network()
        result = Explorer(compiled).sup(Sup("T.x", None, ceiling=100))
        assert result.value == 10
        assert not result.is_lower_bound

    def test_sup_with_condition(self):
        compiled = _counter_network()
        result = Explorer(compiled).sup(Sup("T.x", DataProp.parse("n == 0"), ceiling=100))
        assert result.value == 10

    def test_sup_no_matching_state(self):
        compiled = _counter_network()
        result = Explorer(compiled).sup(Sup("T.x", DataProp.parse("n == 99"), ceiling=100))
        assert result.value is None

    def test_wcrt_sup_on_request_response(self):
        compiled = _request_response_network(delay=5)
        result = wcrt_sup(compiled, "obs.y", LocationProp("obs", "seen"), ceiling=100)
        assert result.value == 5
        assert result.attained
        assert not result.is_lower_bound

    def test_wcrt_binary_search_matches_sup(self):
        compiled = _request_response_network(delay=7)
        by_sup = wcrt_sup(compiled, "obs.y", LocationProp("obs", "seen"), ceiling=64)
        by_search = wcrt_binary_search(compiled, "obs.y", LocationProp("obs", "seen"), lo=0, hi=64)
        assert by_sup.value == by_search.value == 7

    @staticmethod
    def _search(record_traces):
        return wcrt_binary_search(
            _request_response_network(delay=7), "obs.y", LocationProp("obs", "seen"),
            lo=0, hi=64, search=SearchOptions(record_traces=record_traces),
        )

    @pytest.mark.parametrize("record_traces", [False, True])
    def test_wcrt_binary_search_builds_each_plan_list_once(self, monkeypatch, record_traces):
        """Every probe, the witness probe included, shares one explorer and
        hence one discrete memo: no key's plans are built twice."""
        built = []
        build_plans = SuccessorGenerator._build_plans

        def counting(generator, info, locations, variables):
            built.append((locations, variables))
            return build_plans(generator, info, locations, variables)

        monkeypatch.setattr(SuccessorGenerator, "_build_plans", counting)
        assert self._search(record_traces).value == 7
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize("record_traces", [False, True])
    def test_wcrt_binary_search_matches_an_explorer_per_probe(self, monkeypatch, record_traces):
        """The shared explorer changes nothing a fresh explorer per probe
        would report: value, flags, merged statistics and the witness."""

        def outcome(result):
            stats = result.statistics
            trace = result.trace and [
                (str(step.label), step.state.discrete_key(), step.state.zone.key())
                for step in result.trace.steps
            ]
            return (result.value, result.is_lower_bound, result.attained, trace, {
                f.name: getattr(stats, f.name)
                for f in dataclasses.fields(stats)
                if f.compare and f.name != "elapsed_seconds"
            })

        shared = outcome(self._search(record_traces))
        queries = []

        class FreshPerQuery:
            def __init__(self, network, semantics=None, search=None):
                self.args = (network, semantics, search)

            def check(self, query):
                queries.append(query)
                return Explorer(*self.args).check(query)

        monkeypatch.setattr(wcrt_module, "select_explorer", FreshPerQuery)
        assert outcome(self._search(record_traces)) == shared
        # the probe at hi, six halvings of (0, 64], and the witness probe
        assert len(queries) == (8 if record_traces else 7)
        assert (shared[3] is not None) == record_traces

    def test_wcrt_binary_search_interval_too_small(self):
        compiled = _request_response_network(delay=9)
        with pytest.raises(AnalysisError):
            wcrt_binary_search(compiled, "obs.y", LocationProp("obs", "seen"), lo=0, hi=5)

    def test_unknown_clock_in_sup(self):
        compiled = _counter_network()
        with pytest.raises(ModelError):
            Explorer(compiled).sup(Sup("T.zzz", None, ceiling=10))


class TestQueryConstantScoping:
    """Query-registered extrapolation constants must not leak between runs."""

    def test_sup_restores_extrapolation_constants(self):
        compiled = _counter_network()
        before = list(compiled.max_constants)
        version = compiled.max_constants_version
        Explorer(compiled).sup(Sup("T.x", None, ceiling=100_000))
        assert compiled.max_constants == before
        # the version moved (register + restore), so bound caches refresh
        assert compiled.max_constants_version > version

    def test_ef_with_clock_atom_restores_constants(self):
        compiled = _counter_network()
        before = list(compiled.max_constants)
        formula = ClockProp.parse("T.x <= 5000", compiled.clock_index)
        Explorer(compiled).check(EF(formula))
        assert compiled.max_constants == before

    def test_ag_with_clock_atom_restores_constants(self):
        compiled = _counter_network()
        before = list(compiled.max_constants)
        formula = Or(Not(LocationProp("T", "run")), ClockProp.parse("T.x <= 5000", compiled.clock_index))
        Explorer(compiled).check(AG(formula))
        assert compiled.max_constants == before

    def test_wcrt_binary_search_restores_constants(self):
        compiled = _request_response_network(delay=7)
        before = list(compiled.max_constants)
        wcrt_binary_search(compiled, "obs.y", LocationProp("obs", "seen"), lo=0, hi=64)
        assert compiled.max_constants == before

    def test_repeated_sup_queries_do_not_coarsen_each_other(self):
        """A huge first ceiling must not change the verdict of a second query.

        Before scoping, the first query's ceiling stayed registered and the
        second exploration ran with a needlessly fine abstraction (different
        state counts); with scoping, both queries behave as on a fresh
        explorer.
        """
        fresh = Explorer(_counter_network())
        expected = fresh.sup(Sup("T.x", None, ceiling=20))

        shared = Explorer(_counter_network())
        shared.sup(Sup("T.x", None, ceiling=1_000_000))
        second = shared.sup(Sup("T.x", None, ceiling=20))
        assert second.value == expected.value
        assert second.statistics.states_explored == expected.statistics.states_explored

    def test_explicit_registration_survives_queries(self):
        """Constants registered by the caller (not the query) are kept."""
        compiled = _counter_network()
        compiled.register_query_constant("T.x", 777)
        Explorer(compiled).sup(Sup("T.x", None, ceiling=100))
        clock = compiled.clock_id("T.x")
        assert compiled.max_constants[clock] >= 777


# ------------------------------------------------------------ formulas over zone arrays


def _two_clock_network():
    """Two clocks whose difference varies, and a counter read by the bounds."""
    ta = TimedAutomaton("T")
    ta.add_clock("x")
    ta.add_clock("y")
    ta.add_location("a", invariant="x <= 6", initial=True)
    ta.add_location("b", invariant="y <= 5")
    ta.add_edge("a", "b", guard="x >= 2 && n < 5", updates="n++", resets="y")
    ta.add_edge("b", "a", guard="y >= 1", resets="x")
    ta.add_edge("b", "b", guard="x - y <= 3 && n < 5", updates="n++", resets="y")
    net = Network("two_clock")
    net.add_variable("n", 0, 0, 5)
    net.add_instance(ta, "T")
    return net.compile()


def _possibly_one_constraint_at_a_time(formula, state):
    """Oracle: every clause's constraints conjoined one by one on a DBM copy."""
    net = formula.network
    env = net.variable_valuation(state.variables)
    for checks, constraints in formula._clauses:
        if not all(check(state.locations, state.variables) for check in checks):
            continue
        zone = state.zone.copy()
        if all(c.apply(zone, net.clock_index, env) for c in constraints):
            return True
    return False


@pytest.mark.usefixtures("kernel_backend")
def test_possibly_many_equals_possibly_per_layer():
    net = _two_clock_network()
    states = []
    Explorer(net).explore(lambda state, _node: states.append(state))
    zones = np.stack([state.zone.m2 for state in states])
    keys = sorted({state.discrete_key() for state in states})
    assert len(zones) > 10 and len(keys) > 4

    def clock(text):
        return ClockProp.parse(text, net.clock_index)

    formulas = [
        clock("T.x == 3"),  # both bounds of one clock
        DataProp.parse("n >= 1") & clock("T.x - T.y <= 2"),  # a clock difference
        clock("T.y >= n + 1") | (LocationProp("T", "b") & clock("T.x < 4")),  # variable bound
        Not(clock("T.x - T.y > 1")) & clock("T.y > 2"),  # a negated difference
    ]
    verdicts = set()
    for formula in formulas:
        bound = BoundFormula(formula, net)
        for locations, variables in keys:
            mask = bound.possibly_many(locations, variables, zones)
            layers = [
                SymbolicState(locations, variables, DBM(net.dim, raw=layer))
                for layer in zones
            ]
            assert mask.tolist() == [bound.possibly(state) for state in layers]
            assert mask.tolist() == [
                _possibly_one_constraint_at_a_time(bound, state) for state in layers
            ]
            verdicts.update(mask.tolist())
    assert verdicts == {True, False}
    assert np.array_equal(zones, np.stack([state.zone.m2 for state in states]))
