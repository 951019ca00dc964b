"""Experiments E3–E7 — the modelling templates and exploration effort.

* E3 (Figs. 4/5): effect of non-preemptive vs preemptive scheduling of the
  RAD processor on the K2A worst case and on the state-space size.
* E4 (Fig. 6 / §3.2): swapping the bus arbitration (FCFS, fixed priority,
  TDMA) without touching the other automata.
* E5 (Figs. 7/8): zone-graph size induced by each environment automaton.
* E6 (Fig. 9 / Property 1): the observer-based single-pass ``sup`` extraction
  versus the paper's binary search.
* E7: exploration effort per search order (bfs / dfs / rdfs).
"""

from __future__ import annotations

import pytest

from conftest import state_budget
from repro.arch import (
    BUS_FCFS_NONDETERMINISTIC,
    BUS_FIXED_PRIORITY,
    BUS_TDMA,
    FIXED_PRIORITY_NONPREEMPTIVE,
    FIXED_PRIORITY_PREEMPTIVE,
    NONPREEMPTIVE_NONDETERMINISTIC,
    ArchitectureModel,
    Bursty,
    Bus,
    Execute,
    LatencyRequirement,
    Message,
    Operation,
    Periodic,
    PeriodicJitter,
    PeriodicOffset,
    Processor,
    Scenario,
    Sporadic,
    TimedAutomataSettings,
    Transfer,
    analyze_wcrt,
    build_model,
)
from repro.core import Explorer, SearchOptions
from repro.core.wcrt import wcrt_binary_search, wcrt_sup


# ---------------------------------------------------------------------------
# E3 — Fig. 4 vs Fig. 5: RAD scheduling policy
# ---------------------------------------------------------------------------

def _rad_mini_model(policy) -> ArchitectureModel:
    """The RAD processor with its two operations (AdjustVolume, HandleTMC)."""
    model = ArchitectureModel("rad_only")
    model.add_processor(Processor("RAD", 11.0, policy))
    model.add_scenario(Scenario(
        "Volume", (Execute(Operation("AdjustVolume", 1e5), "RAD"),),
        Sporadic(31_250), priority=1))
    model.add_scenario(Scenario(
        "TMC", (Execute(Operation("HandleTMC", 1e6), "RAD"),),
        Sporadic(3_000_000), priority=2))
    model.add_requirement(LatencyRequirement("Volume_RT", "Volume", 200_000))
    model.add_requirement(LatencyRequirement("TMC_RT", "TMC", 1_000_000))
    return model


@pytest.mark.parametrize(
    "policy,label",
    [
        (NONPREEMPTIVE_NONDETERMINISTIC, "fig4-nonpreemptive"),
        (FIXED_PRIORITY_NONPREEMPTIVE, "fixed-priority-nonpreemptive"),
        (FIXED_PRIORITY_PREEMPTIVE, "fig5-preemptive"),
    ],
    ids=["fig4-nondet", "fp-nonpreemptive", "fig5-preemptive"],
)
def test_fig4_fig5_rad_scheduling(benchmark, policy, label):
    model = _rad_mini_model(policy)
    result = benchmark.pedantic(lambda: analyze_wcrt(model, "Volume_RT"), rounds=1, iterations=1)
    benchmark.extra_info["policy"] = label
    benchmark.extra_info["adjust_volume_wcrt_us"] = result.wcrt_ticks
    benchmark.extra_info["states"] = result.detail.statistics.states_explored
    if policy is FIXED_PRIORITY_PREEMPTIVE:
        # preemption shields AdjustVolume from the 90.9 ms HandleTMC job
        assert result.wcrt_ticks == 9091
    else:
        # non-preemptive: HandleTMC may just have started
        assert result.wcrt_ticks == 9091 + 90909


# ---------------------------------------------------------------------------
# E4 — Fig. 6: bus arbitration variants
# ---------------------------------------------------------------------------

def _bus_mini_model(policy, slot_ticks=None) -> ArchitectureModel:
    model = ArchitectureModel("bus_swap")
    model.add_processor(Processor("CPU", 1.0))
    bus = Bus("BUS", 8.0, policy, slot_ticks=slot_ticks,
              slot_order=("Urgent", "Bulk") if policy is BUS_TDMA else ())
    model.add_bus(bus)
    model.add_scenario(Scenario(
        "Fast", (Execute(Operation("Prepare", 100), "CPU"), Transfer(Message("Urgent", 1), "BUS")),
        Sporadic(20_000), priority=1))
    model.add_scenario(Scenario(
        "Slow", (Execute(Operation("Collect", 100), "CPU"), Transfer(Message("Bulk", 8), "BUS")),
        Sporadic(50_000), priority=2))
    model.add_requirement(LatencyRequirement("Fast_RT", "Fast", 100_000))
    return model


@pytest.mark.parametrize(
    "policy,slot",
    [(BUS_FCFS_NONDETERMINISTIC, None), (BUS_FIXED_PRIORITY, None), (BUS_TDMA, 9_000)],
    ids=["fig6-fcfs", "priority", "tdma"],
)
def test_fig6_bus_protocols(benchmark, policy, slot):
    model = _bus_mini_model(policy, slot)
    result = benchmark.pedantic(lambda: analyze_wcrt(model, "Fast_RT"), rounds=1, iterations=1)
    benchmark.extra_info["arbitration"] = str(policy)
    benchmark.extra_info["fast_wcrt_us"] = result.wcrt_ticks
    assert result.wcrt_ticks is not None
    # swapping the bus automaton changes the bound but the model stays analysable
    assert result.wcrt_ticks >= 100 + 1000


# ---------------------------------------------------------------------------
# E5 — Figs. 7/8: environment automata and their state-space cost
# ---------------------------------------------------------------------------

_EVENT_MODELS = {
    "po (7a)": PeriodicOffset(10_000, 0),
    "pno (7b)": Periodic(10_000),
    "sp (7c)": Sporadic(10_000),
    "pj (7d)": PeriodicJitter(10_000, 10_000),
    "bur (8)": Bursty(10_000, 20_000, 0),
}


@pytest.mark.parametrize("label", list(_EVENT_MODELS), ids=list(_EVENT_MODELS))
def test_fig7_fig8_event_models(benchmark, label):
    event_model = _EVENT_MODELS[label]
    model = ArchitectureModel("env_cost")
    model.add_processor(Processor("CPU", 1.0))
    model.add_scenario(Scenario(
        "S", (Execute(Operation("Work", 3_000), "CPU"),), event_model, priority=1))
    model.add_requirement(LatencyRequirement("RT", "S", 1_000_000))
    settings = TimedAutomataSettings(max_states=state_budget(20_000))
    result = benchmark.pedantic(lambda: analyze_wcrt(model, "RT", settings), rounds=1, iterations=1)
    benchmark.extra_info["event_model"] = label
    benchmark.extra_info["wcrt_us"] = result.wcrt_ticks
    benchmark.extra_info["states"] = result.detail.statistics.states_explored
    assert result.wcrt_ticks >= 3_000


# ---------------------------------------------------------------------------
# E6 — Fig. 9 / Property 1: sup query vs binary search
# ---------------------------------------------------------------------------

_OBSERVER_RESULTS: dict[str, int] = {}


@pytest.mark.parametrize("method", ["sup", "binary-search"])
def test_fig9_observer_methods(benchmark, method):
    model = _rad_mini_model(FIXED_PRIORITY_PREEMPTIVE)
    generated = build_model(model, "TMC_RT")
    compiled = generated.compile()
    condition = generated.observer_condition

    def run():
        if method == "sup":
            return wcrt_sup(compiled, generated.observer_clock, condition, ceiling=400_000)
        return wcrt_binary_search(compiled, generated.observer_clock, condition, lo=0, hi=400_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["method"] = method
    benchmark.extra_info["wcrt_us"] = result.value
    benchmark.extra_info["states"] = result.statistics.states_explored
    _OBSERVER_RESULTS[method] = result.value
    # HandleTMC (90 909 µs) is delayed by a handful of AdjustVolume preemptions
    assert 90_909 < result.value < 160_000
    if len(_OBSERVER_RESULTS) == 2:
        # the paper's binary search and the single-pass sup query agree
        assert _OBSERVER_RESULTS["sup"] == _OBSERVER_RESULTS["binary-search"]


# ---------------------------------------------------------------------------
# E7 — exploration effort per search order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", ["bfs", "dfs", "rdfs"])
def test_exploration_effort(benchmark, radio_navigation_model, order):
    from repro.casestudy import configure

    model = configure(radio_navigation_model, "AL+TMC", "pno")
    generated = build_model(model, "TMC")
    compiled = generated.compile()

    def run():
        explorer = Explorer(
            compiled,
            search=SearchOptions(order=order, max_states=state_budget(6_000), seed=3),
        )
        return explorer.count_states()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["order"] = order
    benchmark.extra_info["states_explored"] = stats.states_explored
    benchmark.extra_info["states_per_second"] = (
        round(stats.states_explored / stats.elapsed_seconds) if stats.elapsed_seconds else None
    )
    assert stats.states_explored > 0
