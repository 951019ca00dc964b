"""Tests of the architecture model, the TA generator and the WCRT analysis.

Uses small synthetic architectures whose worst-case response times can be
computed by hand, so that the generated automata (Figs. 4-6, 9 patterns) and
the end-to-end pipeline are checked against known values.
"""

import pytest

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
    PeriodicOffset,
    Processor,
    Scenario,
    Sporadic,
    TimedAutomataSettings,
    Transfer,
    analyze_wcrt,
    build_bus_automaton,
    build_model,
    build_processor_automaton,
    queue_variable,
)
from repro.arch.observers import build_latency_observer
from repro.arch.timebase import MICROSECONDS, TimeBase
from repro.util.errors import ModelError


def _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE, period_a=100, period_b=1000,
                   wcet_a=10, wcet_b=40):
    """Two independent single-step scenarios sharing one 1-MIPS processor.

    With a 1 MIPS processor and a micro-second time base, an operation of
    ``n`` instructions runs for exactly ``n`` ticks.
    """
    model = ArchitectureModel("single_cpu", timebase=MICROSECONDS)
    model.add_processor(Processor("CPU", 1.0, policy))
    model.add_scenario(Scenario(
        "High", (Execute(Operation("OpA", wcet_a), "CPU"),),
        Sporadic(period_a), priority=1))
    model.add_scenario(Scenario(
        "Low", (Execute(Operation("OpB", wcet_b), "CPU"),),
        Sporadic(period_b), priority=2))
    model.add_requirement(LatencyRequirement("RHigh", "High", 10_000))
    model.add_requirement(LatencyRequirement("RLow", "Low", 10_000))
    return model


class TestArchitectureModel:
    def test_step_durations_follow_capacity(self):
        model = _one_cpu_model()
        scenario = model.scenario("High")
        assert model.step_duration(scenario.steps[0]) == 10

    def test_chain_duration(self):
        model = _one_cpu_model()
        assert model.chain_duration("Low") == 40

    def test_utilisation(self):
        model = _one_cpu_model()
        assert model.utilisation("CPU") == pytest.approx(10 / 100 + 40 / 1000)

    def test_restrict_and_event_model_override(self):
        model = _one_cpu_model()
        restricted = model.restrict(["High"])
        assert set(restricted.scenarios) == {"High"}
        assert set(restricted.requirements) == {"RHigh"}
        overridden = model.with_event_models({"High": Periodic(500)})
        assert overridden.scenario("High").event_model.period == 500

    def test_unknown_resource_rejected(self):
        model = ArchitectureModel("bad")
        model.add_processor(Processor("CPU", 1.0))
        with pytest.raises(ModelError):
            model.add_scenario(Scenario(
                "S", (Execute(Operation("Op", 10), "OTHER"),), Sporadic(100)))

    def test_preemptive_three_priority_levels_rejected(self):
        model = _one_cpu_model()
        model.add_scenario(Scenario(
            "Lowest", (Execute(Operation("OpC", 5), "CPU"),), Sporadic(700), priority=3))
        with pytest.raises(ModelError):
            model.validate()

    def test_requirement_with_unknown_step_rejected(self):
        model = _one_cpu_model()
        with pytest.raises(ModelError):
            model.add_requirement(LatencyRequirement("R2", "High", 100, end_after="nope"))


class TestGeneratedAutomata:
    def test_processor_automaton_follows_fig4_pattern(self):
        model = _one_cpu_model(policy=NONPREEMPTIVE_NONDETERMINISTIC)
        ta = build_processor_automaton(model, model.processor("CPU"))
        assert "idle" in ta.locations
        assert "exec_High_OpA" in ta.locations
        assert "exec_Low_OpB" in ta.locations
        # dispatch edges synchronise on the urgent hurry channel
        dispatch = [e for e in ta.edges if e.source == "idle"]
        assert all(e.sync is not None and e.sync.channel == "hurry" for e in dispatch)

    def test_preemptive_processor_has_fig5_artifacts(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE)
        ta = build_processor_automaton(model, model.processor("CPU"))
        assert "D" in ta.variables
        assert "y" in ta.clocks
        assert any(name.startswith("pre_Low_OpB_High_OpA") for name in ta.locations)

    def test_nonpreemptive_priority_guard(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_NONPREEMPTIVE)
        ta = build_processor_automaton(model, model.processor("CPU"))
        low_dispatch = [e for e in ta.edges if e.target == "exec_Low_OpB"][0]
        assert queue_variable("High", "OpA") in str(low_dispatch.guard)

    def test_bus_automaton_follows_fig6_pattern(self):
        model = ArchitectureModel("bus_model")
        model.add_processor(Processor("CPU", 1.0))
        model.add_bus(Bus("BUS", 8.0))  # 1 byte per millisecond
        model.add_scenario(Scenario(
            "S",
            (Execute(Operation("Op", 10), "CPU"), Transfer(Message("Msg", 4), "BUS")),
            Sporadic(10_000),
        ))
        ta = build_bus_automaton(model, model.bus("BUS"))
        assert "send_S_Msg" in ta.locations
        assert ta.constants["TT_S_Msg"].value == 4000

    def test_tdma_bus_requires_fitting_slots(self):
        model = ArchitectureModel("tdma_model")
        model.add_processor(Processor("CPU", 1.0))
        model.add_bus(Bus("BUS", 8.0, BUS_TDMA, slot_ticks=100))
        model.add_scenario(Scenario(
            "S",
            (Execute(Operation("Op", 10), "CPU"), Transfer(Message("Msg", 4), "BUS")),
            Sporadic(10_000),
        ))
        with pytest.raises(ModelError):
            build_bus_automaton(model, model.bus("BUS"))

    def test_tdma_bus_builds_with_large_slots(self):
        model = ArchitectureModel("tdma_model")
        model.add_processor(Processor("CPU", 1.0))
        model.add_bus(Bus("BUS", 8.0, BUS_TDMA, slot_ticks=5000))
        model.add_scenario(Scenario(
            "S",
            (Execute(Operation("Op", 10), "CPU"), Transfer(Message("Msg", 4), "BUS")),
            Sporadic(10_000),
        ))
        ta = build_bus_automaton(model, model.bus("BUS"))
        assert any(name.startswith("sending_") for name in ta.locations)

    def test_observer_rejects_equal_channels(self):
        with pytest.raises(ModelError):
            build_latency_observer("Obs", "a", "a")

    def test_build_model_without_requirement_has_no_observer(self):
        model = _one_cpu_model()
        generated = build_model(model)
        assert generated.observer_clock is None
        assert "obs" not in [name for name, _ in generated.network.instances]

    def test_build_model_with_requirement_wires_observer(self):
        model = _one_cpu_model()
        generated = build_model(model, "RHigh")
        assert generated.observer_clock == "obs.y"
        compiled = generated.compile()
        assert "obs.y" in compiled.clock_index


class TestEndToEndWCRT:
    def test_single_task_in_isolation(self):
        model = _one_cpu_model()
        restricted = model.restrict(["High"])
        result = analyze_wcrt(restricted, "RHigh")
        assert result.wcrt_ticks == 10
        assert result.satisfied is True

    def test_preemptive_high_priority_unaffected_by_low(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE)
        result = analyze_wcrt(model, "RHigh")
        assert result.wcrt_ticks == 10  # never blocked: preemption

    def test_nonpreemptive_high_priority_suffers_blocking(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_NONPREEMPTIVE)
        result = analyze_wcrt(model, "RHigh")
        # worst case: OpB (40) just started when the high-priority event arrives
        assert result.wcrt_ticks == 50

    def test_low_priority_short_job_not_preempted(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE)
        result = analyze_wcrt(model, "RLow")
        # OpB (40) can wait for one OpA already in service (10) but finishes
        # before the next OpA may arrive (min inter-arrival 100)
        assert result.wcrt_ticks == 50

    def test_low_priority_long_job_is_preempted(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE, wcet_b=140)
        result = analyze_wcrt(model, "RLow")
        # wait for one OpA in service (10), run 140, preempted by exactly one
        # further OpA (10) before completion: 10 + 140 + 10
        assert result.wcrt_ticks == 160

    def test_preemption_costs_more_than_nonpreemptive_blocking(self):
        preemptive = analyze_wcrt(
            _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE, wcet_b=140), "RLow")
        nonpreemptive = analyze_wcrt(
            _one_cpu_model(policy=FIXED_PRIORITY_NONPREEMPTIVE, wcet_b=140), "RLow")
        # once started, a non-preemptable OpB cannot be interrupted, so the
        # low-priority chain actually finishes earlier than under preemption
        assert nonpreemptive.wcrt_ticks == 150
        assert preemptive.wcrt_ticks > nonpreemptive.wcrt_ticks

    def test_chain_over_bus(self):
        model = ArchitectureModel("chain", timebase=MICROSECONDS)
        model.add_processor(Processor("P1", 1.0))
        model.add_processor(Processor("P2", 1.0))
        model.add_bus(Bus("B", 8.0))
        model.add_scenario(Scenario(
            "C",
            (
                Execute(Operation("Produce", 100), "P1"),
                Transfer(Message("Data", 1), "B"),
                Execute(Operation("Consume", 200), "P2"),
            ),
            Sporadic(100_000),
        ))
        model.add_requirement(LatencyRequirement("E2E", "C", 1_000_000))
        result = analyze_wcrt(model, "E2E")
        assert result.wcrt_ticks == 100 + 1000 + 200

    def test_sub_chain_requirement(self):
        model = ArchitectureModel("chain", timebase=MICROSECONDS)
        model.add_processor(Processor("P1", 1.0))
        model.add_processor(Processor("P2", 1.0))
        model.add_bus(Bus("B", 8.0))
        model.add_scenario(Scenario(
            "C",
            (
                Execute(Operation("Produce", 100), "P1"),
                Transfer(Message("Data", 1), "B"),
                Execute(Operation("Consume", 200), "P2"),
            ),
            Sporadic(100_000),
        ))
        model.add_requirement(LatencyRequirement(
            "Tail", "C", 1_000_000, start_after="Produce", end_after="Consume"))
        result = analyze_wcrt(model, "Tail")
        assert result.wcrt_ticks == 1000 + 200

    def test_binary_search_method_agrees_with_sup(self):
        model = _one_cpu_model(policy=FIXED_PRIORITY_NONPREEMPTIVE)
        by_sup = analyze_wcrt(model, "RHigh", TimedAutomataSettings(method="sup"))
        by_search = analyze_wcrt(model, "RHigh", TimedAutomataSettings(method="binary-search"))
        assert by_sup.wcrt_ticks == by_search.wcrt_ticks

    @pytest.mark.parametrize("method", ["sup", "binary-search"])
    def test_state_budget_reports_lower_bound(self, method):
        model = _one_cpu_model()
        exact = analyze_wcrt(model, "RLow", TimedAutomataSettings(method=method))
        result = analyze_wcrt(
            model, "RLow", TimedAutomataSettings(method=method, max_states=5)
        )
        assert result.is_lower_bound
        assert result.wcrt_ticks is None or result.wcrt_ticks <= exact.wcrt_ticks
        assert result.satisfied is not False
        assert result.detail.statistics.termination == "state-budget"

    @pytest.mark.parametrize("method", ["sup", "binary-search"])
    def test_time_budget_reports_time_budget(self, method):
        model = _one_cpu_model()
        result = analyze_wcrt(
            model, "RLow", TimedAutomataSettings(method=method, max_seconds=1e-9)
        )
        assert result.is_lower_bound
        assert result.detail.statistics.termination == "time-budget"

    def test_periodic_offset_zero_interference(self):
        """With synchronous offsets both events arrive together; the high
        priority one wins the (preemptive) CPU, so the low one waits."""
        model = _one_cpu_model(policy=FIXED_PRIORITY_PREEMPTIVE)
        synchronous = model.with_event_models({
            "High": PeriodicOffset(100, 0),
            "Low": PeriodicOffset(1000, 0),
        })
        result = analyze_wcrt(synchronous, "RLow")
        assert result.wcrt_ticks == 50
