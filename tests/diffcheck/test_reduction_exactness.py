"""Exactness of the state-space reductions (docs/reductions.md).

Every reduction — LU extrapolation, symmetry — claims to preserve the
``sup`` value bit-exactly.  This suite pins that claim where it is
cheapest to falsify: all ``2**2`` reduction combinations
on hand-computable models under every processor scheduling policy, a
window of sampled diffcheck models, the four-engine oracle with reductions
on and off, and witness construction/replay on reduced runs.
"""

import itertools

import pytest

from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
from repro.arch.eventmodels import Periodic, PeriodicOffset
from repro.arch.model import ArchitectureModel
from repro.arch.requirements import LatencyRequirement
from repro.arch.resources import (
    FIXED_PRIORITY_NONPREEMPTIVE,
    FIXED_PRIORITY_PREEMPTIVE,
    NONPREEMPTIVE_NONDETERMINISTIC,
    ROUND_ROBIN,
    TDMA,
    Processor,
)
from repro.arch.workload import Execute, Operation, Scenario
from repro.core.reductions import REDUCTION_FIELDS, ReductionConfig
from repro.diffcheck import OracleConfig, check_model, sample_model
from repro.witness.build import build_witness
from repro.witness.replay import validate_witness

ALL_COMBINATIONS = [
    ReductionConfig(**dict(zip(REDUCTION_FIELDS, flags)))
    for flags in itertools.product([False, True], repeat=len(REDUCTION_FIELDS))
]

POLICIES = [
    FIXED_PRIORITY_PREEMPTIVE,
    FIXED_PRIORITY_NONPREEMPTIVE,
    NONPREEMPTIVE_NONDETERMINISTIC,
    ROUND_ROBIN,
    TDMA,
]


def _shared_cpu_model(policy) -> ArchitectureModel:
    """Two scenarios contending for one processor under *policy*."""
    model = ArchitectureModel(f"shared_{policy.name}")
    if policy.time_triggered:
        cpu = Processor("CPU", 1.0, policy, slot_ticks=3,
                        slot_order=("hi", "lo"))
    else:
        cpu = Processor("CPU", 1.0, policy)
    model.add_processor(cpu)
    model.add_scenario(Scenario(
        "High", (Execute(Operation("hi", 2), "CPU"),),
        PeriodicOffset(10, offset=0), priority=1,
    ))
    model.add_scenario(Scenario(
        "Low", (Execute(Operation("lo", 3), "CPU"),), Periodic(12), priority=2,
    ))
    model.add_requirement(LatencyRequirement("R0", "Low", 60))
    model.validate()
    return model


def _wcrt(model, requirement="R0", reductions=None, **kwargs):
    settings = TimedAutomataSettings(reductions=reductions, **kwargs)
    return analyze_wcrt(model, requirement, settings)


class TestAllCombinationsAllPolicies:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_every_reduction_combination_is_bit_identical(self, policy):
        model = _shared_cpu_model(policy)
        baseline = _wcrt(model, reductions="none")
        assert baseline.wcrt_ticks is not None
        assert not baseline.is_lower_bound
        for config in ALL_COMBINATIONS:
            reduced = _wcrt(model, reductions=config)
            assert reduced.wcrt_ticks == baseline.wcrt_ticks, config.spec()
            assert reduced.is_lower_bound == baseline.is_lower_bound, config.spec()
            assert reduced.satisfied == baseline.satisfied, config.spec()

    def test_reduced_exploration_never_exceeds_the_unreduced_one(self):
        model = _shared_cpu_model(FIXED_PRIORITY_PREEMPTIVE)
        unreduced = _wcrt(model, reductions="none")
        reduced = _wcrt(model, reductions="all")
        assert (reduced.detail.statistics.states_explored
                <= unreduced.detail.statistics.states_explored)


class TestSampledCorpus:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_sampled_models_are_reduction_invariant(self, seed):
        """The TA sup value over a sampled model is the same for every
        single-reduction config and the all-on config."""
        model = sample_model(seed)
        requirement = next(iter(model.requirements))
        budget = dict(max_states=4_000, max_seconds=5.0)
        baseline = _wcrt(model, requirement, reductions="none", **budget)
        for spec in (*REDUCTION_FIELDS, "all"):
            reduced = _wcrt(model, requirement, reductions=spec, **budget)
            # a reduction may only shrink the space, so an exact baseline
            # stays exact; a budgeted baseline may become exact, never the
            # other way around
            assert reduced.detail.statistics.states_explored <= max(
                baseline.detail.statistics.states_explored, 4_000), (seed, spec)
            if not baseline.is_lower_bound:
                assert not reduced.is_lower_bound, (seed, spec)
                assert reduced.wcrt_ticks == baseline.wcrt_ticks, (seed, spec)

    def test_oracle_cross_checks_the_reduced_engine(self):
        config_on = OracleConfig(max_states=4_000, max_seconds=2.0, des_runs=2,
                                 des_horizon_periods=20, reductions="all")
        config_off = OracleConfig(max_states=4_000, max_seconds=2.0, des_runs=2,
                                  des_horizon_periods=20, reductions="none")
        for seed in range(3):
            model = sample_model(seed)
            on = check_model(model, seed=seed, config=config_on)
            off = check_model(model, seed=seed, config=config_off)
            assert on.violations == []
            assert off.violations == []
            if "ta" in on.verdicts and "ta" in off.verdicts:
                if on.verdicts["ta"].exact and off.verdicts["ta"].exact:
                    assert on.verdicts["ta"].value == off.verdicts["ta"].value

    def test_oracle_config_normalises_reduction_specs(self):
        config = OracleConfig(reductions="symmetry, lu_extrapolation")
        assert config.reductions == "all"
        assert OracleConfig().reductions == "all"
        round_tripped = OracleConfig.from_dict(config.to_dict())
        assert round_tripped.reductions == config.reductions

    def test_verdict_reports_reduction_counters(self):
        config = OracleConfig(max_states=4_000, max_seconds=2.0, des_runs=1,
                              des_horizon_periods=10, reductions="all")
        counters: dict[str, int] = {}
        for seed in range(6):
            verdict = check_model(sample_model(seed), seed=seed, config=config)
            for name, value in verdict.reduction_counters.items():
                counters[name] = counters.get(name, 0) + value
        # the sampled window is small but not degenerate: at least one
        # reduction must have acted somewhere
        assert any(counters.values()), counters


class TestWitnessReplayWithReductions:
    @pytest.mark.parametrize("spec", ["none", "all"])
    def test_witness_builds_and_validates(self, spec):
        """Reduced runs still concretise valid witnesses (trace recording
        makes LU/symmetry fall back)."""
        model = _shared_cpu_model(FIXED_PRIORITY_PREEMPTIVE)
        analysis = _wcrt(model, reductions=spec, record_traces=True)
        run = build_witness(model, analysis)
        validation = validate_witness(model, run, analysis.generated)
        assert validation.ok, validation
        assert run.response_ticks == analysis.wcrt_ticks

    def test_reduced_and_unreduced_witnesses_attain_the_same_wcrt(self):
        model = _shared_cpu_model(ROUND_ROBIN)
        runs = {}
        for spec in ("none", "all"):
            analysis = _wcrt(model, reductions=spec, record_traces=True)
            runs[spec] = build_witness(model, analysis)
            assert validate_witness(model, runs[spec], analysis.generated).ok
        assert runs["none"].response_ticks == runs["all"].response_ticks
