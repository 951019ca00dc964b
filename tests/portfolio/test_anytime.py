"""The anytime ``analyze()`` contract (docs/portfolio.md).

The headline property, checked over a sampled diffcheck corpus: intervals
tighten monotonically with budget, always contain the exact WCRT, and the
attained-bound witness validates.  Plus the unit-level contract: budget
validation, the zero-budget floor, exact-edge attribution, and the
interval-crossing guard.
"""

import pytest

from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
from repro.casestudy import build_radio_navigation, configure
from repro.diffcheck import sample_model
from repro.portfolio import PortfolioBudget, analyze
from repro.portfolio.anytime import _Interval
from repro.portfolio.bounds import EngineBound
from repro.sweep.supervisor import SupervisorConfig, degraded_interval
from repro.util.errors import AnalysisError, ModelError
from repro.witness import run_from_dict, validate_witness

#: growing budgets for the monotone-tightening property; the first is the
#: zero-budget floor, the middle starves the exact stage, the last is
#: enough for any sampled model
BUDGETS = (
    PortfolioBudget(max_states=0, des_runs=2, des_horizon_periods=20),
    PortfolioBudget(max_states=40, des_runs=2, des_horizon_periods=20),
    PortfolioBudget(max_states=50_000, des_runs=2, des_horizon_periods=20,
                    witness="earliest"),
)

#: the sampled corpus: seed-deterministic, so failures replay exactly
CORPUS_SEEDS = range(6)


def _requirement(model) -> str:
    return next(iter(model.requirements))


def _edge(bound, default):
    return default if bound is None else bound.value_ticks


class TestSampledCorpusProperty:
    """analyze() over random models: the ISSUE's property test."""

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_intervals_tighten_contain_and_witness(self, seed):
        model = sample_model(seed)
        requirement = _requirement(model)

        # the independent exact reference (no guiding, no portfolio)
        reference = analyze_wcrt(
            model, requirement,
            TimedAutomataSettings(max_states=50_000, seed=1),
        )
        if reference.is_lower_bound or reference.wcrt_ticks is None:
            pytest.skip(f"seed {seed}: reference exploration not exact")
        exact = reference.wcrt_ticks

        results = [analyze(model, budget, requirement=requirement)
                   for budget in BUDGETS]

        previous_lower, previous_upper = None, None
        for budget, result in zip(BUDGETS, results):
            lower, upper = result.interval()
            # soundness: the interval always contains the exact WCRT
            if lower is not None:
                assert lower <= exact, (seed, budget, result.to_dict())
            if upper is not None:
                assert upper >= exact, (seed, budget, result.to_dict())
            # monotone tightening across budgets
            assert _edge(result.lower, -1) >= (previous_lower if previous_lower
                                               is not None else -1)
            if previous_upper is not None and upper is not None:
                assert upper <= previous_upper
            previous_lower = _edge(result.lower, previous_lower)
            previous_upper = upper if upper is not None else previous_upper
            # monotone tightening within the journaled updates
            journal_lower, journal_upper = None, None
            for update in result.updates:
                if journal_lower is not None and update.lower_ticks is not None:
                    assert update.lower_ticks >= journal_lower
                if journal_upper is not None and update.upper_ticks is not None:
                    assert update.upper_ticks <= journal_upper
                journal_lower = (update.lower_ticks if update.lower_ticks
                                 is not None else journal_lower)
                journal_upper = (update.upper_ticks if update.upper_ticks
                                 is not None else journal_upper)

        # the full budget collapses the interval to the unguided exact WCRT
        final = results[-1]
        assert final.exact, (seed, final.notes)
        assert final.wcrt_ticks == exact
        assert final.interval() == (exact, exact)
        # a point interval is attributed to the exact engine on both edges
        assert final.lower.engine == "ta"
        assert final.upper.engine == "ta"

        # the attained-bound witness validates (TA step-check + DES replay)
        if final.upper.witness:
            run = run_from_dict(final.upper.witness)
            assert run.response_ticks == exact
            validation = validate_witness(model, run)
            assert validation.ok, (seed, validation.describe())
        else:
            assert any("witness" in note for note in final.notes), final.notes


class TestCaseStudyAnchors:
    def test_guided_exact_reproduces_the_po_anchor(self):
        model = configure(build_radio_navigation(), "AL+TMC", "po")
        result = analyze(model, PortfolioBudget(witness="earliest"),
                         requirement="TMC")
        assert result.exact
        assert result.wcrt_ticks == 172106  # the paper's Table 1 anchor
        # guided: strictly fewer states than the unguided 231-state run
        assert 0 < result.states_explored < 231
        run = run_from_dict(result.upper.witness)
        assert validate_witness(model, run).ok

    def test_zero_budget_equals_the_degraded_interval(self):
        """PortfolioBudget(max_states=0) is the PR 6 degraded floor."""
        model = configure(build_radio_navigation(), "AL+TMC", "po")
        config = SupervisorConfig()
        lower, upper, satisfied = degraded_interval(model, "TMC", config)
        result = analyze(model, PortfolioBudget(
            max_states=0,
            des_runs=config.degraded_des_runs,
            des_seconds=config.degraded_des_seconds,
            des_horizon_periods=config.degraded_des_horizon_periods,
        ), requirement="TMC")
        assert result.interval() == (lower, upper)
        assert result.satisfied == satisfied
        assert not result.exact
        assert result.states_explored == 0
        assert result.lower.engine == "des"
        assert result.upper.engine in ("symta", "mpa")

    def test_starved_exact_stage_contributes_a_lower_bound(self):
        model = configure(build_radio_navigation(), "AL+TMC", "po")
        result = analyze(model, PortfolioBudget(max_states=100),
                         requirement="TMC")
        assert not result.exact
        assert result.wcrt_ticks is None
        stages = [update.stage for update in result.updates]
        assert "exact" in stages  # the cut-off exploration still contributed
        lower, upper = result.interval()
        assert lower is not None and upper is not None and lower <= upper

    def test_starved_binary_search_interval_contains_the_wcrt(self):
        # an undecided probe proves nothing: the exact stage's lower bound
        # is the largest C the search proved violated, never the interval top
        model = configure(build_radio_navigation(), "AL+TMC", "po")
        result = analyze(model, PortfolioBudget(
            method="binary-search", max_states=100, des_runs=1,
        ), requirement="TMC")
        assert not result.exact
        lower, upper = result.interval()
        assert lower <= 172106 <= upper  # the paper's Table 1 anchor

    def test_multi_requirement_model_needs_explicit_requirement(self):
        model = configure(build_radio_navigation(), "AL+TMC", "po")
        assert len(model.requirements) > 1
        with pytest.raises(ModelError, match="requirement"):
            analyze(model)


class TestPortfolioBudget:
    def test_round_trips_through_dict(self):
        budget = PortfolioBudget(max_states=0, method="binary-search",
                                 witness="latest")
        assert PortfolioBudget.from_dict(budget.to_dict()) == budget

    def test_rejects_unknown_keys(self):
        with pytest.raises(ModelError, match="max_statez"):
            PortfolioBudget.from_dict({"max_statez": 5})

    @pytest.mark.parametrize("kwargs", [
        {"max_states": -1},
        {"des_runs": -1},
        {"des_horizon_periods": 0},
        {"method": "guess"},
        {"witness": "fastest"},
    ])
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ModelError):
            PortfolioBudget(**kwargs)


class TestIntervalGuard:
    def test_crossing_bounds_raise_naming_both_engines(self):
        interval = _Interval("m", "R")
        interval.apply("analytic", EngineBound("symta", "upper", 10))
        with pytest.raises(AnalysisError, match="symta") as excinfo:
            interval.apply("simulate", EngineBound("des", "lower", 11))
        assert "des" in str(excinfo.value)

    def test_exact_takes_the_edges_on_ties(self):
        interval = _Interval("m", "R")
        interval.apply("analytic", EngineBound("symta", "upper", 10))
        interval.apply("simulate", EngineBound("des", "lower", 10))
        interval.apply("exact", EngineBound(
            "ta", "exact", 10, witness={"schema": "repro-witness-v1"}))
        assert interval.lower.engine == "ta"
        assert interval.upper.engine == "ta"
        assert interval.upper.witness
