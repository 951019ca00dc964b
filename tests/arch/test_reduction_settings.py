"""ReductionConfig threading through the settings/budget dataclasses.

One canonical configuration object flows from the user-facing settings down
to the explorer (``TimedAutomataSettings`` → ``SearchOptions``) and across
process/JSON boundaries as a spec string (``PortfolioBudget``).  The LU
grid is only reachable through ``reductions="lu_extrapolation"``.
"""

import dataclasses

import pytest

from repro.arch.analysis import TimedAutomataSettings
from repro.core.reductions import ReductionConfig
from repro.portfolio.anytime import PortfolioBudget
from repro.util.errors import ModelError


class TestSettingsThreading:
    def test_settings_normalise_specs_to_a_config(self):
        settings = TimedAutomataSettings(reductions="lu_extrapolation")
        assert isinstance(settings.reductions, ReductionConfig)
        assert settings.reductions == ReductionConfig.parse("lu_extrapolation")

    def test_settings_default_enables_all_reductions(self):
        assert TimedAutomataSettings().reductions == ReductionConfig()

    def test_search_options_carry_the_config(self):
        settings = TimedAutomataSettings(reductions="symmetry")
        assert settings.search_options().reductions == settings.reductions

    def test_replace_reparses_safely(self):
        settings = TimedAutomataSettings(reductions="none")
        bumped = dataclasses.replace(settings, max_states=10)
        assert bumped.reductions == ReductionConfig.none()
        assert bumped.max_states == 10

    def test_bad_spec_is_rejected_at_construction(self):
        with pytest.raises(ModelError):
            TimedAutomataSettings(reductions="lu")


class TestExtrapolationMode:
    def test_lu_mode_points_to_the_reduction(self):
        with pytest.raises(ModelError, match="lu_extrapolation"):
            TimedAutomataSettings(extrapolation="lu")

    def test_max_and_none_are_accepted(self):
        for mode in ("max", "none"):
            settings = TimedAutomataSettings(extrapolation=mode)
            assert settings.semantics_options().extrapolation == mode


class TestPortfolioBudgetThreading:
    def test_budget_stores_the_canonical_spec_string(self):
        budget = PortfolioBudget(reductions="symmetry, lu_extrapolation")
        assert budget.reductions == "all"
        assert PortfolioBudget(reductions=" symmetry ").reductions == "symmetry"
        assert PortfolioBudget().reductions == "all"
        assert PortfolioBudget(reductions="none").reductions == "none"

    def test_budget_round_trips_through_dict(self):
        budget = PortfolioBudget(reductions="symmetry")
        clone = PortfolioBudget.from_dict(budget.to_dict())
        assert clone == budget
        assert "reductions" in budget.to_dict()

    def test_budget_rejects_unknown_reduction_names(self):
        with pytest.raises(ModelError):
            PortfolioBudget(reductions="warp_drive")
