"""Tests of the unified :class:`ReductionConfig` API (docs/reductions.md).

The parsing/round-trip behaviour checked here is the contract every
``--reductions`` flag, serve request option and settings dataclass relies
on: equivalent specs must normalise to one canonical form, and unknown
names must fail loudly at the configuration boundary.
"""

import itertools
import pickle

import pytest

from repro.core.reachability import SearchOptions
from repro.core.reductions import REDUCTION_FIELDS, ReductionConfig
from repro.util.errors import ModelError


class TestParse:
    def test_none_means_all_enabled(self):
        config = ReductionConfig.parse(None)
        assert config == ReductionConfig()
        assert all(getattr(config, name) for name in REDUCTION_FIELDS)
        assert config.any_enabled

    def test_all_and_empty_string(self):
        assert ReductionConfig.parse("all") == ReductionConfig()
        assert ReductionConfig.parse("") == ReductionConfig()

    def test_none_string_disables_everything(self):
        config = ReductionConfig.parse("none")
        assert config == ReductionConfig.none()
        assert not config.any_enabled
        assert not any(getattr(config, name) for name in REDUCTION_FIELDS)

    def test_comma_list_enables_exactly_the_named_reductions(self):
        config = ReductionConfig.parse("symmetry")
        assert config.symmetry
        assert not config.lu_extrapolation

    def test_comma_list_tolerates_spaces_and_order(self):
        a = ReductionConfig.parse("symmetry, lu_extrapolation")
        b = ReductionConfig.parse("lu_extrapolation,symmetry")
        assert a == b

    def test_existing_config_passes_through_unchanged(self):
        config = ReductionConfig(symmetry=False)
        assert ReductionConfig.parse(config) is config

    def test_mapping_spec(self):
        config = ReductionConfig.parse({"symmetry": False})
        assert config.lu_extrapolation
        assert not config.symmetry

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ModelError):
            ReductionConfig.parse("lu")  # the old alias is not a spec name
        with pytest.raises(ModelError):
            ReductionConfig.parse("symmetry,typo")

    def test_unknown_mapping_key_is_rejected(self):
        with pytest.raises(ModelError):
            ReductionConfig.parse({"por": True})

    def test_removed_partial_order_name_is_rejected(self):
        for spec in ("partial_order", {"partial_order": False}):
            with pytest.raises(ModelError, match="lu_extrapolation, symmetry"):
                ReductionConfig.parse(spec)

    def test_non_bool_flag_is_rejected(self):
        with pytest.raises(ModelError):
            ReductionConfig(lu_extrapolation="yes")


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "flags", list(itertools.product([False, True], repeat=len(REDUCTION_FIELDS)))
    )
    def test_every_combination_survives_spec_round_trip(self, flags):
        config = ReductionConfig(**dict(zip(REDUCTION_FIELDS, flags)))
        assert ReductionConfig.parse(config.spec()) == config

    def test_spec_is_canonical(self):
        assert ReductionConfig().spec() == "all"
        assert ReductionConfig.none().spec() == "none"
        assert ReductionConfig.parse("symmetry, lu_extrapolation").spec() == "all"
        assert ReductionConfig.parse(" symmetry ").spec() == "symmetry"

    def test_dict_round_trip(self):
        config = ReductionConfig(lu_extrapolation=False)
        assert ReductionConfig.from_dict(config.to_dict()) == config

    def test_config_is_hashable_and_picklable(self):
        config = ReductionConfig(symmetry=False)
        assert config in {config}
        assert pickle.loads(pickle.dumps(config)) == config


class TestSearchOptionsThreading:
    def test_search_options_normalise_reduction_specs(self):
        options = SearchOptions(reductions="lu_extrapolation")
        assert isinstance(options.reductions, ReductionConfig)
        assert options.reductions.lu_extrapolation
        assert not options.reductions.symmetry

    def test_search_options_default_is_all_on(self):
        assert SearchOptions().reductions == ReductionConfig()

    def test_bad_spec_fails_at_construction(self):
        with pytest.raises(ModelError):
            SearchOptions(reductions="nope")
