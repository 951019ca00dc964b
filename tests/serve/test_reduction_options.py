"""Serve-side handling of the ``reductions`` analysis option.

The front-end canonicalises the spec before fingerprinting (equivalent
requests must hit the same cache entry), rejects typos with a 400-style
``ModelError`` instead of crashing a worker, and accumulates the reduction
counters of successful runs into the ``/metrics`` surface.
"""

import pytest

from repro.serve.jobs import analysis_options
from repro.serve.server import Metrics
from repro.util.errors import ModelError

CAPS = dict(max_states_cap=10_000, max_seconds_cap=10.0)


class TestAnalysisOptions:
    def test_equivalent_specs_canonicalise_identically(self):
        a = analysis_options({"reductions": "symmetry, lu_extrapolation"}, **CAPS)
        b = analysis_options({"reductions": "lu_extrapolation,symmetry"}, **CAPS)
        assert a == b
        assert a["reductions"] == "all"

    def test_all_and_none_are_preserved(self):
        assert analysis_options({"reductions": "all"}, **CAPS)["reductions"] == "all"
        assert analysis_options({"reductions": "none"}, **CAPS)["reductions"] == "none"

    def test_omitted_reductions_stay_omitted(self):
        # the default (all reductions) is the oracle's, not the front-end's:
        # old cached fingerprints without the key must stay reachable
        assert "reductions" not in analysis_options({}, **CAPS)

    def test_typo_is_rejected_at_the_front_end(self):
        with pytest.raises(ModelError):
            analysis_options({"reductions": "symmetri"}, **CAPS)

    def test_dict_spec_is_accepted_and_canonicalised(self):
        options = analysis_options({"reductions": {"symmetry": False}}, **CAPS)
        assert options["reductions"] == "lu_extrapolation"

    def test_removed_partial_order_name_is_rejected(self):
        with pytest.raises(ModelError, match="lu_extrapolation, symmetry"):
            analysis_options({"reductions": {"partial_order": False}}, **CAPS)


class TestMetrics:
    def test_record_reductions_accumulates(self):
        metrics = Metrics()
        metrics.record_reductions({"states_subsumed_lu": 3, "keys_folded": 2})
        metrics.record_reductions({"states_subsumed_lu": 1})
        assert metrics.states_subsumed_lu == 4
        assert metrics.keys_folded == 2

    def test_record_reductions_tolerates_missing_counters(self):
        metrics = Metrics()
        metrics.record_reductions(None)
        metrics.record_reductions({})
        assert metrics.states_subsumed_lu == 0

    def test_counters_appear_on_the_metrics_surface(self):
        surface = Metrics().to_dict()
        for name in ("states_subsumed_lu", "keys_folded"):
            assert name in surface
