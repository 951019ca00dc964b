"""Concrete witnesses for the case study's Table 1 WCRT anchors."""

import functools

import pytest

from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
from repro.casestudy import (
    WITNESS_ANCHOR_CELLS,
    anchor_witness,
    build_radio_navigation,
    configure,
)
from repro.casestudy.expected import TABLE1_UPPAAL_MS
from repro.witness import STRATEGIES, build_witness, validate_witness, wcrt_witness


@functools.lru_cache(maxsize=None)
def _pno_analysis(method):
    """AL+TMC/pno with a recorded trace; binary search from the DES lower
    bound 172106 (the po anchor, certified below the pno WCRT)."""
    model = configure(build_radio_navigation(), "AL+TMC", "pno")
    settings = TimedAutomataSettings(method=method, record_traces=True,
                                     binary_lo=172106)
    return model, analyze_wcrt(model, "TMC", settings)


class TestTable1AnchorWitnesses:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_al_tmc_po_anchor_is_attained_by_a_validated_schedule(self, strategy):
        anchored = anchor_witness("AL+TMC", "po", "TMC", strategy)
        assert anchored.ok
        assert anchored.analysis.wcrt_ticks == 172106
        assert anchored.run.response_ticks == 172106
        paper = TABLE1_UPPAAL_MS[("HandleTMC (+ AddressLookup)", "po")]
        assert abs(anchored.analysis.wcrt_ms - paper) < 0.001
        assert anchored.validation.replay.replayed_response == 172106

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("method", ["sup", "binary-search"])
    def test_al_tmc_pno_witnesses_pass_both_validators(self, method, strategy):
        # the pno witness preempts DecodeTMC at its own completion instant
        # for DatabaseLookup, which reaches NAV later within that instant
        model, analysis = _pno_analysis(method)
        assert analysis.wcrt_ticks == 239081
        run = build_witness(model, analysis, strategy)
        validation = validate_witness(model, run, analysis.generated)
        assert validation.ok, validation.describe()
        assert validation.replay.replayed_response == 239081

    def test_anchor_cells_are_the_exhaustive_al_tmc_cells(self):
        assert ("AL+TMC", "po", "TMC") in WITNESS_ANCHOR_CELLS
        for combination, configuration, requirement in WITNESS_ANCHOR_CELLS:
            assert combination == "AL+TMC"
            assert requirement == "TMC"

    def test_address_lookup_isolation_witnesses_79_075_ms(self):
        from repro.arch.eventmodels import PeriodicOffset

        model = build_radio_navigation().restrict(["AddressLookup"]).with_event_models(
            {"AddressLookup": PeriodicOffset(1_000_000, 0)}
        )
        analysis, run = wcrt_witness(model, "ALK2V", TimedAutomataSettings(seed=1))
        assert analysis.wcrt_ticks == 79075
        assert run.response_ticks == 79075
        assert validate_witness(model, run, analysis.generated).ok

    def test_round_robin_policy_variant_carries_a_witness(self):
        # the PR 4 budgeted round-robin deployment, exhaustive on AL+TMC/po:
        # the witness pipeline must handle the cyclic servers too
        anchored = anchor_witness("AL+TMC", "po", "TMC", "earliest", policy="rr")
        assert not anchored.analysis.is_lower_bound
        assert anchored.validation.ok
        assert (
            anchored.validation.replay.replayed_response
            == anchored.analysis.wcrt_ticks
        )
