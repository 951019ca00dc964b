"""The production engines against the independent reference explorer.

:mod:`reference_explorer` re-implements the zone-graph exploration from the
textbook with none of the engine's code.  On sampled smoke models it must
reach exactly the discrete states the scalar loop reaches
(:meth:`Explorer.reachable_discrete_states`), and its supremum of the
observer clock over the measurement-complete states must equal the WCRT the
layered core reports through :func:`analyze_wcrt`.

The pinned seeds all finish within 3 000 states; together they draw every
processor policy (non-deterministic, fixed-priority non-preemptive and
preemptive, round-robin, TDMA) and the FCFS and fixed-priority buses.  The
engine runs once per zone-kernel backend.
"""

import pytest
from reference_explorer import (
    ReferenceExplorer,
    max_constants,
    reachable_discrete_states,
    sup_upper_bound,
)

from repro.arch import TimedAutomataSettings, analyze_wcrt
from repro.arch.generator import OBSERVER_INSTANCE
from repro.arch.observers import OBSERVER_SEEN_LOCATION
from repro.arch.resources import (
    BUS_FCFS_NONDETERMINISTIC,
    BUS_FIXED_PRIORITY,
    FIXED_PRIORITY_NONPREEMPTIVE,
    FIXED_PRIORITY_PREEMPTIVE,
    NONPREEMPTIVE_NONDETERMINISTIC,
    ROUND_ROBIN,
    TDMA,
)
from repro.core.reachability import Explorer
from repro.diffcheck.sampler import SMOKE_SAMPLER, sample_model

SEEDS = (4, 5, 6, 7, 9, 10, 13, 15, 18, 22, 24, 26, 27, 28, 34, 35, 39)

#: the budget every pinned seed finishes within
MAX_STATES = 3000


def _ceiling(bound: int) -> int:
    """The observer-clock ceiling analyze_wcrt registers by default."""
    return max(int(bound * TimedAutomataSettings().ceiling_factor), bound + 1)


@pytest.fixture(scope="module")
def cases(kernel_backend):
    """Per seed: the sampled model, the engine's analysis and the reference states."""
    out = {}
    for seed in SEEDS:
        model = sample_model(seed, SMOKE_SAMPLER)
        analysis = analyze_wcrt(model, "R0", TimedAutomataSettings(max_states=MAX_STATES))
        network = analysis.generated.network.compile()
        clock = network.clock_id(analysis.generated.observer_clock)
        bounds = max_constants(network, {clock: _ceiling(analysis.bound_ticks)})
        out[seed] = (model, analysis, network, ReferenceExplorer(network, bounds).explore())
    return out


def test_the_pinned_seeds_cover_every_processor_policy_and_two_bus_policies(cases):
    processors, buses = set(), set()
    for model, *_ in cases.values():
        processors |= {processor.policy for processor in model.processors.values()}
        buses |= {bus.policy for bus in model.buses.values()}
    assert processors >= {
        NONPREEMPTIVE_NONDETERMINISTIC, FIXED_PRIORITY_NONPREEMPTIVE,
        FIXED_PRIORITY_PREEMPTIVE, ROUND_ROBIN, TDMA,
    }
    assert buses >= {BUS_FCFS_NONDETERMINISTIC, BUS_FIXED_PRIORITY}


@pytest.mark.parametrize("seed", SEEDS)
def test_reachable_discrete_states_match_the_reference(cases, seed):
    _model, analysis, network, states = cases[seed]
    engine = Explorer(analysis.generated.network.compile()).reachable_discrete_states()
    assert engine == reachable_discrete_states(states)


@pytest.mark.parametrize("seed", SEEDS)
def test_wcrt_matches_the_reference_supremum(cases, seed):
    _model, analysis, network, states = cases[seed]
    assert not analysis.is_lower_bound
    value, weak = sup_upper_bound(
        states, network, analysis.generated.observer_clock,
        OBSERVER_INSTANCE, OBSERVER_SEEN_LOCATION,
    )
    assert analysis.wcrt_ticks == value
    assert analysis.detail.attained == bool(weak)
