"""Traces requested from ``record_traces=False`` explorations must raise.

ISSUE 5, satellite 3: a search node created without parent pointers used to
yield a silent partial (single-step) chain when ``trace()`` was called on
it; it now raises a clear :class:`~repro.util.errors.ReproError` naming the
option to flip.  Raw ``visit`` callables run on the scalar loop in every
search order.
"""

import pytest

from repro.core.automaton import TimedAutomaton
from repro.core.network import Network
from repro.core.reachability import Explorer, SearchOptions
from repro.util.errors import ReproError


def _ticking_network() -> Network:
    ta = TimedAutomaton("Tick")
    ta.add_clock("x")
    ta.add_variable("n", 0, 0, 8)
    ta.add_location("L0", invariant="x <= 1", initial=True)
    ta.add_edge("L0", "L0", guard="x == 1 && n < 8", updates="n++", resets="x")
    network = Network("tick")
    network.add_instance(ta, "T")
    return network


@pytest.mark.parametrize("order", ["bfs", "dfs", "rdfs"])
def test_trace_without_recording_raises_clear_repro_error(order):
    compiled = _ticking_network().compile()
    explorer = Explorer(
        compiled, search=SearchOptions(order=order, record_traces=False)
    )
    nodes = []

    def visit(_state, node):
        nodes.append(node)
        return False

    explorer.explore(visit)
    assert len(nodes) > 2
    # the root itself has a genuine (single-step) trace ...
    assert len(nodes[0].trace()) == 1
    # ... but every non-root node must refuse instead of returning a
    # partial None-parent chain
    with pytest.raises(ReproError, match="record_traces"):
        nodes[-1].trace()


@pytest.mark.parametrize("order", ["bfs", "dfs", "rdfs"])
def test_recorded_traces_still_build(order):
    compiled = _ticking_network().compile()
    explorer = Explorer(
        compiled, search=SearchOptions(order=order, record_traces=True)
    )
    nodes = []

    def visit(_state, node):
        nodes.append(node)
        return False

    explorer.explore(visit)
    trace = nodes[-1].trace()
    assert len(trace) >= 2
    assert trace.steps[0].label is None
    assert all(step.label is not None for step in trace.steps[1:])

