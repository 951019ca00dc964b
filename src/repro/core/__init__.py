"""Core timed-automata modelling and model-checking engine.

This package is a self-contained, UPPAAL-style analysis stack:

* :mod:`repro.core.dbm` / :mod:`repro.core.federation` — zone representation,
  over the zone kernels of :mod:`repro.core.kernels` (compiled C, or numpy),
* :mod:`repro.core.expressions`, :mod:`repro.core.guards`,
  :mod:`repro.core.declarations`, :mod:`repro.core.automaton`,
  :mod:`repro.core.network` — the modelling language,
* :mod:`repro.core.successors` — the symbolic (zone-graph) semantics,
* :mod:`repro.core.reachability`, :mod:`repro.core.properties`,
  :mod:`repro.core.wcrt` — exploration, queries and worst-case response
  times,
* :mod:`repro.core.shard` — the layer-synchronous breadth-first core, run
  in-process or forked into key partitions (bit-identical verdicts,
  statistics and witnesses).
"""

from repro.core.automaton import Edge, Location, Sync, TimedAutomaton
from repro.core.dbm import DBM, INFINITY_RAW, bound, bound_as_tuple
from repro.core.declarations import BINARY, BROADCAST, Channel, Clock, Constant, IntVariable
from repro.core.expressions import (
    Assignment,
    Expr,
    parse_expression,
    parse_updates,
)
from repro.core.federation import Federation
from repro.core.guards import ClockConstraint, Guard, Invariant, compile_guard, compile_invariant
from repro.core.network import CompiledNetwork, Network
from repro.core.properties import (
    AG,
    EF,
    And,
    ClockProp,
    DataProp,
    LocationProp,
    Not,
    Or,
    StateFormula,
    Sup,
    parse_atom,
)
from repro.core.reachability import (
    Explorer,
    ReachabilityResult,
    SearchOptions,
    SupResult,
    Trace,
    TraceStep,
)
from repro.core.shard import ShardedExplorer, select_explorer
from repro.core.statistics import ExplorationStatistics
from repro.core.successors import (
    SemanticsOptions,
    SuccessorGenerator,
    SymbolicState,
    TransitionLabel,
)
from repro.core.wcrt import WCRTResult, wcrt_binary_search, wcrt_sup

__all__ = [
    # modelling
    "TimedAutomaton", "Location", "Edge", "Sync",
    "Network", "CompiledNetwork",
    "Clock", "IntVariable", "Constant", "Channel", "BINARY", "BROADCAST",
    "Expr", "Assignment", "parse_expression", "parse_updates",
    "Guard", "Invariant", "ClockConstraint", "compile_guard", "compile_invariant",
    # zones
    "DBM", "Federation", "INFINITY_RAW", "bound", "bound_as_tuple",
    # semantics + exploration
    "SemanticsOptions", "SuccessorGenerator", "SymbolicState", "TransitionLabel",
    "Explorer", "SearchOptions", "ReachabilityResult", "SupResult",
    "ShardedExplorer", "select_explorer",
    "Trace", "TraceStep", "ExplorationStatistics",
    # properties + WCRT
    "StateFormula", "LocationProp", "DataProp", "ClockProp", "And", "Or", "Not",
    "EF", "AG", "Sup", "parse_atom",
    "WCRTResult", "wcrt_sup", "wcrt_binary_search",
]
