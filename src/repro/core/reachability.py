"""Zone-graph exploration: the reachability engine behind every query.

The engine implements the standard UPPAAL forward exploration with a
*waiting* list of symbolic states still to be expanded and a *passed* list of
states already seen.  The passed list is indexed by the discrete part
(location vector + variable vector) and stores, per discrete state, a set of
maximal zones; a new symbolic state is discarded when its zone is included in
a stored zone (inclusion checking).

Search orders:

* ``"bfs"``  — breadth first (default; shortest counterexamples),
* ``"dfs"``  — depth first,
* ``"rdfs"`` — randomised depth first (successor order shuffled), the
  "structured testing" mode the paper uses to obtain lower bounds on the
  worst-case response times when the exact search does not terminate within
  the budget.

Breadth-first queries (``sup``, ``check``, ``count_states``) run on the
layer-synchronous core of :mod:`repro.core.shard`, in-process; dfs/rdfs and
raw ``visit`` callables run on the scalar loop of
:meth:`Explorer._explore_scalar`, which is also the equality oracle of the
layered core.

Budgets (``max_states``, ``max_seconds``) make the engine stop early and mark
the result as partial instead of raising, because partial exploration is a
legitimate analysis mode in the paper (Table 1 reports ``> x (df)`` /
``> x (rdf)`` entries obtained that way).
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.dbm import INFINITY_RAW, bound_as_tuple
from repro.core.federation import Federation
from repro.core.network import CompiledNetwork
from repro.core.properties import AG, EF, BoundFormula, Query, Sup
from repro.core.reductions import ReductionConfig
from repro.core.statistics import ExplorationStatistics
from repro.core.successors import (
    SemanticsOptions,
    SuccessorGenerator,
    SymbolicState,
    TransitionLabel,
    pack_discrete,
)
from repro.core.symmetry import permute_zones
from repro.util.errors import AnalysisError, ModelError

__all__ = [
    "SearchOptions",
    "ReachabilityResult",
    "SupResult",
    "Explorer",
    "Trace",
    "TraceStep",
]


@dataclass
class SearchOptions:
    """Options of the exploration itself (orthogonal to the semantics)."""

    #: "bfs", "dfs" or "rdfs"
    order: str = "bfs"
    #: stop after expanding this many symbolic states (None = unlimited)
    max_states: int | None = None
    #: stop after this much wall-clock time in seconds (None = unlimited)
    max_seconds: float | None = None
    #: absolute ``time.perf_counter`` instant to stop at (None = unlimited);
    #: combined with ``max_seconds`` by taking whichever comes first -- the
    #: hook through which a supervised sweep imposes one wall-clock deadline
    #: across generation, exploration and witness construction
    deadline: float | None = None
    #: seed of the random generator used by "rdfs"
    seed: int = 0
    #: keep parent pointers so that witness/counterexample traces can be built
    record_traces: bool = True
    #: which state-space reductions the engine may apply; accepts a
    #: :class:`ReductionConfig`, a spec string (``"all"``, ``"none"``, a
    #: comma list of canonical names), a dict of flags or ``None`` (all on);
    #: normalised to a :class:`ReductionConfig` by ``__post_init__``
    reductions: ReductionConfig | str | dict | None = None
    #: key partitions of the layered breadth-first core that
    #: :func:`repro.core.shard.select_explorer` forks into worker processes;
    #: 0 and 1 run the core in-process.  Forking requires bfs order and
    #: ``os.fork`` (see ``docs/performance.md``)
    shard_workers: int = 0

    def __post_init__(self):
        if self.order not in ("bfs", "dfs", "rdfs"):
            raise ModelError(f"unknown search order {self.order!r}")
        if self.shard_workers < 0:
            raise ModelError("shard_workers must be non-negative")
        self.reductions = ReductionConfig.parse(self.reductions)


@dataclass(frozen=True)
class TraceStep:
    """One step of a symbolic trace."""

    label: TransitionLabel | None
    state: SymbolicState


@dataclass(frozen=True)
class Trace:
    """A symbolic run from the initial state to a target state."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final_state(self) -> SymbolicState:
        return self.steps[-1].state

    def format(self, network: CompiledNetwork) -> str:
        """Multi-line human-readable rendering of the trace."""
        lines = []
        for index, step in enumerate(self.steps):
            if step.label is not None:
                lines.append(f"  --[{step.label}]-->")
            lines.append(f"{index:4d}: {step.state.describe(network)}")
        return "\n".join(lines)


@dataclass
class ReachabilityResult:
    """Outcome of an ``E<>`` / ``A[]`` query."""

    query: Query
    #: True / False when the query was decided; None when the exploration was
    #: cut short by a budget before a decision was possible
    holds: bool | None
    #: witness trace (EF) or counterexample trace (AG), when available
    trace: Trace | None
    statistics: ExplorationStatistics

    @property
    def decided(self) -> bool:
        return self.holds is not None

    def __str__(self) -> str:
        verdict = {True: "satisfied", False: "violated", None: "undecided"}[self.holds]
        return f"{self.query}: {verdict} ({self.statistics})"


@dataclass
class SupResult:
    """Outcome of a :class:`~repro.core.properties.Sup` query."""

    query: Sup
    #: largest value of the clock over the matching reachable states, in model
    #: time units; None when no matching state was reached
    value: int | None
    #: True when the supremum is attained (a weak bound), False when it is a
    #: strict limit
    attained: bool
    #: True when the value is only a lower bound (budget exhausted or the
    #: bound hit the extrapolation ceiling)
    is_lower_bound: bool
    statistics: ExplorationStatistics
    #: trace to a state attaining the reported value (when recorded)
    trace: Trace | None = None

    def __str__(self) -> str:
        if self.value is None:
            return f"{self.query}: no matching state reached ({self.statistics})"
        prefix = ">" if self.is_lower_bound else ("=" if self.attained else "<")
        return f"{self.query}: {prefix} {self.value} ({self.statistics})"


class _UnrecordedParent:
    """Sentinel parent of nodes created with ``record_traces=False``.

    Distinguishes "this node is the search root" (parent ``None``, a
    one-step trace is correct) from "the ancestry was deliberately not
    recorded" -- building a trace through the sentinel raises instead of
    silently returning a partial chain.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<unrecorded parent>"


_UNRECORDED = _UnrecordedParent()


class _SearchNode:
    """Internal: a stored symbolic state plus its parent pointer."""

    __slots__ = ("state", "parent", "label")

    def __init__(
        self,
        state: SymbolicState,
        parent: "_SearchNode | _UnrecordedParent | None",
        label: TransitionLabel | None,
    ):
        self.state = state
        self.parent = parent
        self.label = label

    def trace(self) -> Trace:
        steps: list[TraceStep] = []
        node: _SearchNode | _UnrecordedParent | None = self
        while node is not None:
            if node is _UNRECORDED:
                raise AnalysisError(
                    "cannot build a trace: the exploration ran with "
                    "record_traces=False, so parent pointers were not kept; "
                    "re-run with SearchOptions(record_traces=True)"
                )
            steps.append(TraceStep(node.label, node.state))
            node = node.parent
        steps.reverse()
        return Trace(tuple(steps))


class _EvalSpec:
    """What a query entry point looks at in the stored states.

    Both loops evaluate the spec through :meth:`observe` on every stored
    state in scalar visit order -- the scalar loop directly, the layered
    core inside its partitions (the spec closes over bound formulas whose
    query constants the entry point registered before the exploration, so
    forked partitions inherit them).  Either loop then calls the entry
    point's ``visit`` once, on the goal or supremum state.
    """

    __slots__ = ("kind", "predicate", "clock_id", "condition")

    def __init__(self, kind, predicate=None, clock_id=None, condition=None):
        self.kind = kind  # "count", "goal" or "sup"
        self.predicate = predicate
        self.clock_id = clock_id
        self.condition = condition

    def observe(self, state: SymbolicState, best_raw) -> tuple[bool, int | None]:
        """Evaluate the query on *state*, the next stored state in visit order.

        Returns ``(goal, raw)``: *goal* when *state* ends a goal query, and
        *raw*, the state's raw upper bound on the sup clock, when it beats
        *best_raw* (the best bound so far, or None) -- strictly, so on ties
        the state visited first keeps the supremum; otherwise None.
        """
        if self.kind == "goal":
            return self.predicate(state), None
        if self.kind == "sup" and (
            self.condition is None or self.condition.possibly(state)
        ):
            raw = state.zone.upper_bound(self.clock_id)
            if best_raw is None or raw > best_raw:
                return False, raw
        return False, None


_COUNT = _EvalSpec("count")


class Explorer:
    """Forward zone-graph exploration over a compiled network."""

    def __init__(
        self,
        network: CompiledNetwork,
        semantics: SemanticsOptions | None = None,
        search: SearchOptions | None = None,
    ):
        self.network = network
        self.semantics = semantics or SemanticsOptions()
        self.search = search or SearchOptions()
        reductions = self.search.reductions
        # effective extrapolation: the reductions config upgrades "max" to
        # the per-clock LU grid, and recorded traces force the classical
        # grid back on (witness concretisation is specified against it);
        # "none" always stays "none" (docs/reductions.md, fallback table)
        mode = self.semantics.extrapolation
        if mode != "none":
            if self.search.record_traces:
                mode = "max" if mode == "lu" else mode
            elif reductions.lu_extrapolation:
                mode = "lu"
        if mode != self.semantics.extrapolation:
            self.semantics = replace(self.semantics, extrapolation=mode)
        self.generator = SuccessorGenerator(network, self.semantics)
        #: the verified replication symmetry in effect (None = folding
        #: inert): requires the config flag, a spec attached to the network
        #: and no trace recording -- a canonical trace is not a genuine run
        #: of the unfolded network
        self.symmetry = (
            network.symmetry
            if reductions.symmetry and not self.search.record_traces
            else None
        )
        self._lu_active = mode == "lu"

    # ------------------------------------------------------------------ core loop
    def explore(
        self,
        visit: Callable[[SymbolicState, "_SearchNode"], bool] | None = None,
        spec: _EvalSpec | None = None,
    ) -> ExplorationStatistics:
        """Run the exploration; the statistics record why it terminated.

        The query entry points pass a *spec*; *visit* is then called once,
        on the goal or supremum state.  Without a spec, *visit* is a raw
        callable called on every new symbolic state, and may return
        ``True`` to stop the search (goal found).

        A breadth-first exploration runs on the layered core, unless
        *visit* is a raw callable (the core cannot evaluate one).  Anything
        else runs the scalar loop.
        """
        layered = self._layered_spec(visit, spec)
        if layered is None:
            return self._explore_scalar(visit, spec)
        # imported here: the shard module builds on this one
        from repro.core.shard import explore_layered

        return explore_layered(self, layered, visit)

    def _layered_spec(self, visit, spec: _EvalSpec | None) -> _EvalSpec | None:
        """The spec the layered core runs with, or None for the scalar loop."""
        if self.search.order != "bfs":
            return None
        if spec is None:
            # a raw visit callable cannot be evaluated inside the core
            return None if visit is not None else _COUNT
        return spec

    def _deadline(self) -> float | None:
        """The absolute ``perf_counter`` instant the budgets stop at."""
        options = self.search
        deadline = (
            time.perf_counter() + options.max_seconds
            if options.max_seconds is not None else None
        )
        if options.deadline is not None:
            deadline = (
                options.deadline if deadline is None
                else min(deadline, options.deadline)
            )
        return deadline

    def _explore_scalar(
        self,
        visit: Callable[[SymbolicState, "_SearchNode"], bool] | None,
        spec: _EvalSpec | None = None,
    ) -> ExplorationStatistics:
        """The one-state-at-a-time loop (dfs, rdfs and the layered core's oracle).

        *visit* and *spec* mean what they mean for :meth:`explore`.
        """
        options = self.search
        #: with a spec: the best sup bound so far and the (state, node)
        #: *visit* is called on at the end
        best_raw = decisive = None

        def observe(state: SymbolicState, node: _SearchNode) -> bool:
            nonlocal best_raw, decisive
            if spec is None:
                return visit is not None and visit(state, node)
            goal, raw = spec.observe(state, best_raw)
            if goal or raw is not None:
                best_raw, decisive = raw, (state, node)
            return goal

        stats = ExplorationStatistics(search_order=options.order)
        stats.start_timer()
        rng = random.Random(options.seed)

        # the passed list is keyed by the *interned* discrete part (location
        # and variable vectors packed into one bytes object): bytes hash and
        # compare in C, unlike the nested int tuples they replace
        passed: dict[bytes, Federation] = {}
        waiting: deque[_SearchNode] = deque()
        record_traces = options.record_traces

        initial = self._canonical(self.generator.initial_state(), stats)
        root = _SearchNode(initial, None, None)
        self._store(passed, initial)
        stats.states_stored += 1
        waiting.append(root)
        stats.peak_waiting = 1

        if observe(initial, root):
            stats.termination = "goal"
            waiting.clear()

        deadline = self._deadline()
        max_states = options.max_states
        breadth_first = options.order == "bfs"
        randomised = options.order == "rdfs"
        generate = self.generator.successors

        while waiting:
            # budgets are checked *before* popping, so an exhausted budget
            # neither drops a pending node nor overshoots states_explored
            if max_states is not None and stats.states_explored >= max_states:
                stats.termination = "state-budget"
                break
            if deadline is not None and time.perf_counter() > deadline:
                stats.termination = "time-budget"
                break
            node = waiting.popleft() if breadth_first else waiting.pop()
            stats.states_explored += 1

            successors = generate(node.state, with_labels=record_traces, extrapolate=False)
            if randomised:
                rng.shuffle(successors)
            for label, successor in successors:
                stats.transitions += 1
                successor = self._canonical(successor, stats)
                if not self._store(passed, successor):
                    stats.inclusions += 1
                    if self._lu_active:
                        stats.states_subsumed_lu += 1
                    continue
                stats.states_stored += 1
                child = _SearchNode(
                    successor, node if record_traces else _UNRECORDED, label
                )
                if observe(successor, child):
                    stats.termination = "goal"
                    waiting.clear()
                    break
                waiting.append(child)
                if len(waiting) > stats.peak_waiting:
                    stats.peak_waiting = len(waiting)

        stats.stop_timer()
        if decisive is not None and visit is not None:
            visit(*decisive)
        return stats

    def _canonical(self, state: SymbolicState, stats: ExplorationStatistics) -> SymbolicState:
        """Fold *state* onto its symmetry-orbit representative (in place).

        Identity (the common case, memoised per discrete key) returns the
        state untouched; a genuine fold permutes the zone's clocks to follow
        the discrete relabelling and counts one ``keys_folded``.
        """
        spec = self.symmetry
        if spec is None:
            return state
        locations, variables, perm = spec.canonicalize(
            state.locations, state.variables, state.dkey
        )
        if perm is None:
            return state
        stats.keys_folded += 1
        permute_zones(state.zone.m2[None], perm)
        return SymbolicState(
            locations, variables, state.zone, pack_discrete(locations, variables)
        )

    def _store(self, passed: dict, state: SymbolicState) -> bool:
        """Insert into the passed list; False when an existing zone covers it.

        The passed list is keyed by the interned bytes form of the discrete
        state (precomputed by the successor plans).  The coverage check runs
        on the *raw* delay-closed zone; extrapolation is applied only to
        states that are actually kept.  The two decisions coincide: for
        canonical zones ``Z ⊆ W`` iff ``Extra(Z) ⊆ W`` whenever ``W`` is a
        stored (extrapolated, hence Extra-fixpoint) zone, because
        extrapolation is monotone, idempotent and extensive.  Skipping
        ``Extra`` (a full Floyd-Warshall re-closure) for every covered
        successor is one of the main wins of the exploration hot path.
        """
        key = state.discrete_bytes()
        federation = passed.get(key)
        if federation is None:
            federation = Federation(state.zone.dim)
            passed[key] = federation
        elif federation.covers(state.zone):
            return False
        self.generator.extrapolate(state.zone.m2[None])
        federation.add_uncovered(state.zone)
        return True

    # ------------------------------------------------------------------ queries
    def check(self, query: Query) -> ReachabilityResult:
        """Evaluate an :class:`EF` or :class:`AG` query."""
        if isinstance(query, EF):
            return self._check_ef(query)
        if isinstance(query, AG):
            return self._check_ag(query)
        raise ModelError(f"unsupported query {query!r}")

    def _run_query(
        self, spec: _EvalSpec
    ) -> tuple[ExplorationStatistics, _SearchNode | None]:
        """Explore for *spec*: the statistics and the goal or supremum node
        (None when no stored state qualified)."""
        nodes: list[_SearchNode] = []
        stats = self.explore(lambda _state, node: nodes.append(node), spec)
        return stats, (nodes[0] if nodes else None)

    def _check_ef(self, query: EF) -> ReachabilityResult:
        # query.bind registers the formula's clock constants with the
        # network; scope them to this run like _check_ag and sup do
        saved_constants = self.network.query_constants_snapshot()
        try:
            bound_formula = query.bind(self.network)
            stats, goal = self._run_query(_EvalSpec("goal", bound_formula.possibly))
            if goal is not None:
                return ReachabilityResult(
                    query, True, goal.trace() if self.search.record_traces else None, stats
                )
            holds: bool | None = False if stats.exhaustive else None
            return ReachabilityResult(query, holds, None, stats)
        finally:
            self.network.restore_query_constants(saved_constants)

    def _check_ag(self, query: AG) -> ReachabilityResult:
        bound_formula = BoundFormula(query.formula, self.network)
        # A[] φ is violated when ¬φ is possibly satisfied somewhere.
        negated = BoundFormula(query.formula.negate(), self.network)
        # clock constants mentioned by the property must be visible to the
        # extrapolation during *this* run only: scope them so that repeated
        # queries on one explorer do not coarsen each other's abstractions
        saved_constants = self.network.query_constants_snapshot()
        try:
            for clock, constant in negated.max_clock_constant().items():
                self.network.register_query_constant(clock, constant)
            for clock, constant in bound_formula.max_clock_constant().items():
                self.network.register_query_constant(clock, constant)
            stats, violation = self._run_query(_EvalSpec("goal", negated.possibly))
            if violation is not None:
                return ReachabilityResult(
                    query,
                    False,
                    violation.trace() if self.search.record_traces else None,
                    stats,
                )
            holds: bool | None = True if stats.exhaustive else None
            return ReachabilityResult(query, holds, None, stats)
        finally:
            self.network.restore_query_constants(saved_constants)

    def sup(self, query: Sup) -> SupResult:
        """Evaluate a :class:`Sup` query by a single exhaustive exploration.

        The query's ceiling and condition constants are registered with the
        network only for the duration of the run (scoped, like ``A[]``).
        """
        network = self.network
        clock_id = network.clock_id(query.clock)
        saved_constants = network.query_constants_snapshot()
        try:
            if query.ceiling is not None:
                network.register_query_constant(clock_id, int(query.ceiling))
            condition = (
                BoundFormula(query.condition, network) if query.condition is not None else None
            )
            if condition is not None:
                for clock, constant in condition.max_clock_constant().items():
                    network.register_query_constant(clock, constant)
            stats, best = self._run_query(
                _EvalSpec("sup", clock_id=clock_id, condition=condition)
            )
            if best is None:
                return SupResult(query, None, False, not stats.exhaustive, stats)
            best_raw = best.state.zone.upper_bound(clock_id)
            trace = best.trace() if self.search.record_traces else None

            value, strict = bound_as_tuple(best_raw)
            hit_ceiling = best_raw >= INFINITY_RAW or (
                query.ceiling is not None and value is not None and value >= query.ceiling
            )
            if value is None:
                # the bound was abstracted to infinity: report the ceiling as a
                # lower bound (mirrors the paper's "> x" entries)
                ceiling = (
                    query.ceiling if query.ceiling is not None
                    else network.max_constants[clock_id]
                )
                return SupResult(query, int(ceiling), False, True, stats, trace)
            return SupResult(
                query,
                int(value),
                not strict,
                bool(hit_ceiling or not stats.exhaustive),
                stats,
                trace,
            )
        finally:
            network.restore_query_constants(saved_constants)

    # ------------------------------------------------------------------ convenience
    def reachable_discrete_states(self) -> set[tuple]:
        """Explore fully and return the set of reachable discrete states.

        Always enumerates the *concrete* discrete space: symmetry folding is
        suspended for the duration of the call, so the result is independent
        of the active reduction config.
        """
        seen: set[tuple] = set()

        def visit(state: SymbolicState, _node: _SearchNode) -> bool:
            seen.add(state.discrete_key())
            return False

        saved_symmetry, self.symmetry = self.symmetry, None
        try:
            stats = self.explore(visit)
        finally:
            self.symmetry = saved_symmetry
        if not stats.exhaustive:
            raise AnalysisError(
                "exploration budget exhausted before the state space was covered"
            )
        return seen

    def count_states(self) -> ExplorationStatistics:
        """Explore fully (or until the budget) and return the statistics."""
        return self.explore(None)
