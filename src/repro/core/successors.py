"""Symbolic (zone-graph) semantics of a compiled network of timed automata.

A symbolic state is a triple ``(location vector, variable vector, zone)``
where the zone is a canonical DBM that is *delay-closed*: it contains every
clock valuation reachable from an entry valuation by letting time pass as far
as the invariants (and urgency) allow.  This is the standard UPPAAL
exploration representation.

:class:`SuccessorGenerator` produces, for a symbolic state, all discrete
successors together with :class:`TransitionLabel` records used for traces.
Supported synchronisation semantics:

* internal (``tau``) edges,
* binary channels: one sender and one receiver from different instances,
* broadcast channels: one sender plus *all* instances with an enabled
  receiving edge (receivers may not have clock guards),
* urgent channels: time may not elapse while a synchronisation on the channel
  is enabled (this implements the paper's ``hurry!`` greedy-behaviour trick),
* urgent and committed locations.

Performance
-----------
Everything that depends only on the *discrete* part of a state is memoised
per ``(locations, variables)`` key in a :class:`_DiscreteInfo` record: the
committed set, the urgency verdict, the evaluated invariant bounds, and the
full list of :class:`_Plan` firing combinations.  A plan carries the
*evaluated* guard bounds, the updated variable vector, the concrete reset
values and the target location vector -- all pure functions of the discrete
key -- so firing a plan against a zone is nothing but copy / constrain /
reset.  Zone graphs revisit the same discrete state with many different
zones, which makes these caches the difference between re-running the
compiled guard closures per transition and a handful of integer operations.

Transition labels are likewise built once per plan and only when the caller
records traces.  The extrapolation step can be deferred by the caller
(``extrapolate=False``): the reachability engine checks passed-list coverage
on the raw delay-closed zone first and extrapolates only the states it
actually keeps (the two decisions provably coincide, see
``Explorer._store``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from repro.core.dbm import DBM, INFINITY_RAW, LE_ZERO, DBMStack
from repro.core.network import CompiledEdge, CompiledNetwork
from repro.util.errors import ModelError

__all__ = [
    "SymbolicState",
    "TransitionLabel",
    "SuccessorGenerator",
    "SemanticsOptions",
    "BlockFire",
]


def pack_discrete(locations: tuple[int, ...], variables: tuple[int, ...]) -> bytes:
    """Pack a discrete state into the flat bytes key used by passed lists.

    The single canonical packing: :class:`SymbolicState` and the successor
    plans must agree on it, or identical discrete states would hash to
    different federations.
    """
    return array("q", locations + variables).tobytes()


@dataclass(frozen=True)
class SymbolicState:
    """A symbolic state of the zone graph."""

    locations: tuple[int, ...]
    variables: tuple[int, ...]
    zone: DBM
    #: interned bytes form of the discrete part, precomputed by the successor
    #: generator's plans (None when the state was built by hand)
    dkey: bytes | None = field(default=None, compare=False, repr=False)

    def discrete_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The discrete part, used to index the passed/waiting lists."""
        return (self.locations, self.variables)

    def discrete_bytes(self) -> bytes:
        """The discrete part packed into one flat bytes key (interned form)."""
        return self.dkey or pack_discrete(self.locations, self.variables)

    def key(self) -> tuple:
        """A full hashable key including the zone."""
        return (self.locations, self.variables, self.zone.key())

    def describe(self, network: CompiledNetwork) -> str:
        """Human-readable one-line description."""
        locations = ", ".join(network.location_vector_names(self.locations))
        variables = ", ".join(
            f"{name}={value}"
            for name, value in zip(network.variable_names, self.variables)
            if value != 0
        )
        return f"<{locations}> {{{variables}}} {self.zone}"


@dataclass(frozen=True)
class TransitionLabel:
    """Description of the discrete transition taken between symbolic states.

    ``edges`` stores (instance name, edge object) pairs; the human-readable
    rendering is produced lazily by :meth:`__str__` so that label creation in
    the exploration inner loop stays cheap.
    """

    kind: str  # "internal" | "binary" | "broadcast"
    channel: str | None
    edges: tuple[tuple[str, object], ...]  # (instance name, Edge)

    def __str__(self) -> str:
        if self.kind == "internal":
            instance, edge = self.edges[0]
            return f"{instance}: {edge}"
        participants = "; ".join(f"{instance}: {edge}" for instance, edge in self.edges)
        return f"[{self.channel}] {participants}"


@dataclass
class SemanticsOptions:
    """Options controlling the symbolic semantics.

    extrapolation
        ``"max"`` (classical per-clock maximal-constant extrapolation,
        default), ``"lu"`` (per-clock lower/upper bound extrapolation
        Extra_LU over the compiled network's ``lu_bounds``; coarser wherever
        a clock is only ever bounded from one side, e.g. sporadic event
        models -- see ``docs/reductions.md``), or ``"none"`` (termination is
        then only guaranteed for models whose zone graph is finite without
        abstraction).
    check_ranges
        verify after every update that integer variables stay inside their
        declared domains (UPPAAL run-time semantics).
    """

    extrapolation: str = "max"
    check_ranges: bool = True

    def __post_init__(self):
        if self.extrapolation not in ("max", "lu", "none"):
            raise ModelError(f"unknown extrapolation mode {self.extrapolation!r}")


class _Plan:
    """One fireable edge combination of a discrete state, fully evaluated.

    Everything except the clock work is resolved at construction: the guard
    bounds are concrete raw DBM constraints, the variable updates have been
    applied, the reset values computed and the target locations determined.
    ``error`` carries a deferred evaluation error (range violation, or any
    exception a guard/update/reset expression raised): it is raised only
    when the plan's evaluated clock guards are actually satisfiable,
    mirroring the run-time semantics of the unmemoised implementation.
    """

    __slots__ = ("kind", "channel", "participants", "guards", "resets",
                 "locations", "variables", "key_bytes", "error")

    def __init__(self, kind, channel, participants, guards, resets, locations, variables, error):
        self.kind = kind
        self.channel = channel
        self.participants = participants
        #: evaluated clock guards as raw (i, j, bound) triples
        self.guards: tuple[tuple[int, int, int], ...] = guards
        #: evaluated resets as (clock, value) pairs
        self.resets: tuple[tuple[int, int], ...] = resets
        #: target location vector
        self.locations: tuple[int, ...] = locations
        #: updated variable vector
        self.variables: tuple[int, ...] = variables
        #: interned passed-list key of the target discrete state
        self.key_bytes: bytes = pack_discrete(locations, variables)
        #: deferred evaluation error (raised when the guards pass)
        self.error: Exception | None = error


class _DiscreteInfo:
    """Memoised discrete-only facts about one ``(locations, variables)`` key.

    ``plans`` and ``labels`` are filled lazily: urgency and the invariant
    bounds are needed for every state that merely gets *stored*, while plans
    are only needed when a state is actually *expanded*, and labels only when
    traces are recorded.
    """

    __slots__ = ("urgent", "committed", "invariants", "upper_pairs",
                 "upper_clocks", "upper_raws", "other_invariants", "plans", "labels")

    def __init__(self, urgent: bool, committed: frozenset[int],
                 invariants: tuple[tuple[int, int, int], ...]):
        self.urgent = urgent
        self.committed = committed
        #: evaluated invariant constraints as raw (i, j, bound) triples
        self.invariants = invariants
        # split for the post-delay re-application: plain upper bounds
        # (j == 0) go through the batched DBM kernel, the rest (difference
        # or lower-bound invariants, rare) through per-constraint closure
        self.upper_pairs = [(i, raw) for i, j, raw in invariants if j == 0]
        self.upper_clocks = np.array([i for i, _ in self.upper_pairs], dtype=np.int64)
        self.upper_raws = np.array([raw for _, raw in self.upper_pairs], dtype=np.int64)
        self.other_invariants = tuple(t for t in invariants if t[1] != 0)
        self.plans: tuple[_Plan, ...] | None = None
        self.labels: list[TransitionLabel | None] | None = None


class BlockFire:
    """One plan fired against a whole block of same-discrete-key states.

    Produced by :meth:`SuccessorGenerator.block_successors`.  ``stack`` holds
    the surviving delay-closed (not yet extrapolated) successor zones, one
    layer per entry of ``node_indices`` (positions within the input block).
    When the plan carries a deferred evaluation error, ``stack`` is ``None``
    and ``node_indices`` lists the block positions whose guards passed --
    expanding any of those states must re-raise ``error``, mirroring the
    scalar generator.
    """

    __slots__ = ("plan", "plan_index", "stack", "node_indices", "error")

    def __init__(self, plan: _Plan, plan_index: int, stack: DBMStack | None,
                 node_indices: np.ndarray, error: Exception | None):
        self.plan = plan
        self.plan_index = plan_index
        self.stack = stack
        self.node_indices = node_indices
        self.error = error


class SuccessorGenerator:
    """Computes initial and successor symbolic states of a compiled network."""

    def __init__(self, network: CompiledNetwork, options: SemanticsOptions | None = None):
        self.network = network
        self.options = options or SemanticsOptions()
        self._build_edge_tables()
        #: discrete memo: (locations, variables) -> _DiscreteInfo
        self._discrete: dict[tuple[tuple[int, ...], tuple[int, ...]], _DiscreteInfo] = {}
        #: flattened invariant constraint objects per location vector
        self._invariant_constraints: dict[tuple[int, ...], tuple] = {}
        #: cached raw extrapolation grids, keyed by the network bounds version
        self._extra_version: int = -1
        self._extra_grids = None

    # ------------------------------------------------------------------ setup
    def _build_edge_tables(self) -> None:
        """Pre-sort outgoing edges of every location by synchronisation role."""
        net = self.network
        # internal[i][l]  -> list of edges
        # send[i][l]      -> {channel: [edges]}
        # recv[i][l]      -> {channel: [edges]}
        self._internal: list[list[list[CompiledEdge]]] = []
        self._send: list[list[dict[str, list[CompiledEdge]]]] = []
        self._recv: list[list[dict[str, list[CompiledEdge]]]] = []
        for instance in net.instances:
            internal_rows, send_rows, recv_rows = [], [], []
            for edges in instance.outgoing:
                internal, send, recv = [], {}, {}
                for edge in edges:
                    if edge.channel is None:
                        internal.append(edge)
                    elif edge.direction == "!":
                        send.setdefault(edge.channel.name, []).append(edge)
                    else:
                        recv.setdefault(edge.channel.name, []).append(edge)
                internal_rows.append(internal)
                send_rows.append(send)
                recv_rows.append(recv)
            self._internal.append(internal_rows)
            self._send.append(send_rows)
            self._recv.append(recv_rows)

    # ------------------------------------------------------------- basic helpers
    def _max_bounds(self) -> list[int]:
        return self.network.max_constants

    def _extrapolation_vectors(self):
        """Raw threshold grids for the current network bounds (cached).

        In ``"max"`` mode the classical maximal constants feed both grid
        sides.  In ``"lu"`` mode the network's per-clock lower bounds drive
        the raises and its upper bounds the relaxations (Extra_LU), which is
        strictly coarser wherever a clock is only ever compared against a
        constant from one side (``docs/reductions.md``).
        """
        version = self.network.max_constants_version
        if version != self._extra_version:
            from repro.core.dbm import _extrapolation_grids

            if self.options.extrapolation == "lu":
                lower, upper = self.network.lu_bounds
                self._extra_grids = _extrapolation_grids(tuple(lower), tuple(upper))
            else:
                bounds = tuple(self.network.max_constants)
                self._extra_grids = _extrapolation_grids(bounds, bounds)
            self._extra_version = version
        return self._extra_grids

    def extrapolate(self, zone: DBM) -> DBM:
        """Apply the configured extrapolation to *zone* in place."""
        if self.options.extrapolation != "none":
            upper_grid, lower_grid = self._extrapolation_vectors()
            zone._extrapolate_raw(upper_grid, lower_grid)
        return zone

    @staticmethod
    def _evaluate_constraints(
        constraints: Iterable, variables: Sequence[int]
    ) -> tuple[tuple[int, int, int], ...]:
        """Evaluate compiled clock constraints into raw (i, j, bound) triples."""
        return tuple(
            (
                c.i,
                c.j,
                2 * (c.sign * int(c.rhs(variables))) + (0 if c.strict else 1),
            )
            for c in constraints
        )

    def _apply_constraints(
        self, zone: DBM, constraints: Iterable, variables: Sequence[int]
    ) -> bool:
        """Conjoin compiled clock constraints; returns False when empty."""
        for i, j, raw in self._evaluate_constraints(constraints, variables):
            if not zone.constrain(i, j, raw):
                return False
        return True

    def _invariant_constraints_for(self, locations: tuple[int, ...]) -> tuple:
        """Flattened invariant constraint objects of a location vector (cached)."""
        cached = self._invariant_constraints.get(locations)
        if cached is None:
            collected: list = []
            for instance, loc in zip(self.network.instances, locations):
                collected.extend(instance.locations[loc].invariant)
            cached = tuple(collected)
            self._invariant_constraints[locations] = cached
        return cached

    def _apply_invariants(
        self, zone: DBM, locations: Sequence[int], variables: Sequence[int]
    ) -> bool:
        constraints = self._invariant_constraints_for(tuple(locations))
        return self._apply_constraints(zone, constraints, variables)

    def _is_urgent_discrete(self, locations: Sequence[int], variables: Sequence[int]) -> bool:
        """True when time may not elapse in this discrete state.

        Time is frozen when (i) some instance is in an urgent or committed
        location, or (ii) a synchronisation over an urgent channel is enabled
        (judged on data guards only -- clock guards are disallowed on urgent
        channels).
        """
        net = self.network
        for instance, loc in zip(net.instances, locations):
            location = instance.locations[loc]
            if location.urgent or location.committed:
                return True
        # urgent channel synchronisations
        for i, instance in enumerate(net.instances):
            send_table = self._send[i][locations[i]]
            for channel_name, edges in send_table.items():
                channel = net.channels[channel_name]
                if not channel.urgent:
                    continue
                if not any(edge.data_enabled(variables) for edge in edges):
                    continue
                if channel.kind == "broadcast":
                    return True  # broadcast senders never block
                # binary: need an enabled receiver in another instance
                for j, other in enumerate(net.instances):
                    if i == j:
                        continue
                    recv_edges = self._recv[j][locations[j]].get(channel_name, ())
                    if any(edge.data_enabled(variables) for edge in recv_edges):
                        return True
        return False

    def _committed_instances(self, locations: Sequence[int]) -> set[int]:
        out = set()
        for idx, (instance, loc) in enumerate(zip(self.network.instances, locations)):
            if instance.locations[loc].committed:
                out.add(idx)
        return out

    # ------------------------------------------------------------- discrete memo
    def _discrete_info(
        self, locations: tuple[int, ...], variables: tuple[int, ...]
    ) -> _DiscreteInfo:
        key = (locations, variables)
        info = self._discrete.get(key)
        if info is None:
            info = _DiscreteInfo(
                urgent=self._is_urgent_discrete(locations, variables),
                committed=frozenset(self._committed_instances(locations)),
                invariants=self._evaluate_constraints(
                    self._invariant_constraints_for(locations), variables
                ),
            )
            self._discrete[key] = info
        return info

    def _make_plan(
        self,
        kind: str,
        channel: str | None,
        participants: tuple[CompiledEdge, ...],
        source_locations: tuple[int, ...],
        variables: tuple[int, ...],
    ) -> _Plan:
        """Evaluate the discrete half of firing *participants* once.

        Evaluation errors (range violations, but also anything a guard,
        update or reset expression raises) are *deferred*: the unmemoised
        engine evaluated these lazily per fire and never reached them when
        an earlier clock guard was unsatisfiable, so the plan records the
        first error together with the guards evaluated before it, and
        :meth:`_fire` re-raises only when those guards actually pass.
        """
        net = self.network
        guards: list[tuple[int, int, int]] = []
        resets: list[tuple[int, int]] = []
        new_variables = variables
        error: Exception | None = None
        try:
            for edge in participants:
                guards.extend(self._evaluate_constraints(edge.clock_constraints, variables))
            # variable updates, sender first then receivers (list order)
            for edge in participants:
                if edge.update is not None:
                    new_variables = edge.update(new_variables)
            if self.options.check_ranges and new_variables is not variables:
                net.check_variable_ranges(new_variables)
            # clock resets (reset values are evaluated on the updated variables)
            for edge in participants:
                for clock, value_fn in edge.resets:
                    resets.append((clock, int(value_fn(new_variables))))
        except Exception as exc:
            error = exc

        new_locations = list(source_locations)
        for edge in participants:
            new_locations[edge.instance] = edge.target

        return _Plan(
            kind,
            channel,
            participants,
            tuple(guards),
            tuple(resets),
            tuple(new_locations),
            tuple(new_variables),
            error,
        )

    def _build_plans(
        self, info: _DiscreteInfo, locations: tuple[int, ...], variables: tuple[int, ...]
    ) -> None:
        """Enumerate the data-enabled, committedness-respecting firing plans.

        The enumeration order matches per-state generation so that search
        orders (and hence traces and rdfs runs) are unchanged.
        """
        net = self.network
        committed = info.committed
        plans: list[_Plan] = []

        def allowed(edges: Sequence[CompiledEdge]) -> bool:
            """Committed-location filter."""
            if not committed:
                return True
            return any(edge.instance in committed for edge in edges)

        def plan(kind: str, channel: str | None, participants: tuple[CompiledEdge, ...]) -> None:
            plans.append(self._make_plan(kind, channel, participants, locations, variables))

        # ---- internal edges -------------------------------------------------
        for i, instance in enumerate(net.instances):
            for edge in self._internal[i][locations[i]]:
                if not edge.data_enabled(variables):
                    continue
                if not allowed((edge,)):
                    continue
                plan("internal", None, (edge,))

        # ---- synchronisations ------------------------------------------------
        for i, instance in enumerate(net.instances):
            send_table = self._send[i][locations[i]]
            for channel_name, send_edges in send_table.items():
                channel = net.channels[channel_name]
                for send_edge in send_edges:
                    if not send_edge.data_enabled(variables):
                        continue
                    if channel.kind == "binary":
                        for j, other in enumerate(net.instances):
                            if i == j:
                                continue
                            for recv_edge in self._recv[j][locations[j]].get(channel_name, ()):
                                if not recv_edge.data_enabled(variables):
                                    continue
                                pair = (send_edge, recv_edge)
                                if not allowed(pair):
                                    continue
                                plan("binary", channel_name, pair)
                    else:  # broadcast
                        receiver_choices: list[list[CompiledEdge]] = []
                        for j, other in enumerate(net.instances):
                            if i == j:
                                continue
                            enabled = [
                                edge
                                for edge in self._recv[j][locations[j]].get(channel_name, ())
                                if edge.data_enabled(variables)
                            ]
                            if enabled:
                                receiver_choices.append(enabled)
                        for combination in product(*receiver_choices) if receiver_choices else [()]:
                            participants = (send_edge, *combination)
                            if not allowed(participants):
                                continue
                            plan("broadcast", channel_name, participants)

        info.plans = tuple(plans)
        info.labels = [None] * len(plans)

    def _plan_label(self, info: _DiscreteInfo, index: int) -> TransitionLabel:
        label = info.labels[index]
        if label is None:
            plan = info.plans[index]
            label = self._label(plan.kind, plan.channel, plan.participants)
            info.labels[index] = label
        return label

    def _finalize(
        self,
        locations: tuple[int, ...],
        variables: tuple[int, ...],
        zone: DBM,
        extrapolate: bool,
        dkey: bytes | None = None,
    ) -> SymbolicState | None:
        """Apply invariants and, unless urgent, the delay closure.

        Takes ownership of *zone*.  With ``extrapolate=False`` the caller
        is expected to run :meth:`extrapolate` on the zones it keeps.
        """
        info = self._discrete_info(locations, variables)
        m, dim = zone.m, zone.dim
        for i, j, raw in info.invariants:
            # cheap no-op filter: the fired zone usually satisfies the target
            # invariants already (constrain would re-check and return True)
            if raw < m[i * dim + j] and not zone.constrain(i, j, raw):
                return None
        if not info.urgent:
            # ``up`` preserves the canonical form; the upper-bound invariants
            # it loosened are re-imposed in one batched exact re-closure,
            # difference/lower-bound invariants (rare) close incrementally
            zone.up()
            if not zone.impose_upper_bounds(info.upper_clocks, info.upper_raws, info.upper_pairs):
                return None
            for i, j, raw in info.other_invariants:
                if not zone.constrain(i, j, raw):
                    return None
        if extrapolate:
            self.extrapolate(zone)
        return SymbolicState(locations, variables, zone, dkey)

    # --------------------------------------------------------------- initial state
    def initial_state(self) -> SymbolicState:
        """The delay-closed, extrapolated initial symbolic state."""
        net = self.network
        locations = net.initial_locations()
        variables = net.initial_variables
        zone = DBM.zero(net.dim)
        state = self._finalize(locations, variables, zone, extrapolate=True)
        if state is None:
            raise ModelError(
                "the initial state violates an invariant; the model admits no behaviour"
            )
        return state

    # ----------------------------------------------------------------- transitions
    def _fire(self, state: SymbolicState, plan: _Plan, extrapolate: bool) -> SymbolicState | None:
        """Fire a prepared plan: pure clock work against the state's zone."""
        source = state.zone
        m0, dim = source.m, source.dim
        # reject infeasible fires before paying for a zone copy: a guard bound
        # that forms a negative cycle with the stored opposite bound can never
        # be satisfied (and for a canonical zone this check is exact per guard);
        # inlined add_raw -- guard bounds are always finite
        for i, j, raw in plan.guards:
            opposite = m0[j * dim + i]
            if opposite < INFINITY_RAW and raw + opposite - ((raw | opposite) & 1) < LE_ZERO:
                return None
        zone = source.copy()
        for i, j, raw in plan.guards:
            if not zone.constrain(i, j, raw):
                return None
        if plan.error is not None:
            # reset the cached instance's traceback so repeated fires do not
            # accumulate frames from earlier raises
            raise plan.error.with_traceback(None)
        for clock, value in plan.resets:
            zone.reset(clock, value)
        return self._finalize(plan.locations, plan.variables, zone, extrapolate, plan.key_bytes)

    def _label(
        self, kind: str, channel: str | None, edges: Sequence[CompiledEdge]
    ) -> TransitionLabel:
        net = self.network
        return TransitionLabel(
            kind=kind,
            channel=channel,
            edges=tuple((net.instances[edge.instance].name, edge.original) for edge in edges),
        )

    def plan_info(self, state: SymbolicState) -> _DiscreteInfo:
        """The memoised discrete info of *state* with its plan list built."""
        info = self._discrete_info(state.locations, state.variables)
        if info.plans is None:
            self._build_plans(info, state.locations, state.variables)
        return info

    def successors(
        self,
        state: SymbolicState,
        with_labels: bool = True,
        extrapolate: bool = True,
        plan_indices: Sequence[int] | None = None,
    ) -> list[tuple[TransitionLabel | None, SymbolicState]]:
        """All discrete successors of *state* (each already delay-closed).

        With ``with_labels=False`` the label slot of every pair is ``None``;
        callers that do not record traces skip label construction entirely.
        With ``extrapolate=False`` the returned zones are *not* extrapolated
        yet -- the reachability engine uses this to extrapolate only the
        states that survive its inclusion check.  ``plan_indices`` restricts
        firing to the given plan positions: the layered core replays witness
        plan chains this way.
        """
        info = self.plan_info(state)
        results: list[tuple[TransitionLabel | None, SymbolicState]] = []
        indices = range(len(info.plans)) if plan_indices is None else plan_indices
        for index in indices:
            successor = self._fire(state, info.plans[index], extrapolate)
            if successor is None:
                continue
            label = self._plan_label(info, index) if with_labels else None
            results.append((label, successor))
        return results

    # ------------------------------------------------------------- block firing
    def extrapolate_stack(self, stack: DBMStack) -> DBMStack:
        """Batched :meth:`extrapolate` over a whole zone stack, in place."""
        if self.options.extrapolation != "none":
            upper_grid, lower_grid = self._extrapolation_vectors()
            stack.extrapolate(upper_grid, lower_grid)
        return stack

    def block_successors(
        self, states: Sequence[SymbolicState]
    ) -> tuple[_DiscreteInfo, list[BlockFire]]:
        """Fire every plan against a block of states sharing one discrete key.

        All *states* must have identical ``(locations, variables)`` -- the
        layered core groups each round's frontier by key -- so they share
        the memoised plan list, and each plan's clock work (guards, resets,
        target invariants, delay closure) runs as stacked whole-block numpy
        kernels instead of one zone at a time.  Per fired plan the result
        lists the surviving block positions and their delay-closed zones;
        extrapolation is deferred exactly like ``successors(...,
        extrapolate=False)`` (the engine extrapolates only the states it
        keeps, via :meth:`extrapolate_stack`).

        The per-layer results are bit-identical to firing the scalar
        pipeline on each state: every batched kernel matches its scalar
        counterpart element-wise, and layers whose zone dies anywhere along
        the pipeline are dropped just like the scalar ``None`` returns.
        """
        first = states[0]
        info = self._discrete_info(first.locations, first.variables)
        if info.plans is None:
            self._build_plans(info, first.locations, first.variables)
        fires: list[BlockFire] = []
        if not info.plans:
            return info, fires
        if len(states) == 1:
            # one layer: the scalar pipeline is several times cheaper than
            # the stacked kernels' fixed dispatch cost, and bit-identical.
            # 39% of the groups on the fuzz-window benchmark are single
            # (17% on sp-exact); firing them stacked made fuzz-window 13%
            # and serve-analyze 6% slower in wall time (3 runs each)
            state = states[0]
            only = np.zeros(1, dtype=np.intp)
            for index, plan in enumerate(info.plans):
                try:
                    successor = self._fire(state, plan, extrapolate=False)
                except Exception as exc:
                    if exc is not plan.error:
                        raise
                    fires.append(BlockFire(plan, index, None, only, plan.error))
                    continue
                if successor is not None:
                    stack = DBMStack.wrap(successor.zone.m2[None])
                    fires.append(BlockFire(plan, index, stack, only, None))
            return info, fires
        all_indices = np.arange(len(states), dtype=np.intp)
        source = DBMStack.from_zones([s.zone for s in states])
        for index, plan in enumerate(info.plans):
            # reject infeasible fires before paying for the stack copy (the
            # batched form of the scalar negative-cycle precheck)
            indices = all_indices
            feasible: np.ndarray | None = None
            for i, j, raw in plan.guards:
                mask = source.guard_feasible(i, j, raw)
                feasible = mask if feasible is None else (feasible & mask)
            if feasible is not None and not feasible.all():
                local = np.flatnonzero(feasible)
                if not len(local):
                    continue
                indices = all_indices[local]
                work = source.compress(local)
            else:
                work = source.copy()
            for i, j, raw in plan.guards:
                work.constrain(i, j, raw)
            alive = ~work.empties()
            if plan.error is not None:
                # deferred evaluation error: fires whose guards pass must
                # re-raise when their state is expanded (scalar semantics)
                passing = np.flatnonzero(alive)
                if len(passing):
                    fires.append(BlockFire(plan, index, None, indices[passing], plan.error))
                continue
            if not alive.all():
                survivors = np.flatnonzero(alive)
                if not len(survivors):
                    continue
                work = work.compress(survivors)
                indices = indices[survivors]
            for clock, value in plan.resets:
                work.reset(clock, value)
            # target invariants + delay closure (the batched _finalize)
            target = self._discrete_info(plan.locations, plan.variables)
            for i, j, raw in target.invariants:
                # cheap no-op filter, matching the scalar pipeline
                if (raw < work.a[:, i, j]).any():
                    work.constrain(i, j, raw)
            if not target.urgent:
                work.up()
                work.impose_upper_bounds(target.upper_clocks, target.upper_raws)
                for i, j, raw in target.other_invariants:
                    work.constrain(i, j, raw)
            alive = ~work.empties()
            if not alive.all():
                survivors = np.flatnonzero(alive)
                if not len(survivors):
                    continue
                work = work.compress(survivors)
                indices = indices[survivors]
            fires.append(BlockFire(plan, index, work, indices, None))
        return info, fires
