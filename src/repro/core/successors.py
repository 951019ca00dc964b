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
key -- so firing a plan is nothing but copy / constrain / reset / delay on
zones.  Zone graphs revisit the same discrete state with many different
zones, which makes these caches the difference between re-running the
compiled guard closures per transition and a handful of integer operations.

Firing
------
One routine fires plans, :meth:`SuccessorGenerator._fire_plans`.  It takes
the source zones as one ``(count, dim, dim)`` int64 array -- a single state
is a stack of one, ``state.zone.m2[None]`` -- and runs guard, reset,
target invariant and delay as stack kernels of :mod:`repro.core.kernels`,
following the live-layer count they return and dropping dead layers only
when the count fell.  :meth:`~SuccessorGenerator.successors` (the scalar
loop, witness replay) and :meth:`~SuccessorGenerator.block_successors` (the
layered core's same-key groups) both call it, so the two engines fire
through the same code.

Transition labels are built once per plan and only when the caller records
traces.  The extrapolation step can be deferred by the caller
(``extrapolate=False``): the reachability engine checks passed-list coverage
on the raw delay-closed zone first and extrapolates only the states it
actually keeps (the two decisions provably coincide, see
``Explorer._store``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core import kernels
from repro.core.dbm import DBM, INFINITY_RAW, LE_ZERO, _extrapolation_grids
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

    __slots__ = ("kind", "channel", "participants", "guards", "guard_rows", "resets",
                 "locations", "variables", "key_bytes", "error")

    def __init__(self, kind, channel, participants, guards, resets, locations, variables, error):
        self.kind = kind
        self.channel = channel
        self.participants = participants
        #: evaluated clock guards as raw (i, j, bound) triples
        self.guards: tuple[tuple[int, int, int], ...] = guards
        #: the same guards as constraint rows for the kernels
        self.guard_rows = kernels.constraint_rows(guards)
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

    __slots__ = ("urgent", "committed", "invariants", "invariant_rows", "upper_clocks",
                 "upper_raws", "other_rows", "plans", "labels")

    def __init__(self, urgent: bool, committed: frozenset[int],
                 invariants: tuple[tuple[int, int, int], ...]):
        self.urgent = urgent
        self.committed = committed
        #: evaluated invariant constraints as raw (i, j, bound) triples, and
        #: as constraint rows for the kernels
        self.invariants = invariants
        self.invariant_rows = kernels.constraint_rows(invariants)
        # split for the post-delay re-application: plain upper bounds
        # (j == 0) go through one impose_upper_bounds kernel call, the rest
        # (difference invariants, rare) through the constrain kernel
        uppers = [(i, raw) for i, j, raw in invariants if j == 0]
        self.upper_clocks = np.array([i for i, _ in uppers], dtype=np.int64)
        self.upper_raws = np.array([raw for _, raw in uppers], dtype=np.int64)
        self.other_rows = kernels.constraint_rows(t for t in invariants if t[1] != 0)
        self.plans: tuple[_Plan, ...] | None = None
        self.labels: list[TransitionLabel | None] | None = None


class BlockFire:
    """One plan fired against a whole block of same-discrete-key states.

    Produced by :meth:`SuccessorGenerator.block_successors`.  ``zones`` is
    the ``(len(node_indices), dim, dim)`` array of the surviving
    delay-closed (not yet extrapolated) successor zones, one layer per entry
    of ``node_indices`` (layers of the input block).  When the plan
    carries a deferred evaluation error, ``zones`` is ``None`` and
    ``node_indices`` lists the block layers whose guards passed --
    expanding any of those states must re-raise ``error``, as
    :meth:`SuccessorGenerator.successors` does.
    """

    __slots__ = ("plan", "plan_index", "zones", "node_indices", "error")

    def __init__(self, plan: _Plan, plan_index: int, zones: np.ndarray | None,
                 node_indices: np.ndarray, error: Exception | None):
        self.plan = plan
        self.plan_index = plan_index
        self.zones = zones
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
            if self.options.extrapolation == "lu":
                lower, upper = self.network.lu_bounds
                self._extra_grids = _extrapolation_grids(tuple(lower), tuple(upper))
            else:
                bounds = tuple(self.network.max_constants)
                self._extra_grids = _extrapolation_grids(bounds, bounds)
            self._extra_version = version
        return self._extra_grids

    def extrapolate(self, zones: np.ndarray) -> np.ndarray:
        """Apply the configured extrapolation in place to every zone of the
        ``(count, dim, dim)`` array *zones* (a state's zone: ``zone.m2[None]``)."""
        if self.options.extrapolation != "none":
            upper_grid, lower_grid = self._extrapolation_vectors()
            kernels.extrapolate_stack(zones, upper_grid, lower_grid)
        return zones

    def extrapolate_stack(self, stack):
        """Retired: :meth:`extrapolate` takes zone arrays.

        The benchmark's span tracer (``perfbench/tracing.py``) still names
        this method as a target and its harness test resolves every target,
        so the name stays until the benchmark next changes (ROADMAP, "Mend
        the benchmark texts").  Nothing calls it.
        """
        raise ModelError("extrapolate_stack is retired: call extrapolate(zones)")

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
        :meth:`_fire_plans` reports it only when those guards actually pass.
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

    # --------------------------------------------------------------- firing
    @staticmethod
    def _settle(zones: np.ndarray, info: _DiscreteInfo) -> int:
        """Impose the invariants of *info* on the live layers *zones* and,
        unless time is frozen there, let time pass under them; returns the
        live layer count.

        ``up`` keeps the canonical form, and the upper-bound invariants it
        loosened come back in one exact re-closure.
        """
        live = len(zones)
        if info.invariant_rows:
            live = kernels.constrain_stack(zones, info.invariant_rows)
        if not info.urgent:
            zones[:, 1:, 0] = INFINITY_RAW  # up: drop every upper bound
            if len(info.upper_clocks):
                live = kernels.impose_upper_bounds_stack(zones, info.upper_clocks, info.upper_raws)
            if info.other_rows:
                live = kernels.constrain_stack(zones, info.other_rows)
        return live

    def _fire_plans(
        self, info: _DiscreteInfo, source: np.ndarray, plan_indices: Iterable[int] | None = None
    ) -> Iterator[BlockFire]:
        """Fire the plans of *info* against the ``(count, dim, dim)`` zones *source*.

        Yields one :class:`BlockFire` per plan (every plan, or those at
        *plan_indices*) that leaves a live layer, in plan order; *source*
        is not modified.  Each plan runs guard, reset, target invariant and
        delay on a copy of *source* as stack kernels, which skip dead layers
        and return the live count; the array is compressed only when that
        count fell.  The zones are left unextrapolated.
        """
        count = len(source)
        everyone = np.arange(count, dtype=np.intp)
        plans = info.plans
        for index in range(len(plans)) if plan_indices is None else plan_indices:
            plan = plans[index]
            zones = source.copy()
            live = count
            if plan.guard_rows:
                live = kernels.constrain_stack(zones, plan.guard_rows)
                if not live:
                    continue
            nodes = everyone
            if live < count:
                nodes = np.flatnonzero(zones[:, 0, 0] >= LE_ZERO)
            if plan.error is not None:
                # deferred evaluation error: expanding a state whose guards
                # passed must raise it
                yield BlockFire(plan, index, None, nodes, plan.error)
                continue
            if live < count:
                zones = zones[nodes]
            for clock, value in plan.resets:
                kernels.reset_stack(zones, clock, value)
            kept = self._settle(zones, self._discrete_info(plan.locations, plan.variables))
            if not kept:
                continue
            if kept < live:
                alive = np.flatnonzero(zones[:, 0, 0] >= LE_ZERO)
                zones, nodes = zones[alive], nodes[alive]
            yield BlockFire(plan, index, zones, nodes, None)

    # --------------------------------------------------------------- initial state
    def initial_state(self) -> SymbolicState:
        """The delay-closed, extrapolated initial symbolic state."""
        net = self.network
        locations = net.initial_locations()
        variables = net.initial_variables
        zones = np.full((1, net.dim, net.dim), LE_ZERO, dtype=np.int64)  # all clocks 0
        if not self._settle(zones, self._discrete_info(locations, variables)):
            raise ModelError(
                "the initial state violates an invariant; the model admits no behaviour"
            )
        self.extrapolate(zones)
        return SymbolicState(locations, variables, DBM._wrap(net.dim, zones.reshape(-1)))

    # ----------------------------------------------------------------- transitions
    def _label(
        self, kind: str, channel: str | None, edges: Sequence[CompiledEdge]
    ) -> TransitionLabel:
        net = self.network
        return TransitionLabel(
            kind=kind,
            channel=channel,
            edges=tuple((net.instances[edge.instance].name, edge.original) for edge in edges),
        )

    def plan_info(self, locations: tuple[int, ...], variables: tuple[int, ...]) -> _DiscreteInfo:
        """The memoised discrete info of ``(locations, variables)`` with its
        plan list built."""
        info = self._discrete_info(locations, variables)
        if info.plans is None:
            self._build_plans(info, locations, variables)
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
        plan chains this way.  A plan with a deferred evaluation error raises
        it when its guards pass, before any later plan is fired.
        """
        info = self.plan_info(state.locations, state.variables)
        dim = state.zone.dim
        results: list[tuple[TransitionLabel | None, SymbolicState]] = []
        for fire in self._fire_plans(info, state.zone.m2[None], plan_indices):
            if fire.error is not None:
                # reset the cached instance's traceback so repeated fires do
                # not accumulate frames from earlier raises
                raise fire.error.with_traceback(None)
            if extrapolate:
                self.extrapolate(fire.zones)
            plan = fire.plan
            zone = DBM._wrap(dim, fire.zones.reshape(-1))
            label = self._plan_label(info, fire.plan_index) if with_labels else None
            results.append((label, SymbolicState(plan.locations, plan.variables, zone,
                                                 plan.key_bytes)))
        return results

    def block_successors(
        self, zones: np.ndarray, key: tuple[tuple[int, ...], tuple[int, ...]]
    ) -> tuple[_DiscreteInfo, list[BlockFire]]:
        """Fire every plan against a block of states sharing one discrete key.

        *zones* is the ``(count, dim, dim)`` int64 array of the block's zones
        and *key* their common ``(locations, variables)`` -- the layered core
        groups each round's frontier rows by key -- so the block shares the
        memoised plan list, and each plan's clock work runs once for the
        whole block (:meth:`_fire_plans`); *zones* is not modified.  Per
        fired plan the result lists the surviving layers and their
        delay-closed zones; extrapolation is deferred exactly like
        ``successors(..., extrapolate=False)`` (the engine extrapolates only
        the states it keeps, via :meth:`extrapolate`).
        """
        info = self.plan_info(*key)
        return info, list(self._fire_plans(info, zones))
