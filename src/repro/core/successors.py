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
Next to its plans every key gets a *firing program*: each plan's guards and
resets with the target's invariants and delay, packed as int64 values
(:func:`repro.core.kernels.firing_program`).  One routine fires it,
:meth:`SuccessorGenerator._fire`: a single :func:`repro.core.kernels.fire`
call runs every plan of the key against the source zones, one ``(count,
dim, dim)`` int64 array -- a single state is a stack of one,
``state.zone.m2[None]`` -- and writes only the live successor rows, grouped
by plan, into storage the generator reuses from call to call.
:meth:`~SuccessorGenerator.successors` (the scalar loop, witness replay),
:meth:`~SuccessorGenerator.block_successors` (the layered core's same-key
blocks) and :meth:`~SuccessorGenerator.initial_state` all fire through it,
so every engine fires through the same code.

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
from typing import Iterable, Sequence

import numpy as np

from repro.core import kernels
from repro.core.dbm import DBM, LE_ZERO, _extrapolation_grids
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

    __slots__ = ("kind", "channel", "participants", "guards", "resets", "locations",
                 "variables", "key_bytes", "error")

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

    ``plans``, ``program`` and ``labels`` are filled lazily: urgency and the
    invariant bounds go into the firing programs of the keys whose plans
    lead here, while plans and their firing program are only needed when a
    state is actually *expanded*, and labels only when traces are recorded.
    """

    __slots__ = ("urgent", "committed", "invariants", "plans", "program", "labels")

    def __init__(self, urgent: bool, committed: frozenset[int],
                 invariants: tuple[tuple[int, int, int], ...]):
        self.urgent = urgent
        self.committed = committed
        #: evaluated invariant constraints as raw (i, j, bound) triples
        self.invariants = invariants
        self.plans: tuple[_Plan, ...] | None = None
        #: the plans' packed firing program (:func:`repro.core.kernels.fire`)
        self.program: bytes | None = None
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
        #: the storage :meth:`_fire` writes successor rows, their source
        #: layers and per-plan counts into, grown as needed and reused
        dim = network.dim
        self._fire_rows = np.empty((0, dim, dim), dtype=np.int64)
        self._fire_nodes = np.empty(0, dtype=np.int64)
        self._fire_counts = np.empty(0, dtype=np.int64)

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
    def extrapolation_grids(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Raw threshold grids of the configured extrapolation for the
        current network bounds (cached), or None under ``"none"``.

        In ``"max"`` mode the classical maximal constants feed both grid
        sides.  In ``"lu"`` mode the network's per-clock lower bounds drive
        the raises and its upper bounds the relaxations (Extra_LU), which is
        strictly coarser wherever a clock is only ever compared against a
        constant from one side (``docs/reductions.md``).
        """
        if self.options.extrapolation == "none":
            return None
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
        grids = self.extrapolation_grids()
        if grids is not None:
            kernels.extrapolate_stack(zones, *grids)
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
        :meth:`_fire` reports it only when those guards actually pass.
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
        info.program = kernels.firing_program([self._plan_record(plan) for plan in plans])
        info.labels = [None] * len(plans)

    def _plan_record(self, plan: _Plan) -> list[int]:
        """The firing-program record of *plan*: its guards and resets, then
        the target's invariants and, unless time is frozen there, the delay.

        The target's facts come from the memo when the target was seen and
        are evaluated without memoising otherwise: most targets of a plan
        whose guards never pass are never stored.  A target whose urgency or
        invariants fail to evaluate defers the error like any evaluation
        error of the plan: it is raised only when the plan's guards pass.
        """
        if plan.error is None:
            target = self._discrete.get((plan.locations, plan.variables))
            try:
                if target is None:
                    urgent = self._is_urgent_discrete(plan.locations, plan.variables)
                    invariants = self._evaluate_constraints(
                        self._invariant_constraints_for(plan.locations), plan.variables
                    )
                else:
                    urgent, invariants = target.urgent, target.invariants
            except Exception as exc:
                plan.error = exc
        if plan.error is not None:
            return kernels.plan_record(plan.guards, error=True)
        return kernels.plan_record(plan.guards, plan.resets, invariants, delay=not urgent)

    def _plan_label(self, info: _DiscreteInfo, index: int) -> TransitionLabel:
        label = info.labels[index]
        if label is None:
            plan = info.plans[index]
            label = self._label(plan.kind, plan.channel, plan.participants)
            info.labels[index] = label
        return label

    # --------------------------------------------------------------- firing
    def _fire(self, program: bytes, source: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                 list[int]]:
        """Run the firing *program* against the ``(count, dim, dim)`` zones
        *source* (not modified) in one :func:`repro.core.kernels.fire` call.

        Returns the live successor rows, grouped by plan in program order,
        their source layers, and how many rows each plan kept.  The rows are
        delay-closed and not extrapolated; a plan with a deferred error
        keeps the layers its guards pass.  Both arrays are views of the
        generator's reused storage, valid until the next call: callers copy
        what they keep.
        """
        plans = kernels.program_plans(program)
        needed = len(source) * plans
        if needed > len(self._fire_nodes):
            capacity = max(needed, 2 * len(self._fire_nodes))
            self._fire_rows = np.empty((capacity, *source.shape[1:]), dtype=np.int64)
            self._fire_nodes = np.empty(capacity, dtype=np.int64)
        if plans > len(self._fire_counts):
            self._fire_counts = np.empty(max(plans, 2 * len(self._fire_counts)), dtype=np.int64)
        written = kernels.fire(source, program, self._fire_rows, self._fire_nodes,
                               self._fire_counts)
        return (self._fire_rows[:written], self._fire_nodes[:written],
                self._fire_counts[:plans].tolist())

    # --------------------------------------------------------------- initial state
    def initial_state(self) -> SymbolicState:
        """The delay-closed, extrapolated initial symbolic state."""
        net = self.network
        locations = net.initial_locations()
        variables = net.initial_variables
        info = self._discrete_info(locations, variables)
        program = kernels.firing_program([
            kernels.plan_record((), (), info.invariants, delay=not info.urgent)
        ])
        zeros = np.full((1, net.dim, net.dim), LE_ZERO, dtype=np.int64)  # all clocks 0
        rows, _nodes, _counts = self._fire(program, zeros)
        if not len(rows):
            raise ModelError(
                "the initial state violates an invariant; the model admits no behaviour"
            )
        zones = self.extrapolate(rows.copy())
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
        if plan_indices is None:
            indices, program = range(len(info.plans)), info.program
        else:
            indices = [int(index) for index in plan_indices]
            program = kernels.subset_program(info.program, indices)
        rows, _nodes, counts = self._fire(program, state.zone.m2[None])
        fired = [index for index, kept in zip(indices, counts) if kept]
        for index in fired:
            error = info.plans[index].error
            if error is not None:
                # reset the cached instance's traceback so repeated fires do
                # not accumulate frames from earlier raises
                raise error.with_traceback(None)
        if extrapolate and len(rows):
            self.extrapolate(rows)
        dim = state.zone.dim
        results: list[tuple[TransitionLabel | None, SymbolicState]] = []
        for row, index in zip(rows, fired):
            plan = info.plans[index]
            zone = DBM._wrap(dim, row.reshape(-1).copy())
            label = self._plan_label(info, index) if with_labels else None
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
        memoised plans, and one :meth:`_fire` call runs all of them on the
        whole block; *zones* is not modified.  Per fired plan the result
        lists the surviving layers and their delay-closed zones (views of
        one array holding the block's live successors); extrapolation is
        deferred exactly like ``successors(..., extrapolate=False)`` (the
        engine extrapolates only the states it keeps).
        """
        info = self.plan_info(*key)
        rows, nodes, counts = self._fire(info.program, zones)
        rows, nodes = rows.copy(), nodes.copy()
        fires = []
        start = 0
        for index, kept in enumerate(counts):
            if kept:
                plan, stop = info.plans[index], start + kept
                if plan.error is None:
                    fires.append(BlockFire(plan, index, rows[start:stop], nodes[start:stop], None))
                else:
                    fires.append(BlockFire(plan, index, None, nodes[start:stop], plan.error))
                start = stop
        return info, fires
