"""Networks of timed automata and their compiled (flattened) form.

A :class:`Network` collects

* global declarations: clocks, bounded integer variables, named constants
  and synchronisation channels, and
* a list of *instances* of :class:`~repro.core.automaton.TimedAutomaton`
  templates.

Before analysis the network is *compiled* into a :class:`CompiledNetwork`:
local names are qualified with the instance name (``"RAD.x"``), named
constants are inlined into expressions, guards/updates are translated into
Python closures over an indexed variable vector, and clock constraints are
lowered to raw DBM constraints.  The compiled form is what the symbolic
semantics in :mod:`repro.core.successors` operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core import expressions as ex
from repro.core.automaton import Edge, Location, TimedAutomaton
from repro.core.declarations import BINARY, BROADCAST, Channel, Clock, Constant, IntVariable
from repro.core.guards import ClockConstraint
from repro.util.errors import ModelError
from repro.util.intervals import IntInterval
from repro.util.naming import check_identifier, qualify

__all__ = [
    "Network",
    "CompiledNetwork",
    "CompiledInstance",
    "CompiledLocation",
    "CompiledEdge",
    "CompiledConstraint",
]


@dataclass(frozen=True)
class CompiledConstraint:
    """A clock constraint lowered to DBM form.

    The raw bound to apply is ``bound(sign * rhs(v), strict)`` on the matrix
    entry ``(i, j)``, where ``v`` is the current variable vector.
    """

    i: int
    j: int
    sign: int
    strict: bool
    rhs: Callable[[Sequence[int]], int]
    #: constant value of the right-hand side if it does not depend on
    #: variables, else ``None`` (used for extrapolation bounds and display)
    rhs_const: int | None
    source: ClockConstraint


@dataclass(frozen=True)
class CompiledEdge:
    """A fully resolved edge of one instance."""

    instance: int
    edge_index: int
    source: int
    target: int
    clock_constraints: tuple[CompiledConstraint, ...]
    data_guard: Callable[[Sequence[int]], bool] | None
    channel: Channel | None
    direction: str | None  # '!' or '?'
    update: Callable[[Sequence[int]], tuple[int, ...]] | None
    resets: tuple[tuple[int, Callable[[Sequence[int]], int]], ...]
    original: Edge
    #: variable indices read by the guard, update right-hand sides, reset
    #: values and clock-constraint right-hand sides (the replica-symmetry
    #: check of :mod:`repro.arch.symmetry` reads both footprints)
    reads: frozenset[int] = frozenset()
    #: variable indices written by the updates
    writes: frozenset[int] = frozenset()

    def data_enabled(self, variables: Sequence[int]) -> bool:
        """Evaluate the data guard against the variable vector."""
        return self.data_guard is None or bool(self.data_guard(variables))


@dataclass(frozen=True)
class CompiledLocation:
    """A location of one instance with its compiled invariant."""

    instance: int
    index: int
    name: str
    urgent: bool
    committed: bool
    invariant: tuple[CompiledConstraint, ...]


@dataclass
class CompiledInstance:
    """One automaton instance inside the compiled network."""

    index: int
    name: str
    template: TimedAutomaton
    locations: list[CompiledLocation] = field(default_factory=list)
    location_index: dict[str, int] = field(default_factory=dict)
    initial: int = 0
    outgoing: list[list[CompiledEdge]] = field(default_factory=list)

    def location_name(self, location: int) -> str:
        return self.locations[location].name


class Network:
    """A network (parallel composition) of timed automaton instances."""

    def __init__(self, name: str = "system"):
        check_identifier(name, "network")
        self.name = name
        self.clocks: dict[str, Clock] = {}
        self.variables: dict[str, IntVariable] = {}
        self.constants: dict[str, Constant] = {}
        self.channels: dict[str, Channel] = {}
        self.instances: list[tuple[str, TimedAutomaton]] = []

    # -- global declarations --------------------------------------------------
    def add_clock(self, name: str) -> Clock:
        """Declare a global clock."""
        self._check_fresh(name)
        clock = Clock(name)
        self.clocks[name] = clock
        return clock

    def add_variable(
        self, name: str, initial: int = 0, lo: int | None = None, hi: int | None = None
    ) -> IntVariable:
        """Declare a global bounded integer variable."""
        self._check_fresh(name)
        if lo is None and hi is None:
            domain = IntInterval(-32768, 32767)
        else:
            domain = IntInterval(lo if lo is not None else 0, hi if hi is not None else 32767)
        variable = IntVariable(name, initial, domain)
        self.variables[name] = variable
        return variable

    def add_constant(self, name: str, value: int) -> Constant:
        """Declare a global named constant (inlined at compile time)."""
        self._check_fresh(name)
        constant = Constant(name, int(value))
        self.constants[name] = constant
        return constant

    def add_channel(self, name: str, kind: str = BINARY, urgent: bool = False) -> Channel:
        """Declare a synchronisation channel."""
        self._check_fresh(name)
        channel = Channel(name, kind, urgent)
        self.channels[name] = channel
        return channel

    def add_broadcast_channel(self, name: str, urgent: bool = False) -> Channel:
        """Declare a broadcast channel (shorthand)."""
        return self.add_channel(name, kind=BROADCAST, urgent=urgent)

    def _check_fresh(self, name: str) -> None:
        for table, kind in (
            (self.clocks, "clock"),
            (self.variables, "variable"),
            (self.constants, "constant"),
            (self.channels, "channel"),
        ):
            if name in table:
                raise ModelError(f"global name {name!r} already declared as a {kind}")

    # -- instances ---------------------------------------------------------------
    def add_instance(self, automaton: TimedAutomaton, name: str | None = None) -> str:
        """Add an instance of *automaton*; returns the instance name."""
        instance_name = name or automaton.name
        check_identifier(instance_name, "instance")
        if any(existing == instance_name for existing, _ in self.instances):
            raise ModelError(f"instance name {instance_name!r} already used")
        self.instances.append((instance_name, automaton))
        return instance_name

    def instance_names(self) -> list[str]:
        return [name for name, _ in self.instances]

    # -- compilation ------------------------------------------------------------------
    def compile(self) -> "CompiledNetwork":
        """Flatten and compile the network for analysis."""
        if not self.instances:
            raise ModelError("cannot compile a network without instances")
        return CompiledNetwork(self)

    def __str__(self) -> str:
        return (
            f"Network({self.name}: {len(self.instances)} instances, "
            f"{len(self.channels)} channels, {len(self.variables)} globals)"
        )

    __repr__ = __str__


class CompiledNetwork:
    """The flattened, analysis-ready form of a :class:`Network`."""

    def __init__(self, network: Network):
        self.network = network
        self.name = network.name
        self.channels = dict(network.channels)

        # ---- clock table: index 0 is the reference clock -------------------
        self.clock_names: list[str] = ["__ref__"]
        self.clock_index: dict[str, int] = {}
        for name in network.clocks:
            self.clock_index[name] = len(self.clock_names)
            self.clock_names.append(name)

        # ---- variable table --------------------------------------------------
        self.variable_names: list[str] = []
        self.variable_index: dict[str, int] = {}
        self.variable_domains: list[IntInterval] = []
        initial_values: list[int] = []
        for name, variable in network.variables.items():
            self.variable_index[name] = len(self.variable_names)
            self.variable_names.append(name)
            self.variable_domains.append(variable.domain)
            initial_values.append(variable.initial)

        global_constants = {name: c.value for name, c in network.constants.items()}

        # ---- per-instance declarations ---------------------------------------
        self.instances: list[CompiledInstance] = []
        instance_scopes: list[dict] = []
        for instance_idx, (instance_name, template) in enumerate(network.instances):
            template.validate()
            rename: dict[str, str] = {}
            for clock_name in template.clocks:
                qualified = qualify(instance_name, clock_name)
                rename[clock_name] = qualified
                self.clock_index[qualified] = len(self.clock_names)
                self.clock_names.append(qualified)
            for var_name, variable in template.variables.items():
                qualified = qualify(instance_name, var_name)
                rename[var_name] = qualified
                self.variable_index[qualified] = len(self.variable_names)
                self.variable_names.append(qualified)
                self.variable_domains.append(variable.domain)
                initial_values.append(variable.initial)
            constants = dict(global_constants)
            constants.update({name: c.value for name, c in template.constants.items()})
            instance_scopes.append({"rename": rename, "constants": constants})
            self.instances.append(
                CompiledInstance(index=instance_idx, name=instance_name, template=template)
            )

        self.initial_variables: tuple[int, ...] = tuple(initial_values)
        self.dim = len(self.clock_names)

        #: per-clock maximal constants (for extrapolation); updated lazily
        self._max_constants: list[int] = [0] * self.dim
        #: per-clock lower/upper bound constants (for LU extrapolation):
        #: ``L`` collects constants a clock is bounded from below against,
        #: ``U`` those it is bounded from above against (docs/reductions.md)
        self._lower_constants: list[int] = [0] * self.dim
        self._upper_constants: list[int] = [0] * self.dim
        #: extra constants registered by queries (e.g. WCRT bound being tested)
        self._extra_constants: dict[int, int] = {}
        #: verified replication-symmetry specification, attached by the
        #: architecture compiler (:class:`repro.core.symmetry.SymmetrySpec`
        #: or None when the network carries no verified automorphism)
        self.symmetry = None
        #: bumped whenever the effective extrapolation bounds change, so that
        #: consumers (the successor generator) can cache derived vectors
        self._bounds_version: int = 0

        # ---- compile locations and edges ---------------------------------------
        domains_by_name = {
            name: self.variable_domains[idx] for name, idx in self.variable_index.items()
        }
        for instance_idx, (instance_name, template) in enumerate(network.instances):
            compiled = self.instances[instance_idx]
            scope = instance_scopes[instance_idx]
            rename, constants = scope["rename"], scope["constants"]

            for loc_idx, (loc_name, location) in enumerate(template.locations.items()):
                invariant = self._compile_constraints(
                    location.invariant.constraints, rename, constants, domains_by_name
                )
                compiled.locations.append(
                    CompiledLocation(
                        instance=instance_idx,
                        index=loc_idx,
                        name=loc_name,
                        urgent=location.urgent,
                        committed=location.committed,
                        invariant=invariant,
                    )
                )
                compiled.location_index[loc_name] = loc_idx
            if template.initial_location is None:
                raise ModelError(f"automaton {template.name} has no initial location")
            compiled.initial = compiled.location_index[template.initial_location]
            compiled.outgoing = [[] for _ in compiled.locations]

            for edge_idx, edge in enumerate(template.edges):
                compiled_edge = self._compile_edge(
                    instance_idx, edge_idx, edge, compiled, rename, constants, domains_by_name
                )
                compiled.outgoing[compiled_edge.source].append(compiled_edge)

        self._validate_syncs()
        self._compute_max_constants(domains_by_name)

    # -- compilation helpers ----------------------------------------------------------
    def _resolve_expr(
        self, expr: ex.Expr, rename: Mapping[str, str], constants: Mapping[str, int]
    ) -> ex.Expr:
        return ex.substitute(expr, constants).rename(rename)

    def _compile_constraints(
        self,
        constraints: Sequence[ClockConstraint],
        rename: Mapping[str, str],
        constants: Mapping[str, int],
        domains: Mapping[str, IntInterval],
    ) -> tuple[CompiledConstraint, ...]:
        compiled: list[CompiledConstraint] = []
        for constraint in constraints:
            clock = rename.get(constraint.clock, constraint.clock)
            other = rename.get(constraint.other, constraint.other) if constraint.other else None
            if clock not in self.clock_index:
                raise ModelError(f"unknown clock {clock!r} in constraint {constraint}")
            if other is not None and other not in self.clock_index:
                raise ModelError(f"unknown clock {other!r} in constraint {constraint}")
            i = self.clock_index[clock]
            j = self.clock_index[other] if other is not None else 0
            rhs = self._resolve_expr(constraint.rhs, rename, constants)
            rhs_fn = ex.compile_int_expr(rhs, self.variable_index)
            rhs_const = rhs.value if isinstance(rhs, ex.IntConst) else None
            resolved = ClockConstraint(clock, constraint.op, rhs, other)
            entries: list[tuple[int, int, int, bool]] = []
            if constraint.op in ("<", "<="):
                entries.append((i, j, +1, constraint.op == "<"))
            elif constraint.op in (">", ">="):
                entries.append((j, i, -1, constraint.op == ">"))
            else:  # ==
                entries.append((i, j, +1, False))
                entries.append((j, i, -1, False))
            for ei, ej, sign, strict in entries:
                compiled.append(
                    CompiledConstraint(
                        i=ei, j=ej, sign=sign, strict=strict, rhs=rhs_fn,
                        rhs_const=rhs_const, source=resolved,
                    )
                )
        return tuple(compiled)

    def _compile_edge(
        self,
        instance_idx: int,
        edge_idx: int,
        edge: Edge,
        compiled: CompiledInstance,
        rename: Mapping[str, str],
        constants: Mapping[str, int],
        domains: Mapping[str, IntInterval],
    ) -> CompiledEdge:
        if edge.source not in compiled.location_index or edge.target not in compiled.location_index:
            raise ModelError(
                f"edge {edge} of {compiled.name} references an unknown location"
            )
        clock_constraints = self._compile_constraints(
            edge.guard.clock_constraints, rename, constants, domains
        )
        data = self._resolve_expr(edge.guard.data, rename, constants)
        data_guard = None
        if not (isinstance(data, ex.BoolConst) and data.value):
            data_guard = ex.compile_bool_expr(data, self.variable_index)

        channel = None
        direction = None
        if edge.sync is not None:
            if edge.sync.channel not in self.channels:
                raise ModelError(
                    f"edge {edge} of {compiled.name} synchronises on undeclared channel "
                    f"{edge.sync.channel!r}"
                )
            channel = self.channels[edge.sync.channel]
            direction = edge.sync.direction
            if channel.urgent and clock_constraints:
                raise ModelError(
                    f"edge {edge} of {compiled.name}: clock guards are not allowed on "
                    f"urgent channel {channel.name!r} (UPPAAL restriction)"
                )
            if channel.kind == BROADCAST and direction == "?" and clock_constraints:
                raise ModelError(
                    f"edge {edge} of {compiled.name}: clock guards on broadcast receivers "
                    "are not supported"
                )

        read_names: set[str] = set(data.variables())
        write_names: set[str] = set()
        for constraint in clock_constraints:
            read_names |= constraint.source.rhs.variables()

        update = None
        if edge.updates:
            resolved_updates = [
                ex.Assignment(
                    rename.get(u.target, u.target),
                    self._resolve_expr(u.expr, rename, constants),
                )
                for u in edge.updates
            ]
            for u in resolved_updates:
                if u.target not in self.variable_index:
                    raise ModelError(
                        f"edge {edge} of {compiled.name} assigns to unknown variable {u.target!r}"
                    )
                read_names |= u.expr.variables()
                write_names.add(u.target)
            update = ex.compile_updates(resolved_updates, self.variable_index)

        resets: list[tuple[int, Callable[[Sequence[int]], int]]] = []
        for clock, value in edge.resets:
            qualified = rename.get(clock, clock)
            if qualified not in self.clock_index:
                raise ModelError(f"edge {edge} of {compiled.name} resets unknown clock {clock!r}")
            value_expr = self._resolve_expr(value, rename, constants)
            read_names |= value_expr.variables()
            resets.append(
                (self.clock_index[qualified], ex.compile_int_expr(value_expr, self.variable_index))
            )

        return CompiledEdge(
            instance=instance_idx,
            edge_index=edge_idx,
            source=compiled.location_index[edge.source],
            target=compiled.location_index[edge.target],
            clock_constraints=clock_constraints,
            data_guard=data_guard,
            channel=channel,
            direction=direction,
            update=update,
            resets=tuple(resets),
            original=edge,
            reads=frozenset(
                self.variable_index[name] for name in read_names if name in self.variable_index
            ),
            writes=frozenset(self.variable_index[name] for name in write_names),
        )

    def _validate_syncs(self) -> None:
        """Check that binary channels have both senders and receivers somewhere."""
        senders: dict[str, int] = {}
        receivers: dict[str, int] = {}
        for instance in self.instances:
            for edges in instance.outgoing:
                for edge in edges:
                    if edge.channel is None:
                        continue
                    table = senders if edge.direction == "!" else receivers
                    table[edge.channel.name] = table.get(edge.channel.name, 0) + 1
        for name, channel in self.channels.items():
            if channel.kind == BINARY:
                if senders.get(name) and not receivers.get(name):
                    raise ModelError(
                        f"binary channel {name!r} has senders but no receivers; "
                        "synchronisation could never fire"
                    )

    def _compute_max_constants(self, domains: Mapping[str, IntInterval]) -> None:
        """Derive per-clock maximal (and lower/upper) extrapolation constants.

        Every compiled entry ``(i, j)`` encodes ``x_i - x_j ≼ rhs``: it
        bounds clock ``i`` from above (relative to ``j``) and clock ``j``
        from below (relative to ``i``), so its constant feeds ``U[i]`` and
        ``L[j]``.  ``x >= c`` compiles to the entry ``(0, x)`` and lands in
        ``L[x]`` only; ``x <= c`` compiles to ``(x, 0)`` and lands in
        ``U[x]`` only; equalities emit both entries, so ``L = U`` for
        equality-driven clocks and LU extrapolation coincides with the
        classical maximal-constant grid there.
        """
        maxima = [0] * self.dim
        lower = [0] * self.dim
        upper = [0] * self.dim
        domain_env = dict(domains)

        def visit(constraint: CompiledConstraint) -> None:
            if constraint.rhs_const is not None:
                value = abs(constraint.rhs_const)
            else:
                value = constraint.source.max_constant(domain_env)
            if constraint.i != 0:
                maxima[constraint.i] = max(maxima[constraint.i], value)
                upper[constraint.i] = max(upper[constraint.i], value)
            if constraint.j != 0:
                maxima[constraint.j] = max(maxima[constraint.j], value)
                lower[constraint.j] = max(lower[constraint.j], value)

        for instance in self.instances:
            for location in instance.locations:
                for constraint in location.invariant:
                    visit(constraint)
            for edges in instance.outgoing:
                for edge in edges:
                    for constraint in edge.clock_constraints:
                        visit(constraint)
        self._max_constants = maxima
        self._lower_constants = lower
        self._upper_constants = upper

    # -- public helpers --------------------------------------------------------------------
    @property
    def max_constants(self) -> list[int]:
        """Per-clock extrapolation constants (index 0 is the reference clock)."""
        bounds = list(self._max_constants)
        for idx, value in self._extra_constants.items():
            bounds[idx] = max(bounds[idx], value)
        return bounds

    @property
    def lu_bounds(self) -> tuple[list[int], list[int]]:
        """Per-clock ``(lower, upper)`` constants for LU extrapolation.

        Query-registered constants raise *both* sides: a ``sup`` query reads
        the observer clock's upper bound below its ceiling, so distinctions
        up to the registered constant must survive on both the raise
        (``L``) and the relax (``U``) side of Extra_LU.
        """
        lower = list(self._lower_constants)
        upper = list(self._upper_constants)
        for idx, value in self._extra_constants.items():
            lower[idx] = max(lower[idx], value)
            upper[idx] = max(upper[idx], value)
        return lower, upper

    def register_query_constant(self, clock: "str | int", value: int) -> None:
        """Raise the extrapolation ceiling of *clock* to at least *value*.

        Queries that compare an observer clock against a bound (the WCRT
        binary search, ``sup`` extraction) must register that bound here so
        that extrapolation does not abstract away the distinctions the query
        needs; this mirrors the fact that UPPAAL includes property constants
        when computing maximal bounds.
        """
        idx = clock if isinstance(clock, int) else self.clock_id(clock)
        previous = self._extra_constants.get(idx, 0)
        merged = max(previous, int(value))
        if merged != previous:
            self._extra_constants[idx] = merged
            self._bounds_version += 1

    def clear_query_constants(self) -> None:
        """Remove all constants registered via :meth:`register_query_constant`."""
        if self._extra_constants:
            self._extra_constants.clear()
            self._bounds_version += 1

    @property
    def max_constants_version(self) -> int:
        """Monotone counter identifying the current extrapolation bounds.

        Changes whenever :meth:`register_query_constant`,
        :meth:`clear_query_constants` or :meth:`restore_query_constants`
        alters the effective bounds; consumers may cache bound-derived data
        keyed by this version.
        """
        return self._bounds_version

    def query_constants_snapshot(self) -> dict[int, int]:
        """Snapshot of the query-registered constants (see below).

        Queries that raise extrapolation ceilings must not leak those
        constants into later, unrelated queries on the same network (leaked
        constants silently coarsen the abstraction and inflate state spaces).
        Callers take a snapshot before registering and restore it afterwards::

            saved = network.query_constants_snapshot()
            try:
                network.register_query_constant(...)
                ...explore...
            finally:
                network.restore_query_constants(saved)
        """
        return dict(self._extra_constants)

    def restore_query_constants(self, snapshot: Mapping[int, int]) -> None:
        """Restore the query constants captured by :meth:`query_constants_snapshot`."""
        if dict(snapshot) != self._extra_constants:
            self._extra_constants = dict(snapshot)
            self._bounds_version += 1

    def clock_id(self, name: str) -> int:
        """DBM index of a clock by (possibly qualified) name."""
        try:
            return self.clock_index[name]
        except KeyError as exc:
            raise ModelError(f"unknown clock {name!r}") from exc

    def variable_id(self, name: str) -> int:
        """Vector index of a variable by (possibly qualified) name."""
        try:
            return self.variable_index[name]
        except KeyError as exc:
            raise ModelError(f"unknown variable {name!r}") from exc

    def instance_id(self, name: str) -> int:
        """Index of an instance by name."""
        for instance in self.instances:
            if instance.name == name:
                return instance.index
        raise ModelError(f"unknown instance {name!r}")

    def location_id(self, instance: str, location: str) -> tuple[int, int]:
        """(instance index, location index) for ``instance.location``."""
        inst = self.instances[self.instance_id(instance)]
        try:
            return inst.index, inst.location_index[location]
        except KeyError as exc:
            raise ModelError(f"unknown location {instance}.{location}") from exc

    def initial_locations(self) -> tuple[int, ...]:
        """Vector of initial location indices."""
        return tuple(instance.initial for instance in self.instances)

    def location_vector_names(self, locations: Sequence[int]) -> tuple[str, ...]:
        """Readable names for a location vector."""
        return tuple(
            f"{instance.name}.{instance.locations[loc].name}"
            for instance, loc in zip(self.instances, locations)
        )

    def variable_valuation(self, variables: Sequence[int]) -> dict[str, int]:
        """Mapping from variable names to their values in a state vector."""
        return dict(zip(self.variable_names, variables))

    def check_variable_ranges(self, variables: Sequence[int]) -> None:
        """Raise if any variable left its declared domain (UPPAAL run-time error)."""
        for value, domain, name in zip(variables, self.variable_domains, self.variable_names):
            if not domain.contains(value):
                raise ModelError(
                    f"variable {name!r} left its domain {domain}: value {value}"
                )

    def __str__(self) -> str:
        return (
            f"CompiledNetwork({self.name}: {len(self.instances)} instances, "
            f"{self.dim - 1} clocks, {len(self.variable_names)} variables)"
        )

    __repr__ = __str__
