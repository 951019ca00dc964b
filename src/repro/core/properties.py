"""State formulas and queries over the symbolic state space.

The query language mirrors the fragment of UPPAAL's requirement language the
paper uses:

* ``E<> φ``  — some reachable state satisfies ``φ`` (:class:`EF`),
* ``A[] φ``  — every reachable state satisfies ``φ`` (:class:`AG`),
* ``sup{condition}: clock`` — the supremum of a clock over all reachable
  states satisfying a condition (:class:`Sup`), used to extract worst-case
  response times in a single exploration instead of the paper's manual binary
  search.

State formulas are boolean combinations of three kinds of atomic
propositions:

* :class:`LocationProp` — an instance resides in a given location
  (``rstat_m.seen``),
* :class:`DataProp` — a boolean expression over integer variables
  (``rec == 0``),
* :class:`ClockProp` — a clock constraint (``rstat_m.y < 200000``).

Because a symbolic state contains many clock valuations, satisfaction comes
in two flavours: *possibly* (some valuation in the zone satisfies the
formula) and *certainly* (all valuations do).  ``A[] φ`` is violated when
some reachable symbolic state possibly satisfies ``¬φ``; ``E<> φ`` holds when
some reachable symbolic state possibly satisfies ``φ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core import expressions as ex
from repro.core import kernels
from repro.core.guards import ClockConstraint, compile_guard
from repro.core.kernels import LE_ZERO
from repro.core.network import CompiledNetwork
from repro.core.successors import SymbolicState
from repro.util.errors import ModelError

__all__ = [
    "StateFormula",
    "LocationProp",
    "DataProp",
    "ClockProp",
    "And",
    "Or",
    "Not",
    "parse_atom",
    "BoundFormula",
    "Query",
    "EF",
    "AG",
    "Sup",
]


class StateFormula:
    """Base class for state formulas (boolean combinations of atoms)."""

    def __and__(self, other: "StateFormula") -> "StateFormula":
        return And(self, other)

    def __or__(self, other: "StateFormula") -> "StateFormula":
        return Or(self, other)

    def __invert__(self) -> "StateFormula":
        return Not(self)

    def negate(self) -> "StateFormula":
        """Return the logical negation (pushed down lazily via :class:`Not`)."""
        return Not(self)


@dataclass(frozen=True)
class LocationProp(StateFormula):
    """Atom: instance *instance* is in location *location* (``"Obs.seen"``)."""

    instance: str
    location: str

    def __str__(self) -> str:
        return f"{self.instance}.{self.location}"


@dataclass(frozen=True)
class DataProp(StateFormula):
    """Atom: a boolean expression over integer variables."""

    expression: ex.Expr

    @classmethod
    def parse(cls, text: str) -> "DataProp":
        return cls(ex.parse_expression(text))

    def __str__(self) -> str:
        return str(self.expression)


@dataclass(frozen=True)
class ClockProp(StateFormula):
    """Atom: a clock constraint such as ``y < 200000`` or ``x - y <= 3``."""

    constraint: ClockConstraint

    @classmethod
    def parse(cls, text: str, clocks: Iterable[str]) -> "ClockProp":
        guard = compile_guard(text, clocks)
        if len(guard.clock_constraints) != 1 or not (
            isinstance(guard.data, ex.BoolConst) and guard.data.value
        ):
            raise ModelError(f"expected a single clock constraint, got {text!r}")
        return cls(guard.clock_constraints[0])

    def __str__(self) -> str:
        return str(self.constraint)


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


@dataclass(frozen=True)
class Or(StateFormula):
    left: StateFormula
    right: StateFormula

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


@dataclass(frozen=True)
class Not(StateFormula):
    operand: StateFormula

    def __str__(self) -> str:
        return f"!({self.operand})"


def parse_atom(text: str, network: CompiledNetwork) -> StateFormula:
    """Parse an atomic proposition string against a compiled network.

    ``"Inst.loc"`` becomes a :class:`LocationProp` when ``loc`` names a
    location of instance ``Inst``; expressions containing clock names become
    :class:`ClockProp`; everything else becomes :class:`DataProp`.
    """
    stripped = text.strip()
    if "." in stripped and all(part.isidentifier() for part in stripped.split(".", 1)):
        instance, location = stripped.split(".", 1)
        for compiled in network.instances:
            if compiled.name == instance and location in compiled.location_index:
                return LocationProp(instance, location)
    expr = ex.parse_expression(stripped)
    if expr.variables() & set(network.clock_index):
        guard = compile_guard(expr, network.clock_index)
        if len(guard.clock_constraints) == 1 and isinstance(guard.data, ex.BoolConst):
            return ClockProp(guard.clock_constraints[0])
        raise ModelError(f"cannot interpret {text!r} as a single clock constraint")
    return DataProp(expr)


# ---------------------------------------------------------------------------
# Literal / DNF machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Literal:
    atom: StateFormula
    positive: bool


def _to_nnf(formula: StateFormula, positive: bool) -> StateFormula:
    """Push negations down to the atoms."""
    if isinstance(formula, Not):
        return _to_nnf(formula.operand, not positive)
    if isinstance(formula, And):
        left = _to_nnf(formula.left, positive)
        right = _to_nnf(formula.right, positive)
        return And(left, right) if positive else Or(left, right)
    if isinstance(formula, Or):
        left = _to_nnf(formula.left, positive)
        right = _to_nnf(formula.right, positive)
        return Or(left, right) if positive else And(left, right)
    # atom
    return formula if positive else Not(formula)


def _to_dnf(formula: StateFormula) -> list[list[_Literal]]:
    """Convert an NNF formula into a list of conjunctive clauses of literals."""
    if isinstance(formula, Not):
        return [[_Literal(formula.operand, False)]]
    if isinstance(formula, (LocationProp, DataProp, ClockProp)):
        return [[_Literal(formula, True)]]
    if isinstance(formula, Or):
        return _to_dnf(formula.left) + _to_dnf(formula.right)
    if isinstance(formula, And):
        left = _to_dnf(formula.left)
        right = _to_dnf(formula.right)
        return [a + b for a in left for b in right]
    raise ModelError(f"unsupported formula node {formula!r}")


_NEGATED_OP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!="}


class BoundFormula:
    """A state formula bound to a compiled network, ready for evaluation."""

    def __init__(self, formula: StateFormula, network: CompiledNetwork):
        self.formula = formula
        self.network = network
        self._dnf = _to_dnf(_to_nnf(formula, True))
        self._clauses = [self._compile_clause(clause) for clause in self._dnf]
        #: (clause index, variables) -> the clause's clock constraints as
        #: constraint rows (they depend on the variables only)
        self._rows: dict[tuple, bytes] = {}

    # each compiled clause: (discrete_checks, zone_constraints)
    #   discrete_checks: list of callables (locations, variables) -> bool
    #   zone_constraints: list of (ClockConstraint-like application data)
    def _compile_clause(self, clause: Sequence[_Literal]):
        net = self.network
        discrete_checks = []
        clock_parts: list[tuple[ClockConstraint, bool]] = []
        for literal in clause:
            atom = literal.atom
            if isinstance(atom, LocationProp):
                inst_idx, loc_idx = net.location_id(atom.instance, atom.location)
                if literal.positive:
                    discrete_checks.append(
                        lambda locs, vars_, i=inst_idx, l=loc_idx: locs[i] == l
                    )
                else:
                    discrete_checks.append(
                        lambda locs, vars_, i=inst_idx, l=loc_idx: locs[i] != l
                    )
            elif isinstance(atom, DataProp):
                fn = ex.compile_bool_expr(atom.expression, net.variable_index)
                if literal.positive:
                    discrete_checks.append(lambda locs, vars_, f=fn: bool(f(vars_)))
                else:
                    discrete_checks.append(lambda locs, vars_, f=fn: not f(vars_))
            elif isinstance(atom, ClockProp):
                constraint = atom.constraint
                if not literal.positive:
                    if constraint.op == "==":
                        raise ModelError(
                            "negated clock equality is not supported in state formulas"
                        )
                    constraint = ClockConstraint(
                        constraint.clock,
                        _NEGATED_OP[constraint.op],
                        constraint.rhs,
                        constraint.other,
                    )
                clock_parts.append((constraint, literal.positive))
            else:
                raise ModelError(f"unsupported atom {atom!r}")
        return discrete_checks, [c for c, _ in clock_parts]

    # -- evaluation -----------------------------------------------------------
    def possibly(self, state: SymbolicState) -> bool:
        """True when some clock valuation of *state* satisfies the formula."""
        zones = state.zone.m2[None]
        return bool(self.possibly_many(state.locations, state.variables, zones)[0])

    def possibly_many(
        self, locations: tuple[int, ...], variables: tuple[int, ...], zones: np.ndarray
    ) -> np.ndarray:
        """:meth:`possibly` for every layer of *zones*, as a boolean mask.

        *zones* is a ``(count, dim, dim)`` int64 array of zones that share the
        discrete part ``(locations, variables)``.  Per clause the discrete
        checks run once; then the clause's clock constraints, evaluated for
        these variables (once per variable vector, all before any is
        applied), are conjoined onto a copy of the layers no earlier clause
        satisfied by one ``constrain_stack`` call.
        """
        satisfied = None
        for index, (discrete_checks, clock_constraints) in enumerate(self._clauses):
            if not all(check(locations, variables) for check in discrete_checks):
                continue
            if not clock_constraints:
                return ~np.zeros(len(zones), dtype=bool)
            rows = self._rows.get((index, variables))
            if rows is None:
                env = self.network.variable_valuation(variables)
                rows = self._rows[index, variables] = kernels.constraint_rows(
                    triple
                    for constraint in clock_constraints
                    for triple in constraint.raw_constraints(self.network.clock_index, env)
                )
            if satisfied is None:
                trial = zones.copy()
                kernels.constrain_stack(trial, rows)
                satisfied = trial[:, 0, 0] >= LE_ZERO
            else:
                open_layers = np.flatnonzero(~satisfied)
                trial = zones[open_layers]
                kernels.constrain_stack(trial, rows)
                satisfied[open_layers[trial[:, 0, 0] >= LE_ZERO]] = True
            if satisfied.all():
                break
        return satisfied if satisfied is not None else np.zeros(len(zones), dtype=bool)

    def certainly(self, state: SymbolicState) -> bool:
        """True when every clock valuation of *state* satisfies the formula."""
        negated = BoundFormula(Not(self.formula), self.network)
        return not negated.possibly(state)

    def max_clock_constant(self) -> dict[str, int]:
        """Clock -> largest constant mentioned by the formula (for extrapolation)."""
        out: dict[str, int] = {}
        domains = {
            name: self.network.variable_domains[idx]
            for name, idx in self.network.variable_index.items()
        }
        for _checks, clock_constraints in self._clauses:
            for constraint in clock_constraints:
                value = constraint.max_constant(domains)
                out[constraint.clock] = max(out.get(constraint.clock, 0), value)
                if constraint.other:
                    out[constraint.other] = max(out.get(constraint.other, 0), value)
        return out

    def __str__(self) -> str:
        return str(self.formula)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """Base class of queries handed to the reachability engine."""

    formula: StateFormula

    def bind(self, network: CompiledNetwork) -> BoundFormula:
        bound = BoundFormula(self.formula, network)
        for clock, constant in bound.max_clock_constant().items():
            network.register_query_constant(clock, constant)
        return bound


@dataclass(frozen=True)
class EF(Query):
    """``E<> formula`` — reachability of a state satisfying the formula."""

    def __str__(self) -> str:
        return f"E<> {self.formula}"


@dataclass(frozen=True)
class AG(Query):
    """``A[] formula`` — the formula holds in every reachable state."""

    def __str__(self) -> str:
        return f"A[] {self.formula}"


@dataclass(frozen=True)
class Sup:
    """``sup{condition}: clock`` — supremum of a clock over reachable states.

    ``condition`` may be ``None`` to range over the whole reachable state
    space.  ``ceiling`` raises the extrapolation constant of the clock so
    that suprema up to ``ceiling`` are exact; values above it are reported as
    "at least ceiling" (the analysis cannot distinguish them from unbounded).
    """

    clock: str
    condition: StateFormula | None = None
    ceiling: int | None = None

    def __str__(self) -> str:
        condition = f"{{{self.condition}}}" if self.condition is not None else ""
        return f"sup{condition}: {self.clock}"
