"""Clock constraints, guards and invariants.

A *guard* in this library is the conjunction of

* a finite set of :class:`ClockConstraint` (comparisons of a clock, or of a
  difference of two clocks, against an integer expression), and
* a boolean *data* expression over integer variables.

UPPAAL imposes the same separation: clock constraints may only occur
positively and conjunctively.  :func:`compile_guard` performs the split from
a single parsed expression such as ``"rec > 0 && setvolume == 0 && x <= D"``
given the set of clock names, and rejects guards in which clock constraints
occur under ``!`` or ``||``.

*Invariants* are restricted to upper bounds (``<`` / ``<=``) on clocks, as in
UPPAAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core import expressions as ex
from repro.core.dbm import DBM, bound
from repro.util.errors import ModelError
from repro.util.intervals import IntInterval

__all__ = [
    "ClockConstraint",
    "Guard",
    "Invariant",
    "TRUE_GUARD",
    "TRUE_INVARIANT",
    "compile_guard",
    "compile_invariant",
]

_UPPER_OPS = ("<", "<=")
_ALL_OPS = ("<", "<=", "==", ">=", ">")


@dataclass(frozen=True)
class ClockConstraint:
    """A constraint ``clock - other ⋈ rhs`` (``other`` may be ``None``).

    ``rhs`` is an integer expression over variables and constants; it is
    evaluated against the variable valuation at the moment the constraint is
    applied to a zone, which is how data-dependent invariants such as
    ``x <= D`` (Fig. 5 of the paper) are supported.
    """

    clock: str
    op: str
    rhs: ex.Expr
    other: str | None = None

    def __post_init__(self):
        if self.op not in _ALL_OPS:
            raise ModelError(f"unsupported clock comparison operator {self.op!r}")

    def rename(self, mapping: Mapping[str, str]) -> "ClockConstraint":
        """Rename clocks and variables according to *mapping*."""
        return ClockConstraint(
            clock=mapping.get(self.clock, self.clock),
            op=self.op,
            rhs=self.rhs.rename(mapping),
            other=mapping.get(self.other, self.other) if self.other else None,
        )

    def raw_constraints(
        self, clock_index: Mapping[str, int], env: Mapping[str, int]
    ) -> list[tuple[int, int, int]]:
        """Translate into raw DBM constraints ``(i, j, raw_bound)``.

        ``clock_index`` maps clock names to DBM indices, ``env`` provides the
        current values of integer variables for evaluating ``rhs``.
        """
        try:
            i = clock_index[self.clock]
        except KeyError as exc:
            raise ModelError(f"unknown clock {self.clock!r} in constraint") from exc
        j = 0
        if self.other is not None:
            try:
                j = clock_index[self.other]
            except KeyError as exc:
                raise ModelError(f"unknown clock {self.other!r} in constraint") from exc
        c = int(self.rhs.evaluate(env))
        if self.op == "<":
            return [(i, j, bound(c, strict=True))]
        if self.op == "<=":
            return [(i, j, bound(c))]
        if self.op == ">":
            return [(j, i, bound(-c, strict=True))]
        if self.op == ">=":
            return [(j, i, bound(-c))]
        # ==
        return [(i, j, bound(c)), (j, i, bound(-c))]

    def apply(self, zone: DBM, clock_index: Mapping[str, int], env: Mapping[str, int]) -> bool:
        """Conjoin the constraint onto *zone*; return ``False`` if it empties it."""
        for i, j, raw in self.raw_constraints(clock_index, env):
            if not zone.constrain(i, j, raw):
                return False
        return True

    def max_constant(self, domains: Mapping[str, IntInterval]) -> int:
        """Upper bound on the absolute constant this constraint compares against."""
        interval = self.rhs.bounds(domains)
        return max(abs(interval.lo), abs(interval.hi))

    def is_upper_bound(self) -> bool:
        """True when the constraint only bounds the clock from above."""
        return self.op in _UPPER_OPS

    def is_lower_bound(self) -> bool:
        """True when the constraint only bounds the clock from below."""
        return self.op in (">", ">=")

    def variables(self) -> frozenset[str]:
        return self.rhs.variables()

    def __str__(self) -> str:
        left = self.clock if self.other is None else f"{self.clock} - {self.other}"
        return f"{left} {self.op} {self.rhs}"


@dataclass(frozen=True)
class Guard:
    """A conjunction of clock constraints and one boolean data expression."""

    clock_constraints: tuple[ClockConstraint, ...] = ()
    data: ex.Expr = ex.BoolConst(True)

    def rename(self, mapping: Mapping[str, str]) -> "Guard":
        return Guard(
            tuple(c.rename(mapping) for c in self.clock_constraints),
            self.data.rename(mapping),
        )

    def data_satisfied(self, env: Mapping[str, int]) -> bool:
        """Evaluate the data part against a variable valuation."""
        return bool(self.data.evaluate(env))

    @property
    def is_trivially_true(self) -> bool:
        """True for the guard that accepts everything."""
        return (
            not self.clock_constraints and isinstance(self.data, ex.BoolConst) and self.data.value
        )

    def has_clock_constraints(self) -> bool:
        return bool(self.clock_constraints)

    def variables(self) -> frozenset[str]:
        names = set(self.data.variables())
        for constraint in self.clock_constraints:
            names |= constraint.variables()
        return frozenset(names)

    def __str__(self) -> str:
        parts = [str(c) for c in self.clock_constraints]
        if not (isinstance(self.data, ex.BoolConst) and self.data.value):
            parts.append(str(self.data))
        return " && ".join(parts) if parts else "true"


#: The guard that is always satisfied.
TRUE_GUARD = Guard()


@dataclass(frozen=True)
class Invariant:
    """A conjunction of upper-bound clock constraints attached to a location."""

    constraints: tuple[ClockConstraint, ...] = ()

    def __post_init__(self):
        for constraint in self.constraints:
            if not constraint.is_upper_bound():
                raise ModelError(
                    f"invariants may only contain upper bounds on clocks, got {constraint}"
                )

    def rename(self, mapping: Mapping[str, str]) -> "Invariant":
        return Invariant(tuple(c.rename(mapping) for c in self.constraints))

    @property
    def is_trivially_true(self) -> bool:
        return not self.constraints

    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        for constraint in self.constraints:
            names |= constraint.variables()
        return frozenset(names)

    def __str__(self) -> str:
        return " && ".join(str(c) for c in self.constraints) if self.constraints else "true"


#: The empty invariant.
TRUE_INVARIANT = Invariant()


# ---------------------------------------------------------------------------
# Guard compilation: splitting parsed expressions into clock and data parts
# ---------------------------------------------------------------------------

def _references_clock(expr: ex.Expr, clocks: frozenset[str]) -> bool:
    return bool(expr.variables() & clocks)


def _as_clock_constraint(cmp: ex.Compare, clocks: frozenset[str]) -> ClockConstraint:
    """Convert a comparison referencing clocks into a :class:`ClockConstraint`."""
    left, right, op = cmp.left, cmp.right, cmp.op

    def clock_part(side: ex.Expr) -> tuple[str, str | None] | None:
        """Recognise ``clock`` or ``clock - clock`` patterns."""
        if isinstance(side, ex.VarRef) and side.name in clocks:
            return side.name, None
        if (
            isinstance(side, ex.Binary)
            and side.op == "-"
            and isinstance(side.left, ex.VarRef)
            and isinstance(side.right, ex.VarRef)
            and side.left.name in clocks
            and side.right.name in clocks
        ):
            return side.left.name, side.right.name
        return None

    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}

    left_clock = clock_part(left)
    right_clock = clock_part(right)
    if left_clock and not _references_clock(right, clocks):
        return ClockConstraint(left_clock[0], op, right, other=left_clock[1])
    if right_clock and not _references_clock(left, clocks):
        return ClockConstraint(right_clock[0], flip[op], left, other=right_clock[1])
    raise ModelError(
        f"unsupported clock constraint {cmp}: expected 'clock ⋈ expr', "
        "'expr ⋈ clock' or 'clock - clock ⋈ expr'"
    )


def _split(expr: ex.Expr, clocks: frozenset[str]) -> tuple[list[ClockConstraint], list[ex.Expr]]:
    """Recursively split a conjunction into clock constraints and data conjuncts."""
    if not _references_clock(expr, clocks):
        return [], [expr]
    if isinstance(expr, ex.Logical) and expr.op == "&&":
        left_clocks, left_data = _split(expr.left, clocks)
        right_clocks, right_data = _split(expr.right, clocks)
        return left_clocks + right_clocks, left_data + right_data
    if isinstance(expr, ex.Compare):
        return [_as_clock_constraint(expr, clocks)], []
    raise ModelError(
        f"clock constraints may only appear as positive conjuncts, offending guard part: {expr}"
    )


def compile_guard(guard: "str | ex.Expr | Guard | None", clocks: Iterable[str]) -> Guard:
    """Compile a guard specification into a :class:`Guard`.

    ``guard`` may be ``None`` (no guard), an already-built :class:`Guard`, a
    parsed expression, or a string to parse.  ``clocks`` is the set of names
    to treat as clocks when splitting.
    """
    if guard is None:
        return TRUE_GUARD
    if isinstance(guard, Guard):
        return guard
    expr = ex.as_expr(guard)
    clock_set = frozenset(clocks)
    clock_constraints, data_parts = _split(expr, clock_set)
    data: ex.Expr = ex.BoolConst(True)
    for part in data_parts:
        if isinstance(part, ex.BoolConst) and part.value:
            continue
        data = (
            part if (isinstance(data, ex.BoolConst) and data.value)
            else ex.Logical("&&", data, part)
        )
    return Guard(tuple(clock_constraints), data)


def compile_invariant(
    invariant: "str | ex.Expr | Invariant | None", clocks: Iterable[str]
) -> Invariant:
    """Compile an invariant specification into an :class:`Invariant`."""
    if invariant is None:
        return TRUE_INVARIANT
    if isinstance(invariant, Invariant):
        return invariant
    guard = compile_guard(invariant, clocks)
    if not (isinstance(guard.data, ex.BoolConst) and guard.data.value):
        raise ModelError(
            f"invariants may not contain data constraints, got {guard.data}"
        )
    return Invariant(guard.clock_constraints)
