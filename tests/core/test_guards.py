"""Tests of guard/invariant compilation and clock constraints."""

import pytest

from repro.core import expressions as ex
from repro.core.dbm import DBM, bound
from repro.core.guards import (
    TRUE_GUARD,
    ClockConstraint,
    Guard,
    Invariant,
    compile_guard,
    compile_invariant,
)
from repro.util.errors import ModelError
from repro.util.intervals import IntInterval

CLOCKS = ("x", "y")
CLOCK_INDEX = {"x": 1, "y": 2}


class TestGuardCompilation:
    def test_pure_data_guard(self):
        guard = compile_guard("rec > 0 && setvolume == 0", CLOCKS)
        assert guard.clock_constraints == ()
        assert guard.data_satisfied({"rec": 1, "setvolume": 0})
        assert not guard.data_satisfied({"rec": 0, "setvolume": 0})

    def test_pure_clock_guard(self):
        guard = compile_guard("x <= 10", CLOCKS)
        assert len(guard.clock_constraints) == 1
        assert guard.data_satisfied({})

    def test_mixed_guard_split(self):
        guard = compile_guard("rec > 0 && x >= P && y < 5", CLOCKS)
        assert len(guard.clock_constraints) == 2
        assert guard.data_satisfied({"rec": 3})

    def test_flipped_comparison(self):
        guard = compile_guard("10 >= x", CLOCKS)
        constraint = guard.clock_constraints[0]
        assert constraint.clock == "x" and constraint.op == "<="

    def test_clock_difference_constraint(self):
        guard = compile_guard("x - y <= 3", CLOCKS)
        constraint = guard.clock_constraints[0]
        assert constraint.clock == "x" and constraint.other == "y"

    def test_clock_under_disjunction_rejected(self):
        with pytest.raises(ModelError):
            compile_guard("x <= 10 || rec > 0", CLOCKS)

    def test_clock_under_negation_rejected(self):
        with pytest.raises(ModelError):
            compile_guard("!(x <= 10)", CLOCKS)

    def test_clock_arithmetic_rejected(self):
        with pytest.raises(ModelError):
            compile_guard("x + y <= 10", CLOCKS)

    def test_none_gives_true_guard(self):
        assert compile_guard(None, CLOCKS) is TRUE_GUARD

    def test_existing_guard_passthrough(self):
        guard = Guard()
        assert compile_guard(guard, CLOCKS) is guard

    def test_variable_rhs_allowed(self):
        guard = compile_guard("x <= D", CLOCKS)
        constraint = guard.clock_constraints[0]
        assert constraint.rhs.variables() == {"D"}

    def test_guard_str_roundtrip_mentions_parts(self):
        guard = compile_guard("rec > 0 && x <= 10", CLOCKS)
        text = str(guard)
        assert "x <= 10" in text and "rec > 0" in text


class TestInvariantCompilation:
    def test_upper_bound_invariant(self):
        invariant = compile_invariant("x <= 10 && y < 5", CLOCKS)
        assert len(invariant.constraints) == 2

    def test_lower_bound_invariant_rejected(self):
        with pytest.raises(ModelError):
            compile_invariant("x >= 10", CLOCKS)

    def test_data_invariant_rejected(self):
        with pytest.raises(ModelError):
            compile_invariant("rec > 0", CLOCKS)

    def test_empty_invariant(self):
        invariant = compile_invariant(None, CLOCKS)
        assert invariant.is_trivially_true


class TestClockConstraintApplication:
    def _zone(self) -> DBM:
        return DBM.universal(3)

    def test_upper_bound_application(self):
        zone = self._zone()
        constraint = ClockConstraint("x", "<=", ex.IntConst(10))
        assert constraint.apply(zone, CLOCK_INDEX, {})
        assert zone.upper_bound(1) == bound(10)

    def test_equality_application(self):
        zone = self._zone()
        constraint = ClockConstraint("x", "==", ex.IntConst(4))
        assert constraint.apply(zone, CLOCK_INDEX, {})
        assert zone.upper_bound(1) == bound(4)
        assert zone.lower_bound(1) == bound(-4)

    def test_variable_rhs_evaluated_against_env(self):
        zone = self._zone()
        constraint = ClockConstraint("x", "<=", ex.VarRef("D"))
        assert constraint.apply(zone, CLOCK_INDEX, {"D": 7})
        assert zone.upper_bound(1) == bound(7)

    def test_unsatisfiable_constraint_empties_zone(self):
        zone = self._zone()
        ClockConstraint("x", "<=", ex.IntConst(5)).apply(zone, CLOCK_INDEX, {})
        ok = ClockConstraint("x", ">", ex.IntConst(9)).apply(zone, CLOCK_INDEX, {})
        assert not ok

    def test_unknown_clock_raises(self):
        zone = self._zone()
        with pytest.raises(ModelError):
            ClockConstraint("z", "<=", ex.IntConst(5)).apply(zone, CLOCK_INDEX, {})

    def test_max_constant_uses_variable_domain(self):
        constraint = ClockConstraint("x", "<=", ex.VarRef("D"))
        assert constraint.max_constant({"D": IntInterval(0, 123)}) == 123

    def test_is_upper_and_lower(self):
        assert ClockConstraint("x", "<=", ex.IntConst(1)).is_upper_bound()
        assert ClockConstraint("x", ">", ex.IntConst(1)).is_lower_bound()
        assert not ClockConstraint("x", "==", ex.IntConst(1)).is_upper_bound()

    def test_rename(self):
        constraint = ClockConstraint("x", "<=", ex.VarRef("D"), other="y")
        renamed = constraint.rename({"x": "A.x", "y": "A.y", "D": "A.D"})
        assert renamed.clock == "A.x" and renamed.other == "A.y"
        assert renamed.rhs.variables() == {"A.D"}
