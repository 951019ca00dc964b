"""Trace concretisation: from symbolic zones to explicit timed schedules.

A symbolic trace produced by the reachability engine fixes the *discrete*
run (which transitions fired, in which order) but leaves the firing times
symbolic — each :class:`~repro.core.successors.SymbolicState` carries a whole
zone of clock valuations.  This module picks one concrete, integer firing
time per transition such that every guard, every invariant (at entry *and*
over the whole delay), every urgency constraint and every reset along the
trace is honoured — the diagnostic-trace concretisation step of the UPPAAL
workflow the paper relies on.

The solver builds a *schedule DBM* over the absolute transition times
``T_1 .. T_n`` (the DBM reference clock is the start instant ``T_0 = 0``).
The key observation is that every constraint of the trace is a difference
constraint over the ``T_k``: with ``(r, v)`` the step index and value of the
last reset of clock ``x`` before transition ``k``, the value of ``x`` at
``T_k`` is ``v + T_k - T_r``, so a guard ``x_i - x_j ⋈ c`` becomes
``T_{r_j} - T_{r_i} ⋈ c - v_i + v_j`` — one entry of the schedule DBM.  This
exploits the existing int64 DBM kernels (the incremental rank-1
``constrain``), so concretising even long traces stays a handful of
vectorised operations per constraint.

Because the schedule DBM replays the trace *without* extrapolation, a
feasible system is a proof that the symbolic trace is concretely realisable;
an infeasible one (impossible for traces of this library's diagonal-free
models, but checked anyway) raises :class:`~repro.util.errors.WitnessError`
rather than emitting a bogus schedule.

Three delay strategies choose within the feasible polytope: ``"earliest"``
(greedy minimal firing times), ``"latest"`` (maximal, falling back to the
lower bound where a time is unbounded above) and ``"midpoint"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from repro.core.dbm import (
    DBM,
    INFINITY_RAW,
    LE_ZERO,
    bound,
    bound_is_strict,
    bound_value,
)
from repro.core.network import CompiledNetwork
from repro.core.reachability import Trace
from repro.core.successors import SuccessorGenerator
from repro.util.errors import WitnessError

__all__ = ["STRATEGIES", "ConcretisedStep", "Concretisation", "concretise_trace"]

#: the supported delay-selection strategies
STRATEGIES: tuple[str, ...] = ("earliest", "latest", "midpoint")


@dataclass(frozen=True)
class ConcretisedStep:
    """One transition of a concretised trace, with explicit times."""

    #: 1-based transition index (``trace.steps[index]`` is the target state)
    index: int
    #: absolute firing time in model ticks
    time: int
    #: time spent in the source state before this transition fired
    delay: int
    #: "internal" | "binary" | "broadcast"
    kind: str
    channel: str | None
    #: participating edges as (instance, source location, target location)
    edges: tuple[tuple[str, str, str], ...]
    #: evaluated clock resets applied by the transition (clock id, value)
    resets: tuple[tuple[int, int], ...]
    #: concrete clock valuation just before the transition (post-delay),
    #: indexed by network clock id (entry 0 is the constant-zero reference)
    before: tuple[int, ...] = ()
    #: concrete clock valuation just after the transition (post-reset)
    after: tuple[int, ...] = ()


@dataclass(frozen=True)
class Concretisation:
    """A fully timed instantiation of one symbolic trace."""

    strategy: str
    #: absolute times ``T_0 .. T_n`` (``T_0`` is always 0)
    times: tuple[int, ...]
    steps: tuple[ConcretisedStep, ...]

    @property
    def total_ticks(self) -> int:
        return self.times[-1] if self.times else 0


def _schedule_dim(count: int) -> int:
    """Round the schedule-DBM dimension up to a power of two.

    The numpy fallback of the zone kernels keeps scratch buffers for one
    dimension at a time; traces come in arbitrary lengths, so rounding lets
    traces of similar lengths reuse one dimension's buffers instead of
    rebuilding them per trace length.  The unused trailing variables stay
    unconstrained and never affect the used entries.
    """
    return max(4, 1 << (int(count) - 1).bit_length())


class _ScheduleSystem:
    """The difference-constraint system over the transition times."""

    def __init__(self, count: int):
        self.count = count
        self.dbm = DBM(_schedule_dim(count))

    def constrain(self, a: int, b: int, raw: int, what: str) -> None:
        """Impose ``T_a - T_b (raw)``; raise with context when infeasible."""
        if a == b:
            # constant constraint 0 ⋈ c
            if raw < LE_ZERO:
                raise WitnessError(f"trace is not concretisable: {what} is contradictory")
            return
        if not self.dbm.constrain(a, b, raw):
            raise WitnessError(
                f"trace is not concretisable: {what} contradicts the earlier constraints"
            )

    def bounds(self, k: int) -> tuple[int, int | None]:
        """Current integer bounds ``[lo, hi]`` of ``T_k`` (``hi=None``: unbounded)."""
        lo_raw = self.dbm.get(0, k)  # T_0 - T_k <= c  ⇒  T_k >= -c
        lo = -bound_value(lo_raw) + (1 if bound_is_strict(lo_raw) else 0)
        hi_raw = self.dbm.get(k, 0)
        if hi_raw >= INFINITY_RAW:
            return lo, None
        hi = bound_value(hi_raw) - (1 if bound_is_strict(hi_raw) else 0)
        return lo, hi

    def fix(self, k: int, value: int) -> None:
        feasible = self.dbm.constrain(k, 0, bound(value)) and self.dbm.constrain(
            0, k, bound(-value)
        )
        if not feasible:
            raise WitnessError(
                f"internal error: fixing T_{k} = {value} emptied the schedule system"
            )


def _matched_plans(generator: SuccessorGenerator, trace: Trace) -> list:
    """Re-identify the fired plan of every transition of *trace*.

    Matching is by target discrete state plus the recorded transition label;
    plans are the memoised, fully evaluated firing combinations of the
    successor generator, so the returned objects carry concrete raw guards,
    resets and target vectors.
    """
    plans = []
    for k in range(1, len(trace.steps)):
        parent = trace.steps[k - 1].state
        child = trace.steps[k]
        info = generator.plan_info(parent.locations, parent.variables)
        key = child.state.discrete_bytes()
        candidates = [
            i for i, plan in enumerate(info.plans)
            if plan.key_bytes == key and plan.error is None
        ]
        chosen = None
        if child.label is not None:
            for i in candidates:
                if generator._plan_label(info, i) == child.label:
                    chosen = info.plans[i]
                    break
        if chosen is None and len(candidates) == 1:
            chosen = info.plans[candidates[0]]
        if chosen is None:
            raise WitnessError(
                f"step {k}: cannot re-identify the fired transition "
                f"({len(candidates)} candidate plans match the discrete target)"
            )
        plans.append(chosen)
    return plans


def _clock_term(records, t: int, clock: int) -> tuple[int, int]:
    """``(variable, offset)`` such that the clock's value at ``T_t`` is
    ``offset + T_t - T_variable`` (the reference clock is constantly zero)."""
    if clock == 0:
        return t, 0
    return records[clock]


def concretise_trace(
    network: CompiledNetwork,
    trace: Trace,
    strategy: str = "earliest",
    final_clock_values: Mapping[int, int] | None = None,
    generator: SuccessorGenerator | None = None,
    max_seconds: float | None = None,
) -> Concretisation:
    """Pick concrete integer firing times for every transition of *trace*.

    ``final_clock_values`` pins the value of named clocks at the final
    transition time (clock id -> exact value); WCRT witnesses use it to force
    the observer clock to the reported worst case, so the returned schedule
    *attains* the claimed response time rather than merely staying feasible.

    ``max_seconds`` is a cooperative wall-clock budget over the
    constraint-building and time-fixing loops (checked once per
    transition); exceeding it raises :class:`WitnessError` -- long traces
    over wide schedule DBMs are the one witness stage that can run away.
    """
    if strategy not in STRATEGIES:
        raise WitnessError(f"unknown delay strategy {strategy!r} (expected {STRATEGIES})")
    if not trace.steps:
        raise WitnessError("cannot concretise an empty trace")
    deadline = (
        time.perf_counter() + max_seconds if max_seconds is not None else None
    )

    def check_deadline(k: int, stage: str) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise WitnessError(
                f"witness concretisation exceeded its {max_seconds}s budget "
                f"({stage}, transition {k} of {len(trace.steps) - 1})"
            )
    generator = generator or SuccessorGenerator(network)
    n = len(trace.steps) - 1
    plans = _matched_plans(generator, trace)
    infos = [
        generator._discrete_info(step.state.locations, step.state.variables)
        for step in trace.steps
    ]

    system = _ScheduleSystem(n + 1)
    #: per network clock: (transition index of last reset, reset value)
    records: list[tuple[int, int]] = [(0, 0)] * network.dim

    def apply(i: int, j: int, raw: int, t: int, what: str) -> None:
        var_i, off_i = _clock_term(records, t, i)
        var_j, off_j = _clock_term(records, t, j)
        system.constrain(var_j, var_i, raw - 2 * off_i + 2 * off_j, what)

    # invariants of the initial state hold at its entry (time 0)
    for i, j, raw in infos[0].invariants:
        apply(i, j, raw, 0, "initial invariant")

    for k in range(1, n + 1):
        check_deadline(k, "building constraints")
        plan = plans[k - 1]
        system.constrain(k - 1, k, LE_ZERO, f"time monotonicity at step {k}")
        if infos[k - 1].urgent:
            # no delay in urgent states (committed/urgent locations,
            # enabled urgent-channel synchronisations)
            system.constrain(k, k - 1, LE_ZERO, f"urgency of state {k - 1}")
        # the source state's upper-bound invariants must survive the
        # delay, i.e. still hold at the exit instant (lower-bound and
        # difference invariants are monotone/constant under delay and
        # were imposed at entry)
        for i, j, raw in infos[k - 1].invariants:
            if j == 0:
                apply(i, j, raw, k, f"invariant of state {k - 1} at exit")
        for i, j, raw in plan.guards:
            apply(i, j, raw, k, f"guard of step {k}")
        for clock, value in plan.resets:
            records[clock] = (k, value)
        for i, j, raw in infos[k].invariants:
            apply(i, j, raw, k, f"invariant of state {k} at entry")

    if final_clock_values:
        for clock, value in final_clock_values.items():
            var, off = _clock_term(records, n, clock)
            system.constrain(n, var, bound(value - off),
                             f"pinned final value of clock {clock}")
            system.constrain(var, n, bound(-(value - off)),
                             f"pinned final value of clock {clock}")

    # fix the times front to back; the schedule DBM stays canonical, so
    # any integer within the current bounds keeps the tail feasible
    times = [0] * (n + 1)
    for k in range(1, n + 1):
        check_deadline(k, "fixing firing times")
        lo, hi = system.bounds(k)
        if hi is not None and hi < lo:
            raise WitnessError(
                f"no integer firing time exists for transition {k} "
                f"(bounds collapsed to ({lo}, {hi}))"
            )
        if strategy == "earliest" or hi is None:
            value = lo
        elif strategy == "latest":
            value = hi
        else:  # midpoint
            value = (lo + hi) // 2
        system.fix(k, value)
        times[k] = value

    # replay the reset records against the fixed times to obtain the
    # concrete clock valuations around every transition
    records = [(0, 0)] * network.dim
    steps: list[ConcretisedStep] = []
    for k in range(1, n + 1):
        plan = plans[k - 1]
        before = tuple(
            0 if clock == 0 else records[clock][1] + times[k] - times[records[clock][0]]
            for clock in range(network.dim)
        )
        for clock, value in plan.resets:
            records[clock] = (k, value)
        after = tuple(
            0 if clock == 0 else records[clock][1] + times[k] - times[records[clock][0]]
            for clock in range(network.dim)
        )
        edges = tuple(
            (
                network.instances[edge.instance].name,
                network.instances[edge.instance].locations[edge.source].name,
                network.instances[edge.instance].locations[edge.target].name,
            )
            for edge in plan.participants
        )
        steps.append(
            ConcretisedStep(
                index=k,
                time=times[k],
                delay=times[k] - times[k - 1],
                kind=plan.kind,
                channel=plan.channel,
                edges=edges,
                resets=tuple(plan.resets),
                before=before,
                after=after,
            )
        )

    return Concretisation(strategy=strategy, times=tuple(times), steps=tuple(steps))
