"""Worst-case response time (WCRT) extraction.

The paper finds the WCRT of a scenario by binary-searching for the smallest
constant ``C`` such that

    A[] (observer.seen  =>  observer.y < C)                    (Property 1)

holds.  This module implements that procedure
(:func:`wcrt_binary_search`) and, as the default, a single-pass alternative
(:func:`wcrt_sup`): a ``sup`` query over the observer clock restricted to the
states in which a measurement completes.  Both agree on models whose state
space can be explored exhaustively — a fact exercised by the test suite — but
the single-pass query needs one exploration instead of ``log2(hi - lo)``.

When the exploration budget is exhausted first, the result is flagged as a
*lower bound*, reproducing the ``> x (df/rdf)`` entries of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import expressions as ex
from repro.core.guards import ClockConstraint
from repro.core.network import CompiledNetwork
from repro.core.properties import AG, EF, And, ClockProp, Not, Or, StateFormula, Sup
from repro.core.reachability import SearchOptions, Trace
from repro.core.shard import select_explorer
from repro.core.statistics import ExplorationStatistics
from repro.core.successors import SemanticsOptions
from repro.util.errors import AnalysisError

__all__ = ["WCRTResult", "wcrt_sup", "wcrt_binary_search"]


@dataclass
class WCRTResult:
    """A worst-case response time in model time units."""

    #: the WCRT value (or best known lower bound); None if the measured
    #: response never occurred in the explored state space
    value: int | None
    #: True when the value is only a lower bound on the true WCRT
    is_lower_bound: bool
    #: True when the value is attained by some run (weak bound)
    attained: bool
    #: "sup" or "binary-search"
    method: str
    statistics: ExplorationStatistics
    trace: Trace | None = None

    def __str__(self) -> str:
        if self.value is None:
            return "WCRT: no response observed"
        prefix = "> " if self.is_lower_bound else ""
        return f"WCRT {prefix}{self.value} ({self.method}, {self.statistics})"


def wcrt_sup(
    network: CompiledNetwork,
    observer_clock: str,
    condition: StateFormula,
    ceiling: int,
    semantics: SemanticsOptions | None = None,
    search: SearchOptions | None = None,
) -> WCRTResult:
    """Compute the WCRT with a single-pass ``sup`` query.

    Parameters
    ----------
    network:
        the compiled network including the measuring observer.
    observer_clock:
        qualified name of the observer clock (e.g. ``"Obs.y"``).
    condition:
        state formula identifying the states in which a measured response has
        just been observed (e.g. ``LocationProp("Obs", "seen")``).
    ceiling:
        extrapolation ceiling for the observer clock; must be at least the
        latency requirement being checked.  Values above the ceiling are
        reported as lower bounds.
    """
    explorer = select_explorer(network, semantics, search)
    result = explorer.sup(Sup(observer_clock, condition, ceiling))
    return WCRTResult(
        value=result.value,
        is_lower_bound=result.is_lower_bound,
        attained=result.attained,
        method="sup",
        statistics=result.statistics,
        trace=result.trace,
    )


def wcrt_binary_search(
    network: CompiledNetwork,
    observer_clock: str,
    condition: StateFormula,
    lo: int,
    hi: int,
    semantics: SemanticsOptions | None = None,
    search: SearchOptions | None = None,
) -> WCRTResult:
    """Compute the WCRT with the paper's binary search over Property 1.

    Searches for the smallest ``C`` in ``(lo, hi]`` such that
    ``A[] (condition => observer_clock < C)`` holds and returns ``C - 1``
    (the supremum, which for the integer-bounded models of this library is
    attained).  Raises :class:`~repro.util.errors.AnalysisError` when even
    ``hi`` does not satisfy the property — the caller chose the interval too
    small — and flags the result as a lower bound when any of the underlying
    explorations was cut short by its budget.  An undecided probe proves
    nothing, so it only moves the search downward; the lower bound is then
    the largest ``C`` proven violated (or ``lo``), and the statistics carry
    the termination of the first probe that was cut short.

    Every probe, the witness ``EF`` probe included, runs on one explorer
    (:func:`~repro.core.shard.select_explorer`, called once per search).
    Its successor generator therefore evaluates each discrete state's
    firing plans, invariants and urgency once per search, not once per
    probe.  Sharing it changes no verdict, trace or statistics counter: a
    plan depends only on the network and the discrete key, and a probe's
    clock constant (registered for that probe only) reaches the zones only
    through extrapolation grids keyed by ``network.max_constants_version``.
    Forked partitions build plans in their children, which exit after each
    probe, so a sharded search still rebuilds them per probe.

    Interval soundness
    ------------------
    ``lo`` must be a value at which Property 1 is *known to fail* — i.e. a
    certified lower bound on the WCRT.  A response of ``L`` ticks observed
    in any concrete run (e.g. a DES trace) certifies ``lo = L``: the state
    ``condition and observer_clock >= L`` is reachable, so the property
    fails for every ``C <= L``.  ``hi`` must be a value at which the
    property *holds* — any sound upper bound plus one (e.g. a SymTA/MPA
    analytic bound + 1, as chosen by :mod:`repro.portfolio.guided`).  ``hi``
    doubles as the observer-clock extrapolation ceiling for the whole
    search (registered as a query constant), so a tighter upper bound also
    shrinks every iteration's symbolic state space.  The defaults used by
    :func:`repro.arch.analysis.analyze_wcrt` — ``lo = 0`` and ``hi = 2 x
    requirement bound`` — are always safe but explore the most states.
    """
    if lo < 0 or hi <= lo:
        raise AnalysisError(f"invalid WCRT search interval ({lo}, {hi}]")

    total_stats = ExplorationStatistics(search_order=(search.order if search else "bfs"))
    cut_short = None  # termination of the first exploration a budget stopped
    # one explorer for every probe, so its discrete memo carries over
    explorer = select_explorer(network, semantics, search)

    def check(query):
        nonlocal cut_short
        outcome = explorer.check(query)
        total_stats.merge(outcome.statistics)
        if outcome.holds is None and cut_short is None:
            cut_short = outcome.statistics.termination
        return outcome

    def property_holds(c: int) -> bool | None:
        formula = Or(Not(condition), ClockProp(
            ClockConstraint(observer_clock, "<", ex.IntConst(int(c)))
        ))
        return check(AG(formula)).holds

    # the observer ceiling is only meaningful for this search: scope it so
    # later queries on the same network see the original abstraction
    saved_constants = network.query_constants_snapshot()
    try:
        network.register_query_constant(observer_clock, hi)

        if property_holds(hi) is False:
            raise AnalysisError(
                f"WCRT exceeds the search interval: "
                f"A[] ({condition} => {observer_clock} < {hi}) is violated"
            )

        # invariant: the property fails at `low` (proven, or `lo` by the
        # caller's certificate) and holds -- or is undecided -- at `high`
        low, high = lo, hi
        while high - low > 1:
            mid = (low + high) // 2
            if property_holds(mid) is False:
                low = mid
            else:
                high = mid  # holds, or undecided: search below for a proof

        # witness extraction: the WCRT `low` is attained, so a state with
        # `condition && observer_clock >= low` is reachable; one more
        # (goal-directed, hence cheap) exploration records the trace to it,
        # giving the binary search the same witness capability as `sup`
        trace: Trace | None = None
        undecided = cut_short is not None
        if search is not None and search.record_traces and not undecided:
            witness_outcome = check(EF(And(condition, ClockProp(
                ClockConstraint(observer_clock, ">=", ex.IntConst(int(low)))
            ))))
            if witness_outcome.holds is not True:
                undecided = True
            else:
                trace = witness_outcome.trace
    finally:
        network.restore_query_constants(saved_constants)

    total_stats.termination = cut_short or "exhausted"
    return WCRTResult(
        value=low,
        is_lower_bound=undecided,
        attained=not undecided,
        method="binary-search",
        statistics=total_stats,
        trace=trace,
    )
