"""Exploration statistics collected by the reachability engine.

The paper discusses verification effort (state-space sizes, the event models
for which exhaustive search becomes infeasible, the fall-back to depth-first
"structured testing").  These counters are what the exploration-effort
benchmark (``test_exploration_effort`` in
``benchmarks/bench_templates_and_ablation.py``) reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["ExplorationStatistics"]


@dataclass
class ExplorationStatistics:
    """Counters describing one exploration run."""

    #: symbolic states popped from the waiting list and expanded
    states_explored: int = 0
    #: symbolic states currently retained in the passed list
    states_stored: int = 0
    #: discrete successor transitions generated
    transitions: int = 0
    #: successors discarded because an already-stored zone included them
    inclusions: int = 0
    #: inclusion discards that happened while LU extrapolation was active
    #: (the coarser Extra_LU zones subsume states the max-bounds grid keeps)
    states_subsumed_lu: int = 0
    #: successor keys rewritten to a different canonical representative by
    #: the symmetry reduction
    keys_folded: int = 0
    #: maximum length reached by the waiting list
    peak_waiting: int = 0
    #: forked partitions the layered core ran with (0 = in-process); the
    #: shard counters are topology observations, not exploration semantics,
    #: so they are excluded from equality comparisons -- a forked run must
    #: compare equal to its in-process and scalar twins on everything else
    shard_workers: int = field(default=0, compare=False)
    #: successor candidates handed off to a different shard (the generating
    #: worker did not own the target discrete key)
    shard_handoffs: int = field(default=0, compare=False)
    #: always 0 (frontier states never move between partitions).  Kept only
    #: because perfbench/tracing.py (``ExploreTotals.add``) reads it on every
    #: ``serve-analyze`` unit through ``Tracer(EXPLORE_TARGETS)``: deleting it
    #: fails that workload, and perfbench/ changes only with the benchmark
    shard_steals: int = field(default=0, compare=False)
    #: wall-clock duration of the exploration in seconds
    elapsed_seconds: float = 0.0
    #: why the exploration stopped: "exhausted", "goal", "state-budget",
    #: "time-budget"
    termination: str = "exhausted"
    #: search order that was used
    search_order: str = "bfs"

    _started_at: float | None = field(default=None, repr=False, compare=False)

    # -- timing helpers -----------------------------------------------------
    def start_timer(self) -> None:
        self._started_at = time.perf_counter()

    def stop_timer(self) -> None:
        if self._started_at is not None:
            self.elapsed_seconds = time.perf_counter() - self._started_at

    @property
    def exhaustive(self) -> bool:
        """True when the whole reachable state space was explored."""
        return self.termination in ("exhausted", "goal")

    @property
    def states_per_second(self) -> float:
        """Exploration throughput (0.0 when no time was measured)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.states_explored / self.elapsed_seconds

    def merge(self, other: "ExplorationStatistics") -> None:
        """Accumulate the counters of another run (used by multi-run queries
        such as the WCRT binary search); timing adds up, peaks take the max."""
        self.states_explored += other.states_explored
        self.states_stored += other.states_stored
        self.transitions += other.transitions
        self.inclusions += other.inclusions
        self.states_subsumed_lu += other.states_subsumed_lu
        self.keys_folded += other.keys_folded
        self.elapsed_seconds += other.elapsed_seconds
        self.peak_waiting = max(self.peak_waiting, other.peak_waiting)
        self.shard_workers = max(self.shard_workers, other.shard_workers)
        self.shard_handoffs += other.shard_handoffs

    def reduction_counters(self) -> dict:
        """The non-zero reduction counters (``docs/reductions.md``)."""
        counters = {
            "states_subsumed_lu": self.states_subsumed_lu,
            "keys_folded": self.keys_folded,
        }
        return {name: value for name, value in counters.items() if value}

    def shard_counters(self) -> dict:
        """The non-zero shard counters (``docs/performance.md``).

        Zeros are dropped for the same reason as the reduction counters:
        in-process runs (and every trajectory point built from them) keep
        the exact pre-sharding format.
        """
        counters = {
            "shard_workers": self.shard_workers,
            "shard_handoffs": self.shard_handoffs,
        }
        return {name: value for name, value in counters.items() if value}

    def as_dict(self) -> dict:
        """Plain-dict view used by report formatting and benchmarks.

        The reduction counters only appear when a reduction actually acted,
        so the dict (and every trajectory point built from it) keeps the
        exact pre-reduction format on unreduced runs.
        """
        return {
            "states_explored": self.states_explored,
            "states_stored": self.states_stored,
            "transitions": self.transitions,
            "inclusions": self.inclusions,
            **self.reduction_counters(),
            **self.shard_counters(),
            "peak_waiting": self.peak_waiting,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "states_per_second": round(self.states_per_second, 1),
            "termination": self.termination,
            "search_order": self.search_order,
        }

    def __str__(self) -> str:
        return (
            f"{self.states_explored} states explored, {self.states_stored} stored, "
            f"{self.transitions} transitions, {self.elapsed_seconds:.3f}s "
            f"({self.termination}, {self.search_order})"
        )
