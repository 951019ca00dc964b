"""The parallel scenario-sweep runner.

Fans a list of :class:`~repro.sweep.cells.SweepCell` analyses across worker
processes and aggregates the results into a ``repro-bench-v1`` trajectory
(:mod:`repro.perf.trajectory`).  Design points:

* **Spawn-safe workers.**  The default start method is ``spawn``: workers
  import :mod:`repro` afresh, so every process owns a private
  scratch-buffer cache and discrete-plan memo -- nothing is shared, nothing
  can alias.  ``fork`` (cheaper on Linux) is also supported; the worker
  initialiser then empties the kernel caches
  (:func:`repro.core.dbm.reset_process_caches`, also registered as an
  ``os.register_at_fork`` hook) so a worker never runs on caches
  snapshotted mid-mutation from the parent.
* **Cells in, primitives out.**  Cells carry only strings and ints; results
  come back as flat :class:`CellResult` records (verdicts, state counts,
  throughput), never compiled networks or zones.  Workers cache the model
  built by each cell's factory, so a worker that receives several cells of
  one sweep pays the architecture generation once.
* **Serial fallback.**  ``workers=1`` (or a single cell) runs in-process
  with identical semantics -- the mode the correctness tests pin against
  the parallel runs.
* **Supervised execution.**  Multiprocess dispatch goes through the one
  :class:`repro.sweep.supervisor.WorkerPool` (the pool ``repro-serve``
  runs its jobs on) rather than a bare ``Pool.map``: workers are
  crash-isolated, hard per-cell deadlines are enforced by SIGKILL,
  transient worker deaths are retried with backoff, and (opt-in via
  :class:`~repro.sweep.supervisor.SupervisorConfig`) unrecoverable cells
  degrade to analytic bounds or are quarantined instead of sinking the
  sweep.  Progress can be journaled to a ``repro-checkpoint-v1`` file
  (:mod:`repro.sweep.checkpoint`) and resumed after an interruption with a
  deterministic merge.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
from repro.casestudy.configurations import apply_policy_variant, configure
from repro.perf import verify_anchors, write_bench_json
from repro.sweep.cells import DiffCheckCell, SweepCell
from repro.sweep.checkpoint import CheckpointJournal
from repro.sweep.faults import maybe_inject
from repro.util.errors import AnalysisError

__all__ = ["CellResult", "SweepResult", "cell_model", "run_cell", "run_sweep",
           "verify_cells"]


@dataclass(frozen=True)
class CellResult:
    """Flat, picklable outcome of one sweep cell."""

    name: str
    requirement: str
    combination: str | None
    configuration: str | None
    #: WCRT in model ticks (or best lower bound); None when unobserved
    wcrt_ticks: int | None
    #: the same value in milliseconds
    wcrt_ms: float | None
    #: True when the WCRT is only a lower bound (budgeted exploration)
    is_lower_bound: bool
    #: requirement verdict (None when undecidable from a lower bound)
    satisfied: bool | None
    states_explored: int
    states_stored: int
    transitions: int
    inclusions: int
    explore_seconds: float
    states_per_second: float
    termination: str
    #: wall-clock seconds of the whole cell (generation + exploration)
    wall_seconds: float
    #: pid of the worker that ran the cell (observability)
    worker_pid: int
    #: reduction counters (docs/reductions.md); zero when the corresponding
    #: reduction is off or never fired (dropped from trajectory points then)
    states_subsumed_lu: int = 0
    keys_folded: int = 0
    #: forked-partition topology counters (docs/performance.md); zero when
    #: the cell ran in-process (dropped from trajectory points then)
    shard_workers: int = 0
    shard_handoffs: int = 0
    shard_steals: int = 0
    #: cell kind: "wcrt" (table analysis) or "diffcheck" (fuzzing window)
    kind: str = "wcrt"
    #: diffcheck cells only: models that went through all four engines
    models_checked: int = 0
    #: diffcheck cells only: models where the TA engine failed but the
    #: robust engines still asserted the partial ordering
    models_degraded: int = 0
    #: diffcheck cells only: soundness-ordering violations found
    violations: int = 0
    #: diffcheck cells only: counterexample JSON paths written by the worker
    counterexamples: tuple[str, ...] = ()
    #: diffcheck cells only: sampled models per wall-clock second
    models_per_second: float = 0.0
    #: diffcheck cells only: (policy name, checked-model count) pairs
    policy_mix: tuple[tuple[str, int], ...] = ()
    #: witnesses built for this cell (diffcheck: per counterexample; wcrt
    #: cells: one per requested strategy) / of those, fully validated
    witnesses_attempted: int = 0
    witnesses_validated: int = 0
    #: per-strategy reasons for witnesses that failed to build or validate
    witness_problems: tuple[str, ...] = ()
    #: dispatch attempts the cell consumed (>1 after supervised retries)
    attempts: int = 1
    #: why the exact run failed, for degraded/quarantined cells
    failure: str = ""
    #: degraded cells only: DES lower bound on the requirement's WCRT
    degraded_lower_ticks: int | None = None
    degraded_lower_ms: float | None = None
    #: degraded cells only: tightest SymTA/MPA upper bound
    degraded_upper_ticks: int | None = None
    degraded_upper_ms: float | None = None
    #: True when the cell ran bound-guided (repro.portfolio.guided)
    guided: bool = False
    #: guided cells only: the analytic upper bound that clamped the ceiling
    analytic_upper_ticks: int | None = None

    @property
    def usable(self) -> bool:
        """True when the cell carries data (exact or degraded bounds)."""
        return self.termination != "quarantined"

    def point(self) -> dict:
        """The cell as a ``repro-bench-v1`` trajectory point."""
        out = asdict(self)
        for dropped in ("name", "requirement", "combination", "configuration"):
            out.pop(dropped)
        diffcheck_keys = ("models_checked", "models_degraded", "violations",
                          "counterexamples", "models_per_second", "policy_mix")
        # reduction counters only appear when a reduction actually acted, so
        # the trajectory format of unreduced runs is unchanged
        for counter in ("states_subsumed_lu", "keys_folded"):
            if not out[counter]:
                out.pop(counter)
        # shard counters only appear for sharded cells, so the trajectory
        # format of scalar runs is unchanged
        for counter in ("shard_workers", "shard_handoffs", "shard_steals"):
            if not out[counter]:
                out.pop(counter)
        if not self.witnesses_attempted:
            out.pop("witnesses_attempted")
            out.pop("witnesses_validated")
        if not self.witness_problems:
            out.pop("witness_problems")
        else:
            out["witness_problems"] = list(self.witness_problems)
        # supervision fields only appear when the supervisor had to act, so
        # the trajectory format of a clean run is unchanged
        if self.attempts == 1:
            out.pop("attempts")
        if not self.failure:
            out.pop("failure")
        for bound in ("degraded_lower_ticks", "degraded_lower_ms",
                      "degraded_upper_ticks", "degraded_upper_ms"):
            if out[bound] is None:
                out.pop(bound)
        # guided fields only appear on guided cells, so the trajectory
        # format of unguided runs is unchanged
        if not self.guided:
            out.pop("guided")
            out.pop("analytic_upper_ticks")
        if self.kind == "diffcheck":
            # WCRT-specific fields (and the per-exploration counters the
            # campaign does not aggregate) carry no signal for a fuzzing window
            for dropped in ("wcrt_ticks", "wcrt_ms", "is_lower_bound", "satisfied",
                            "states_stored", "transitions", "inclusions"):
                out.pop(dropped)
            out["counterexamples"] = list(self.counterexamples)
            out["models_per_second"] = round(self.models_per_second, 2)
            out["policy_mix"] = dict(self.policy_mix)
        else:
            for dropped in ("kind", *diffcheck_keys):
                out.pop(dropped)
        out["states_per_second"] = round(self.states_per_second, 1)
        out["explore_seconds"] = round(self.explore_seconds, 4)
        out["wall_seconds"] = round(self.wall_seconds, 4)
        return out


#: per-process cache of architecture models, keyed by factory dotted path
_MODEL_CACHE: dict[str, object] = {}


def _resolve_factory(path: str) -> Callable:
    module_name, _, attribute = path.rpartition(".")
    if not module_name:
        raise AnalysisError(f"model factory {path!r} is not a dotted path")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attribute)
    except AttributeError as exc:
        raise AnalysisError(f"model factory {path!r} not found") from exc


def _worker_model(path: str):
    model = _MODEL_CACHE.get(path)
    if model is None:
        model = _resolve_factory(path)()
        _MODEL_CACHE[path] = model
    return model


def _worker_init() -> None:
    """Initialise a sweep worker: empty kernel caches and model cache.

    Under ``spawn`` this is a cheap no-op (the fresh interpreter starts
    empty); under ``fork`` it re-establishes the invariants of the inherited
    module state, complementing the ``os.register_at_fork`` hook for pool
    implementations spawned through other entry points.
    """
    from repro.core.dbm import reset_process_caches

    reset_process_caches()
    _MODEL_CACHE.clear()


def _run_diffcheck_cell(cell: DiffCheckCell, attempt: int = 1) -> CellResult:
    """Run one differential-fuzzing seed window in the current process."""
    # imported lazily: table sweeps must not pay for (or depend on) diffcheck
    from repro.diffcheck.campaign import CampaignConfig, run_campaign

    started = time.perf_counter()
    campaign = run_campaign(
        cell.seed_start, cell.count, CampaignConfig.from_dict(dict(cell.config))
    )
    wall = time.perf_counter() - started
    return CellResult(
        name=cell.name,
        requirement="R0",
        combination=None,
        configuration=None,
        wcrt_ticks=None,
        wcrt_ms=None,
        is_lower_bound=False,
        satisfied=None,
        states_explored=campaign.total_ta_states,
        states_stored=0,
        transitions=0,
        inclusions=0,
        explore_seconds=campaign.wall_seconds,
        states_per_second=campaign.states_per_second,
        termination="violations" if campaign.violations else "ok",
        wall_seconds=wall,
        worker_pid=os.getpid(),
        kind="diffcheck",
        models_checked=campaign.models_checked,
        models_degraded=campaign.degraded,
        violations=campaign.violations,
        counterexamples=tuple(campaign.counterexamples),
        models_per_second=campaign.models_per_second,
        policy_mix=tuple(sorted(campaign.policy_mix.items())),
        witnesses_attempted=campaign.witnesses_attempted,
        witnesses_validated=campaign.witnesses_validated,
        attempts=attempt,
    )


def cell_model(cell: SweepCell):
    """Build (or fetch from the worker cache) the cell's configured model."""
    model = _worker_model(cell.model_factory)
    if cell.combination is not None:
        model = configure(
            model, cell.combination, cell.configuration, policy=cell.policy or "fp"
        )
    elif cell.policy is not None:
        model = apply_policy_variant(model, cell.policy)
    return model


def run_cell(cell: "SweepCell | DiffCheckCell", *, index: int = 0,
             attempt: int = 1, deadline: float | None = None) -> CellResult:
    """Run one cell in the current process and return its flat result.

    *index*/*attempt* identify the dispatch for the fault-injection hooks
    (:mod:`repro.sweep.faults`); *deadline* is an absolute
    ``time.perf_counter`` instant propagated into the engines' cooperative
    deadline checks (the serial complement of the supervisor's hard kill).
    """
    maybe_inject(cell.name, index, attempt, stage="worker")
    runner = getattr(cell, "run_in_worker", None)
    if runner is not None:
        # duck-typed dispatch: the analysis service ships its jobs through
        # the same supervised-worker protocol as sweep cells (and past the
        # same fault hook above, so chaos plans can target them by name)
        return runner(index=index, attempt=attempt, deadline=deadline)
    if isinstance(cell, DiffCheckCell):
        # a diffcheck window budgets itself per model (OracleConfig
        # max_seconds); the hard per-cell deadline is the supervisor's job
        return _run_diffcheck_cell(cell, attempt)
    started = time.perf_counter()
    model = cell_model(cell)
    settings = TimedAutomataSettings(**dict(cell.settings))
    if deadline is not None:
        settings.deadline = deadline
    if cell.witness is not None and not settings.record_traces:
        settings.record_traces = True
    analytic_upper_ticks: int | None = None
    if cell.guided:
        # clamp the exact exploration with the cheap engines' bounds (same
        # WCRT, fewer states -- docs/portfolio.md); the DES lower bound is
        # only worth its runs when the binary search can consume it
        from repro.portfolio.bounds import analytic_upper_bounds, des_lower_bound, tightest
        from repro.portfolio.guided import guided_settings

        analytic, _notes = analytic_upper_bounds(model, cell.requirement)
        upper = tightest(analytic, "upper")
        lower = None
        if settings.method in ("binary", "binary-search"):
            lower, _des_notes = des_lower_bound(
                model, cell.requirement, runs=2, max_seconds=5.0, deadline=deadline
            )
        settings = guided_settings(settings, upper, lower)
        analytic_upper_ticks = None if upper is None else upper.value_ticks
    analysis = analyze_wcrt(model, cell.requirement, settings)
    witnesses_attempted = witnesses_validated = 0
    witness_problems: list[str] = []
    if cell.witness is not None:
        # build + doubly validate a concrete schedule per requested strategy
        from repro.witness import STRATEGIES, build_witness, validate_witness

        strategies = STRATEGIES if cell.witness == "all" else (cell.witness,)
        for strategy in strategies:
            witnesses_attempted += 1
            remaining = (
                None if deadline is None
                else max(0.05, deadline - time.perf_counter())
            )
            try:
                run = build_witness(model, analysis, strategy,
                                    max_seconds=remaining)
            except AnalysisError as exc:
                witness_problems.append(f"{strategy}: {exc}")
                continue
            validation = validate_witness(model, run, analysis.generated)
            if validation.ok:
                witnesses_validated += 1
            else:
                witness_problems.append(f"{strategy}: {validation.describe()}")
    stats = analysis.detail.statistics
    return CellResult(
        name=cell.name,
        requirement=cell.requirement,
        combination=cell.combination,
        configuration=cell.configuration,
        wcrt_ticks=analysis.wcrt_ticks,
        wcrt_ms=analysis.wcrt_ms,
        is_lower_bound=analysis.is_lower_bound,
        satisfied=analysis.satisfied,
        states_explored=stats.states_explored,
        states_stored=stats.states_stored,
        transitions=stats.transitions,
        inclusions=stats.inclusions,
        states_subsumed_lu=stats.states_subsumed_lu,
        keys_folded=stats.keys_folded,
        shard_workers=stats.shard_workers,
        shard_handoffs=stats.shard_handoffs,
        shard_steals=stats.shard_steals,
        explore_seconds=stats.elapsed_seconds,
        states_per_second=stats.states_per_second,
        termination=stats.termination,
        wall_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
        witnesses_attempted=witnesses_attempted,
        witnesses_validated=witnesses_validated,
        witness_problems=tuple(witness_problems),
        attempts=attempt,
        guided=cell.guided,
        analytic_upper_ticks=analytic_upper_ticks,
    )


@dataclass
class SweepResult:
    """Outcome of a sweep: per-cell results plus run-level metadata."""

    results: list[CellResult]
    workers: int
    start_method: str
    wall_seconds: float
    #: cells served from a resumed checkpoint rather than recomputed
    resumed: int = 0
    #: states explored by those cells, in the run that journaled them
    resumed_states: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def by_name(self) -> dict[str, CellResult]:
        return {result.name: result for result in self.results}

    @property
    def degraded(self) -> int:
        """Cells that fell back to analytic bounds (exact run failed)."""
        return sum(1 for result in self.results
                   if result.termination == "degraded")

    @property
    def quarantined(self) -> int:
        """Poison cells that produced no data at all."""
        return sum(1 for result in self.results
                   if result.termination == "quarantined")

    @property
    def usable_results(self) -> list[CellResult]:
        """Everything except quarantined cells (exact + degraded)."""
        return [result for result in self.results if result.usable]

    @property
    def total_states(self) -> int:
        return sum(result.states_explored for result in self.results)

    @property
    def aggregate_states_per_second(self) -> float:
        """Total states over total *exploration* seconds (work throughput)."""
        seconds = sum(result.explore_seconds for result in self.results)
        return self.total_states / seconds if seconds > 0 else 0.0

    @property
    def sweep_states_per_second(self) -> float:
        """States this run explored over its *wall* time -- the parallel
        speed-up view (journal-served cells cost this run no time)."""
        computed = self.total_states - self.resumed_states
        return computed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def points(self) -> dict[str, dict]:
        """The sweep as ``repro-bench-v1`` trajectory points."""
        points = {result.name: result.point() for result in self.results}
        points["sweep"] = {
            "workers": self.workers,
            "start_method": self.start_method,
            "cells": len(self.results),
            "states_explored": self.total_states,
            "states_per_second": round(self.aggregate_states_per_second, 1),
            "sweep_states_per_second": round(self.sweep_states_per_second, 1),
            "wall_seconds": round(self.wall_seconds, 4),
        }
        # supervision accounting only appears when it happened (clean runs
        # keep the exact pre-supervisor trajectory format)
        if self.degraded:
            points["sweep"]["degraded"] = self.degraded
        if self.quarantined:
            points["sweep"]["quarantined"] = self.quarantined
        if self.resumed:
            points["sweep"]["resumed"] = self.resumed
        return points

    def write(self, path: str, kind: str = "scenario_sweep",
              meta: Mapping | None = None) -> dict:
        """Write the sweep as a ``BENCH_*.json`` trajectory file."""
        return write_bench_json(path, kind, self.points(), meta=dict(meta or {}))


def run_sweep(
    cells: Sequence[SweepCell],
    workers: int | None = None,
    start_method: str = "spawn",
    initializer: Callable[[], None] | None = None,
    supervise: "SupervisorConfig | None" = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Fan *cells* across supervised *workers* and collect the results.

    ``workers=None`` uses ``os.cpu_count()``; ``workers=1`` (or a single
    cell) runs serially in-process.  Results arrive in cell order
    regardless of which worker finished first.

    *supervise* sets the fault-tolerance policy
    (:class:`repro.sweep.supervisor.SupervisorConfig`); the default retries
    transient worker deaths and raises a cell-attributed
    :class:`AnalysisError` on unrecoverable failures.  *checkpoint* journals
    every completed cell to a ``repro-checkpoint-v1`` JSONL file;
    ``resume=True`` additionally loads it first and skips (but returns) the
    cells already completed, making an interrupted-then-resumed sweep
    deterministically identical to an uninterrupted one.
    """
    from repro.sweep.supervisor import (
        SupervisorConfig, run_supervised_pool, run_supervised_serial,
    )

    cells = list(cells)
    if not cells:
        raise AnalysisError("cannot run a sweep without cells")
    if resume and checkpoint is None:
        raise AnalysisError("resume=True requires a checkpoint path")
    config = supervise if supervise is not None else SupervisorConfig()
    if workers is None:
        workers = os.cpu_count() or 1
    started = time.perf_counter()
    journal = None
    completed: dict[int, CellResult] = {}
    try:
        if checkpoint is not None:
            journal = CheckpointJournal(checkpoint, [cell.name for cell in cells],
                                        resume=resume)
            completed = dict(journal.completed)
        tasks = [(index, cell) for index, cell in enumerate(cells)
                 if index not in completed]
        workers = max(1, min(int(workers), len(tasks) or 1))
        if workers == 1:
            fresh = run_supervised_serial(tasks, config, journal)
        else:
            # per-cell dispatch: cells are coarse (seconds each) and
            # heterogeneous, dynamic dispatch beats pre-chunking
            fresh = run_supervised_pool(tasks, workers, config, start_method,
                                        journal, initializer)
    finally:
        if journal is not None:
            journal.close()
    merged = {**completed, **fresh}
    results = [merged[index] for index in range(len(cells))]
    wall = time.perf_counter() - started
    return SweepResult(results=results, workers=workers,
                       start_method=start_method if workers > 1 else "serial",
                       wall_seconds=wall, resumed=len(completed),
                       resumed_states=sum(result.states_explored
                                          for result in completed.values()))


def verify_cells(
    results: Sequence[CellResult], baseline_points: Mapping[str, Mapping]
) -> list[str]:
    """Check sweep results against the machine-independent baseline anchors.

    ``baseline_points`` maps point names to dicts that may carry
    ``expected_*`` entries (:data:`repro.perf.ANCHOR_CHECKS`; the format of
    ``benchmarks/baselines/*.json``).  Returns human-readable mismatch
    lines; an empty list means every anchored cell reproduced the recorded
    exploration exactly.
    """
    problems = []
    for result in results:
        expected = baseline_points.get(result.name, {})
        problems.extend(verify_anchors(result.name, asdict(result), expected))
    return problems
