"""The supervised worker pool: crash-isolated, deadline-enforced dispatch.

``multiprocessing.Pool.map`` is the wrong tool for campaigns over hostile
work: one worker that segfaults, gets OOM-killed or livelocks takes the
whole sweep down (or hangs it forever), and everything already computed is
lost.  This module replaces it with one explicit :class:`WorkerPool`, which
runs the cells of ``repro-sweep`` and the jobs of ``repro-serve`` alike:

* **Crash isolation.**  Each job is dispatched to one worker process over
  a private pipe.  A worker that dies abnormally (signal, ``os._exit``,
  OOM-killer) loses *that job's attempt*, nothing else; the pool respawns
  a fresh worker and carries on.
* **Hard deadlines.**  ``SupervisorConfig.deadline_seconds`` is wall-clock
  per attempt, enforced from the *outside*: an overrunning worker is
  SIGKILLed and replaced.  This is the non-cooperative complement to the
  engines' own ``max_seconds`` budgets -- a worker stuck in native code or
  a pathological allocation never checks a cooperative budget.
* **Bounded retry with exponential backoff.**  Abnormal exits are treated
  as transient (a crashed machine neighbour, a fork bomb next door, an
  OOM pass) and retried up to ``max_attempts`` times, waiting
  ``backoff_seconds * backoff_factor**(attempt-2)`` (capped) before
  attempt number *attempt*.
  In-worker *exceptions* are deterministic and are not retried.
* **Graceful degradation.**  With ``on_error="degrade"``, a cell whose
  exact TA exploration died, hung or kept crashing still yields a usable
  :class:`~repro.sweep.runner.CellResult`: the calling process computes
  the SymTA/MPA analytic *upper* bounds and a budgeted DES *lower* bound
  and returns them with ``termination="degraded"``.
* **Quarantine.**  A poison cell -- one whose degraded fallback fails too
  -- is recorded with ``termination="quarantined"`` instead of poisoning
  the campaign, and the sweep completes without it.

With ``on_error="raise"`` (the library default) unrecoverable failures
raise an :class:`~repro.util.errors.AnalysisError` that *names the cell*
(name, kind, seed) instead of the bare worker traceback ``Pool.map`` used
to propagate.

A sweep runs through :func:`run_supervised_pool` (or, for one worker,
in-process through :func:`run_supervised_serial`): the calling thread
journals every completed cell through the ``repro-checkpoint-v1`` writer
(:mod:`repro.sweep.checkpoint`) as its outcome arrives, so a SIGINT/reboot
mid-campaign costs at most the cells in flight.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.sweep.cells import DiffCheckCell
from repro.sweep.faults import maybe_inject
from repro.util.errors import AnalysisError, ModelError, ReproError

__all__ = [
    "SupervisorConfig",
    "WorkerPool",
    "cell_attribution",
    "degraded_cell_result",
    "degraded_interval",
    "discard_worker",
    "quarantined_cell_result",
    "run_supervised_pool",
    "run_supervised_serial",
    "spawn_worker",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance policy of one supervised sweep."""

    #: hard wall-clock limit per attempt (multiprocess: the worker is
    #: SIGKILLed on overrun; serial: enforced cooperatively through the
    #: engines' deadline hooks); None = unlimited
    deadline_seconds: float | None = None
    #: attempts per cell for *transient* failures (abnormal worker exits)
    max_attempts: int = 3
    #: base and factor of the exponential retry backoff
    backoff_seconds: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 10.0
    #: what to do when a cell is unrecoverable: "raise" (AnalysisError naming
    #: the cell) or "degrade" (analytic-bounds fallback, then quarantine)
    on_error: str = "raise"
    #: budgets of the degraded DES lower-bound fallback
    degraded_des_runs: int = 2
    degraded_des_seconds: float = 5.0
    degraded_des_horizon_periods: int = 50

    def __post_init__(self):
        if self.on_error not in ("raise", "degrade"):
            raise ModelError(
                f"unknown on_error policy {self.on_error!r} (expected 'raise' or 'degrade')"
            )
        if self.max_attempts < 1:
            raise ModelError("max_attempts must be at least 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ModelError("deadline_seconds must be positive")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number *attempt* (attempt 2 = first)."""
        delay = self.backoff_seconds * self.backoff_factor ** max(0, attempt - 2)
        return min(delay, self.backoff_max_seconds)


def cell_attribution(cell, index: int) -> str:
    """Human-readable identity of a cell for error messages and logs."""
    if isinstance(cell, DiffCheckCell):
        return (
            f"cell #{index} {cell.name!r} (kind=diffcheck, "
            f"seed_start={cell.seed_start}, count={cell.count})"
        )
    seed = cell.settings.get("seed", 0) if cell.settings else 0
    return f"cell #{index} {cell.name!r} (kind=wcrt, seed={seed})"


def quarantined_cell_result(cell, index: int, reason: str, attempts: int):
    """The tombstone of a poison cell: no data, the failure on record."""
    from repro.sweep.runner import CellResult

    diffcheck = isinstance(cell, DiffCheckCell)
    return CellResult(
        name=cell.name,
        requirement="R0" if diffcheck else cell.requirement,
        combination=None if diffcheck else cell.combination,
        configuration=None if diffcheck else cell.configuration,
        wcrt_ticks=None,
        wcrt_ms=None,
        is_lower_bound=False,
        satisfied=None,
        states_explored=0,
        states_stored=0,
        transitions=0,
        inclusions=0,
        explore_seconds=0.0,
        states_per_second=0.0,
        termination="quarantined",
        wall_seconds=0.0,
        worker_pid=os.getpid(),
        kind="diffcheck" if diffcheck else "wcrt",
        attempts=attempts,
        failure=reason,
    )


def degraded_interval(model, requirement_name: str, config: SupervisorConfig):
    """What the robust engines can still say about *requirement_name*.

    Computes the tightest SymTA/MPA busy-window/curve *upper* bound and a
    budgeted DES *lower* bound on the requirement's WCRT, entirely in the
    calling process: the fallback engines are analytic (SymTA/MPA) or
    cooperatively budgeted (DES ``max_seconds``), so they cannot wedge the
    caller the way an exact exploration can wedge a worker.  Returns
    ``(lower, upper, satisfied)`` in model ticks; raises
    :class:`AnalysisError` when no engine produces a bound.

    Shared by :func:`degraded_cell_result` and the analysis service's
    per-request degradation (:mod:`repro.serve`).  The bounds themselves
    come from :mod:`repro.portfolio.bounds` — the degraded interval is
    exactly the zero-budget floor of the anytime portfolio
    (:func:`repro.portfolio.anytime.analyze` with ``max_states=0``).
    """
    from repro.portfolio.bounds import analytic_upper_bounds, des_lower_bound, tightest

    requirement = model.requirement(requirement_name)

    analytic, notes = analytic_upper_bounds(model, requirement_name)
    upper_bound = tightest(analytic, "upper")
    upper = None if upper_bound is None else upper_bound.value_ticks

    lower_bound, des_notes = des_lower_bound(
        model, requirement_name,
        runs=config.degraded_des_runs,
        horizon_periods=config.degraded_des_horizon_periods,
        max_seconds=config.degraded_des_seconds,
        seed=1,
    )
    notes.extend(des_notes)
    lower = None if lower_bound is None else lower_bound.value_ticks

    if upper is None and lower is None:
        raise AnalysisError(
            "degraded fallback produced no bound (" + "; ".join(notes) + ")"
        )

    satisfied: bool | None = None
    if upper is not None and upper < requirement.bound:
        satisfied = True
    elif lower is not None and lower >= requirement.bound:
        satisfied = False
    return lower, upper, satisfied


def degraded_cell_result(cell, index: int, reason: str, attempts: int,
                         config: SupervisorConfig):
    """Analytic fallback for a cell whose exact exploration died or hung.

    Computes what the cheap engines can still say about the cell's
    requirement (:func:`degraded_interval`) and returns a ``CellResult``
    with ``termination="degraded"``.  Raises :class:`AnalysisError` when no
    engine produces a bound (the caller quarantines the cell then).
    """
    from repro.sweep.runner import CellResult, cell_model

    if isinstance(cell, DiffCheckCell):
        raise AnalysisError(
            "a diffcheck cell has no analytic fallback (the campaign itself "
            "is the cross-check); the seed window must be quarantined"
        )
    # the "degraded" stage hook: a test plan can poison the fallback too
    maybe_inject(cell.name, index, attempts, stage="degraded")
    started = time.perf_counter()
    model = cell_model(cell)
    lower, upper, satisfied = degraded_interval(model, cell.requirement, config)
    timebase = model.timebase
    return CellResult(
        name=cell.name,
        requirement=cell.requirement,
        combination=cell.combination,
        configuration=cell.configuration,
        # the exact WCRT is unknown; the degraded interval lives in the
        # dedicated bound fields so anchors/baselines cannot confuse the two
        wcrt_ticks=None,
        wcrt_ms=None,
        is_lower_bound=False,
        satisfied=satisfied,
        states_explored=0,
        states_stored=0,
        transitions=0,
        inclusions=0,
        explore_seconds=0.0,
        states_per_second=0.0,
        termination="degraded",
        wall_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
        attempts=attempts,
        failure=reason,
        degraded_lower_ticks=lower,
        degraded_lower_ms=None if lower is None else timebase.to_milliseconds(lower),
        degraded_upper_ticks=upper,
        degraded_upper_ms=None if upper is None else timebase.to_milliseconds(upper),
    )


def _settle(cell, index: int, reason: str, attempts: int, config: SupervisorConfig):
    """Resolve an unrecoverable cell per the configured policy.

    Returns a degraded or quarantined result (``on_error="degrade"``) or
    raises an :class:`AnalysisError` carrying the cell attribution
    (``on_error="raise"``).
    """
    if config.on_error == "raise":
        raise AnalysisError(
            f"sweep {cell_attribution(cell, index)} failed after "
            f"{attempts} attempt(s): {reason}"
        )
    try:
        return degraded_cell_result(cell, index, reason, attempts, config)
    except ReproError as exc:
        return quarantined_cell_result(
            cell, index, f"{reason}; degraded fallback failed: {exc}", attempts
        )


# --------------------------------------------------------------------- serial
def run_supervised_serial(tasks, config: SupervisorConfig, journal=None) -> dict:
    """Run ``(index, cell)`` tasks in-process with supervision semantics.

    Deadlines are enforced *cooperatively* (through the engines' deadline
    hooks -- a serial run has nobody to SIGKILL it); exceptions degrade or
    raise exactly like the worker pool.  A ``"crash"``/``"oom"``
    fault (or a real one) takes the whole process down -- which is precisely
    the interrupted-run scenario the checkpoint journal recovers from.
    """
    from repro.sweep.runner import run_cell

    results: dict[int, object] = {}
    for index, cell in tasks:
        deadline = (None if config.deadline_seconds is None
                    else time.perf_counter() + config.deadline_seconds)
        try:
            result = run_cell(cell, index=index, deadline=deadline)
        except ReproError as exc:
            if config.on_error == "raise":
                raise AnalysisError(
                    f"sweep {cell_attribution(cell, index)} failed: {exc}"
                ) from exc
            result = _settle(cell, index, str(exc), 1, config)
        results[index] = result
        if journal is not None:
            journal.record(index, result)
    return results


# --------------------------------------------------------------- worker side
def _worker_main(conn, initializer=None) -> None:
    """Worker loop: receive ``(index, attempt, cell)``, send back the result.

    An in-cell exception is reported as an ``("error", ...)`` payload -- the
    worker itself is healthy and keeps serving.  Only pipe loss (the
    pool went away) or a poison pill ends the loop.
    """
    from repro.sweep.runner import _worker_init, run_cell

    (initializer or _worker_init)()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        index, attempt, cell = task
        try:
            payload = ("ok", index, run_cell(cell, index=index, attempt=attempt))
        except KeyboardInterrupt:  # pragma: no cover - racy by nature
            break
        except BaseException as exc:
            payload = ("error", index, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break


class _WorkerHandle:
    """One supervised worker process and its private pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn


def spawn_worker(context, initializer=None) -> _WorkerHandle:
    """Start one :class:`WorkerPool` worker on a private duplex pipe."""
    parent_conn, child_conn = context.Pipe(duplex=True)
    process = context.Process(
        target=_worker_main,
        args=(child_conn, initializer),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _WorkerHandle(process, parent_conn)


def discard_worker(worker: _WorkerHandle) -> None:
    """Close a worker's pipe and make sure its process is dead and reaped."""
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover - already gone
        pass
    if worker.process.is_alive():
        worker.process.kill()
    worker.process.join()


# ----------------------------------------------------------------------- pool
class WorkerPool:
    """Supervised, self-healing worker pool over an open-ended job stream.

    A dispatcher thread owns the worker processes and multiplexes their
    pipes, their process sentinels and a wake-up socket through
    ``multiprocessing.connection.wait``.  Jobs arrive through :meth:`submit`
    from any thread and settle by ``callback(kind, value, attempts)`` in the
    dispatcher thread, with one of four outcomes:

    * ``"ok"``       -- *value* is the worker's result;
    * ``"error"``    -- a deterministic in-worker exception (the worker
      survives; retrying would deterministically fail again), or the pool
      shut down before the job finished;
    * ``"died"``     -- the worker died abnormally on every allowed attempt
      (retried with exponential backoff in between);
    * ``"deadline"`` -- the job overran the hard per-attempt deadline and its
      worker was SIGKILLed (no retry: a hang already burnt a full deadline).

    For every kind but ``"ok"`` *value* is the failure text.  The caller
    decides what an outcome means -- journal, cache, degrade, quarantine;
    the pool guarantees that every submitted job settles exactly once and
    that a dead worker is always replaced.
    """

    def __init__(self, workers: int, config: SupervisorConfig | None = None,
                 start_method: str = "spawn", initializer=None):
        import multiprocessing

        self.config = config or SupervisorConfig()
        self.context = multiprocessing.get_context(start_method)
        self.initializer = initializer
        #: workers respawned after an abnormal death or deadline kill
        self.restarts = 0
        self._lock = threading.Lock()
        # a task is (index, job, attempt, callback)
        self._inbox: deque = deque()          # tasks from submit()
        self._pending: deque = deque()        # tasks ready for a worker
        self._delayed: list = []              # heap: (ready_at, sequence, task)
        self._busy: dict = {}                 # worker -> (task, kill_at)
        self._stop = False
        self._sequence = itertools.count(1)
        # the wake channel: submit()/shutdown() write one byte, the
        # dispatcher's connection.wait returns immediately
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._workers = [spawn_worker(self.context, initializer)
                         for _ in range(max(1, int(workers)))]
        self._idle = list(self._workers)
        self._thread = threading.Thread(target=self._run, name="worker-pool",
                                        daemon=True)
        self._thread.start()

    # -- client side ------------------------------------------------------
    def submit(self, job, callback, index: int | None = None) -> None:
        """Enqueue *job*; *callback(kind, value, attempts)* settles it.

        *index* reaches the worker as the job's fault-injection index (a
        sweep passes the cell index); without one the pool numbers the job.
        The callback runs in the dispatcher thread -- keep it tiny (hand the
        outcome to the caller's thread or event loop).
        """
        if index is None:
            index = next(self._sequence)
        with self._lock:
            if self._stop:
                raise RuntimeError("pool is shut down")
            self._inbox.append((index, job, 1, callback))
        self._wake()

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet settled (queued + retrying + running)."""
        with self._lock:
            return (len(self._inbox) + len(self._pending)
                    + len(self._delayed) + len(self._busy))

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop dispatching, settle unfinished jobs, reap every worker.

        Every job still owed an outcome settles once as ``("error", "pool
        shut down")``, so no caller awaits forever.
        """
        with self._lock:
            self._stop = True
        self._wake()
        self._thread.join(timeout)
        for worker in self._workers:
            discard_worker(worker)
        self._workers.clear()
        self._wake_recv.close()
        self._wake_send.close()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except OSError:  # pragma: no cover - shutting down
            pass

    # -- dispatcher side --------------------------------------------------
    def _respawn(self, worker) -> None:
        discard_worker(worker)
        self._workers.remove(worker)
        self.restarts += 1
        fresh = spawn_worker(self.context, self.initializer)
        self._workers.append(fresh)
        self._idle.append(fresh)

    @staticmethod
    def _deliver(task, kind: str, value) -> None:
        _index, _job, attempt, callback = task
        try:
            callback(kind, value, attempt)
        except Exception:  # pragma: no cover - a callback must not kill the pool
            pass

    def _run(self) -> None:
        from multiprocessing.connection import wait as connection_wait

        config = self.config
        while True:
            with self._lock:
                if self._stop:
                    break
                self._pending.extend(self._inbox)
                self._inbox.clear()
            now = time.perf_counter()
            while self._delayed and self._delayed[0][0] <= now:
                self._pending.append(heapq.heappop(self._delayed)[-1])
            while self._pending and self._idle:
                worker = self._idle.pop()
                if not worker.process.is_alive():  # pragma: no cover - rare
                    self._respawn(worker)
                    self.restarts -= 1  # replacing an idle corpse, not a job kill
                    worker = self._idle.pop()
                task = self._pending.popleft()
                index, job, attempt, _callback = task
                try:
                    worker.conn.send((index, attempt, job))
                except (BrokenPipeError, OSError):  # pragma: no cover - rare
                    self._respawn(worker)
                    self._pending.appendleft(task)
                    continue
                kill_at = (now + config.deadline_seconds
                           if config.deadline_seconds is not None else None)
                self._busy[worker] = (task, kill_at)

            timeout = 0.5  # upper bound: notice shutdown/new work promptly
            for _task, kill_at in self._busy.values():
                if kill_at is not None:
                    timeout = min(timeout, kill_at - time.perf_counter())
            if self._delayed:
                timeout = min(timeout, self._delayed[0][0] - time.perf_counter())
            watched: dict[object, object] = {self._wake_recv: None}
            for worker in self._busy:
                watched[worker.conn] = worker
                watched[worker.process.sentinel] = worker
            ready = connection_wait(list(watched), timeout=max(0.0, timeout))

            if self._wake_recv in ready:
                try:
                    while self._wake_recv.recv(4096):
                        pass
                except BlockingIOError:
                    pass
            for worker in {watched[obj] for obj in ready if watched[obj] is not None}:
                task, _kill_at = self._busy.pop(worker)
                index, job, attempt, callback = task
                payload = None
                if worker.conn.poll():
                    try:
                        payload = worker.conn.recv()
                    except (EOFError, OSError):
                        payload = None
                if payload is None:
                    # abnormal exit mid-job: no result ever made it onto the pipe
                    worker.process.join()
                    exitcode = worker.process.exitcode
                    self._respawn(worker)
                    if attempt < config.max_attempts:
                        ready_at = time.perf_counter() + config.backoff(attempt + 1)
                        heapq.heappush(self._delayed, (
                            ready_at, next(self._sequence),
                            (index, job, attempt + 1, callback),
                        ))
                    else:
                        self._deliver(task, "died",
                                      f"worker died abnormally (exit code {exitcode}) "
                                      f"on all {attempt} attempt(s)")
                else:
                    status, _echo, value = payload
                    self._idle.append(worker)
                    self._deliver(task, status, value)

            # hard deadlines: SIGKILL overrunning workers, settle without retry
            now = time.perf_counter()
            overdue = [worker for worker, (_task, kill_at) in self._busy.items()
                       if kill_at is not None and now > kill_at]
            for worker in overdue:
                task, _kill_at = self._busy.pop(worker)
                worker.process.kill()
                self._respawn(worker)
                self._deliver(task, "deadline",
                              f"hard deadline of {config.deadline_seconds}s "
                              f"exceeded (worker killed)")

        # shutdown: poison-pill the idle workers (the final reap happens in
        # shutdown(), on the caller's thread) and cancel every unsettled job
        for worker in self._idle:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        with self._lock:
            unsettled = [*self._inbox, *self._pending,
                         *(task for _ready_at, _sequence, task in self._delayed),
                         *(task for task, _kill_at in self._busy.values())]
        for task in unsettled:
            self._deliver(task, "error", "pool shut down")


def run_supervised_pool(tasks, workers: int, config: SupervisorConfig,
                        start_method: str = "spawn", journal=None,
                        initializer=None) -> dict:
    """Run ``(index, cell)`` tasks on a :class:`WorkerPool`.

    Every cell is submitted under its sweep index (fault plans target cells
    by index).  The calling thread reads the outcomes from a queue, settles
    each failure per the policy (degrade, quarantine or raise) and journals
    each result while the pool keeps dispatching.  On the main thread
    SIGTERM is raised as ``KeyboardInterrupt``, exactly like Ctrl-C, so the
    ``finally`` block shuts the pool down and reaps every worker before an
    interrupt propagates (a raw SIGTERM death would orphan them).
    """
    tasks = list(tasks)
    outcomes: queue.SimpleQueue = queue.SimpleQueue()
    results: dict[int, object] = {}
    pool = WorkerPool(workers, config, start_method, initializer)
    # signal handlers are process-global and main-thread-only; restore on exit
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        def _on_sigterm(signum, frame):  # pragma: no cover - signal path
            raise KeyboardInterrupt
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        for index, cell in tasks:
            pool.submit(cell, lambda kind, value, attempts, index=index, cell=cell:
                        outcomes.put((index, cell, kind, value, attempts)),
                        index=index)
        while len(results) < len(tasks):
            # short slices: Ctrl-C/SIGTERM must not wait out a retry backoff
            try:
                index, cell, kind, value, attempts = outcomes.get(timeout=0.2)
            except queue.Empty:
                continue
            if kind != "ok":
                value = _settle(cell, index, value, attempts, config)
            results[index] = value
            if journal is not None:
                journal.record(index, value)
        return results
    finally:
        pool.shutdown()
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous_sigterm)
