"""Tests of the supervised execution layer: every recovery path.

Faults are injected deterministically through :mod:`repro.sweep.faults`
(install_plan exports the plan into the environment, so ``spawn``'d workers
see it too).  The paths pinned here:

* crash / OOM exit -> bounded retry with backoff -> success
* deterministic in-worker exception -> no retry -> degrade or raise
* hang -> hard-deadline SIGKILL -> degraded analytic bounds
* poison cell (fallback fails too) -> quarantine, sweep completes
* serial supervision: cooperative deadlines, same degrade/raise semantics
* the pool itself: shutdown with a job in flight, retries exhausted
* SIGTERM during a retry backoff -> prompt teardown, all workers reaped
"""

import multiprocessing
import os
import queue
import signal
import subprocess
import sys
import time

import pytest

from repro.sweep import FaultPlan, FaultSpec, SweepCell, install_plan, run_sweep
from repro.sweep.cells import DiffCheckCell
from repro.sweep.faults import CRASH_EXIT_CODE, FAULTS_ENV, OOM_EXIT_CODE
from repro.sweep.supervisor import (
    SupervisorConfig,
    WorkerPool,
    cell_attribution,
    degraded_cell_result,
    quarantined_cell_result,
)
from repro.util.errors import AnalysisError, ModelError

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    install_plan(None)
    yield
    install_plan(None)


def cell(i: int, max_states: int | None = 200) -> SweepCell:
    return SweepCell(
        name=f"cell{i}",
        requirement="TMC",
        combination="AL+TMC",
        configuration="po",
        settings={"search_order": "bfs", "max_states": max_states, "seed": 1},
    )


#: fast retry cadence and a cheap degraded-DES budget for every test
FAST = dict(backoff_seconds=0.05, backoff_max_seconds=0.2,
            degraded_des_runs=1, degraded_des_seconds=2.0,
            degraded_des_horizon_periods=20)


class TestSupervisorConfig:
    def test_policy_validated(self):
        with pytest.raises(ModelError):
            SupervisorConfig(on_error="explode")
        with pytest.raises(ModelError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ModelError):
            SupervisorConfig(deadline_seconds=0.0)

    def test_backoff_is_exponential_and_capped(self):
        config = SupervisorConfig(backoff_seconds=0.5, backoff_factor=2.0,
                                  backoff_max_seconds=3.0)
        assert config.backoff(2) == 0.5   # first retry
        assert config.backoff(3) == 1.0
        assert config.backoff(4) == 2.0
        assert config.backoff(5) == 3.0   # capped
        assert config.backoff(9) == 3.0


class TestAttribution:
    def test_wcrt_cell_named_with_seed(self):
        text = cell_attribution(cell(3), 3)
        assert "#3" in text and "'cell3'" in text
        assert "kind=wcrt" in text and "seed=1" in text

    def test_diffcheck_cell_named_with_window(self):
        window = DiffCheckCell(name="diffcheck/seeds5-9", seed_start=5, count=5)
        text = cell_attribution(window, 0)
        assert "kind=diffcheck" in text
        assert "seed_start=5" in text and "count=5" in text


class TestDegradedFallback:
    def test_degraded_result_bounds_are_ordered(self):
        config = SupervisorConfig(on_error="degrade", **FAST)
        result = degraded_cell_result(cell(0), 0, "synthetic failure", 2, config)
        assert result.termination == "degraded"
        assert result.usable
        assert result.attempts == 2
        assert result.failure == "synthetic failure"
        assert result.wcrt_ticks is None  # the exact value is NOT claimed
        assert result.degraded_upper_ticks is not None  # SymTA/MPA upper
        assert result.degraded_lower_ticks is not None  # budgeted DES lower
        assert result.degraded_lower_ticks <= result.degraded_upper_ticks
        assert result.degraded_lower_ms <= result.degraded_upper_ms

    def test_diffcheck_cell_has_no_fallback(self):
        config = SupervisorConfig(on_error="degrade", **FAST)
        window = DiffCheckCell(name="diffcheck/seeds0-1", seed_start=0, count=2)
        with pytest.raises(AnalysisError, match="no analytic fallback"):
            degraded_cell_result(window, 0, "died", 1, config)

    def test_quarantine_tombstone_is_not_usable(self):
        result = quarantined_cell_result(cell(0), 0, "poison", 3)
        assert result.termination == "quarantined"
        assert not result.usable
        assert result.failure == "poison"
        assert result.wcrt_ticks is None
        point = result.point()
        assert point["termination"] == "quarantined"
        assert point["failure"] == "poison"

    def test_degraded_point_carries_interval_not_wcrt(self):
        config = SupervisorConfig(on_error="degrade", **FAST)
        point = degraded_cell_result(cell(0), 0, "why", 1, config).point()
        assert point["degraded_lower_ticks"] <= point["degraded_upper_ticks"]
        assert point["wcrt_ticks"] is None


class TestSerialSupervision:
    def test_raise_mode_names_the_cell(self):
        install_plan(FaultPlan((FaultSpec(cell="cell1", action="raise"),)))
        with pytest.raises(AnalysisError) as excinfo:
            run_sweep([cell(0), cell(1)], workers=1,
                      supervise=SupervisorConfig(on_error="raise", **FAST))
        message = str(excinfo.value)
        assert "cell #1" in message and "'cell1'" in message
        assert "kind=wcrt" in message and "seed=1" in message

    def test_degrade_mode_returns_bounds(self):
        install_plan(FaultPlan((FaultSpec(cell="cell1", action="raise"),)))
        sweep = run_sweep([cell(0), cell(1)], workers=1,
                          supervise=SupervisorConfig(on_error="degrade", **FAST))
        assert len(sweep) == 2
        exact, degraded = sweep.results
        assert exact.termination in ("goal", "exhausted", "state-budget")
        assert degraded.termination == "degraded"
        assert degraded.degraded_lower_ticks <= degraded.degraded_upper_ticks
        assert "injected" in degraded.failure
        assert sweep.degraded == 1 and sweep.quarantined == 0
        assert len(sweep.usable_results) == 2

    def test_poisoned_fallback_is_quarantined(self):
        # the worker stage raises AND the degraded fallback raises: the cell
        # is truly poison, the sweep must survive it anyway
        install_plan(FaultPlan((
            FaultSpec(cell="cell1", action="raise"),
            FaultSpec(cell="cell1", action="raise", stage="degraded"),
        )))
        sweep = run_sweep([cell(0), cell(1)], workers=1,
                          supervise=SupervisorConfig(on_error="degrade", **FAST))
        assert sweep.quarantined == 1
        assert not sweep.results[1].usable
        assert "degraded fallback failed" in sweep.results[1].failure
        assert len(sweep.usable_results) == 1

    def test_cooperative_deadline_truncates_exploration(self):
        # a heavy cell (unbounded jitter configuration) against a tiny
        # cooperative deadline: the engine stops itself at the next check
        heavy = SweepCell(
            name="heavy", requirement="TMC", combination="AL+TMC",
            configuration="pj",
            settings={"search_order": "rdfs", "max_states": None, "seed": 1},
        )
        config = SupervisorConfig(deadline_seconds=0.4, on_error="degrade", **FAST)
        sweep = run_sweep([heavy], workers=1, supervise=config)
        result = sweep.results[0]
        assert result.termination == "time-budget"
        assert result.is_lower_bound
        # a truncated exploration is a lower bound, not a degraded cell
        assert sweep.degraded == 0


def _sweep(cells, *, workers=2, start_method="spawn", **config):
    return run_sweep(cells, workers=workers, start_method=start_method,
                     supervise=SupervisorConfig(**{**FAST, **config}))


class TestMultiprocessSupervision:
    def test_crash_on_first_attempt_is_retried(self):
        install_plan(FaultPlan((
            FaultSpec(cell="cell1", action="crash", attempts=(1,)),
        )))
        sweep = _sweep([cell(i) for i in range(3)], on_error="raise")
        assert [r.termination for r in sweep] != []
        assert all(r.usable for r in sweep)
        assert sweep.results[1].attempts == 2        # died once, then succeeded
        assert sweep.results[0].attempts == 1
        assert sweep.results[1].wcrt_ticks == sweep.results[0].wcrt_ticks

    def test_oom_exit_is_retried_like_a_crash(self):
        assert OOM_EXIT_CODE == 137
        install_plan(FaultPlan((
            FaultSpec(cell="cell0", action="oom", attempts=(1,), megabytes=8),
        )))
        sweep = _sweep([cell(0), cell(1)], on_error="raise")
        assert sweep.results[0].attempts == 2
        assert sweep.results[0].wcrt_ticks == sweep.results[1].wcrt_ticks

    def test_persistent_crash_exhausts_attempts_and_raises(self):
        install_plan(FaultPlan((FaultSpec(cell="cell1", action="crash"),)))
        with pytest.raises(AnalysisError) as excinfo:
            _sweep([cell(0), cell(1)], on_error="raise", max_attempts=2)
        message = str(excinfo.value)
        assert "'cell1'" in message
        assert "2 attempt(s)" in message
        assert f"exit code {CRASH_EXIT_CODE}" in message

    def test_persistent_crash_degrades_with_bounds(self):
        install_plan(FaultPlan((FaultSpec(cell="cell1", action="crash"),)))
        sweep = _sweep([cell(0), cell(1)], on_error="degrade", max_attempts=2)
        degraded = sweep.results[1]
        assert degraded.termination == "degraded"
        assert degraded.attempts == 2
        assert degraded.degraded_lower_ticks <= degraded.degraded_upper_ticks
        # the sound interval brackets the exact WCRT of the healthy twin
        assert degraded.degraded_lower_ticks <= sweep.results[0].wcrt_ticks
        assert sweep.results[0].wcrt_ticks <= degraded.degraded_upper_ticks

    def test_hang_is_killed_at_the_deadline_and_degraded(self):
        install_plan(FaultPlan((
            FaultSpec(cell="cell1", action="hang", hang_seconds=60.0),
        )))
        sweep = _sweep([cell(0), cell(1)], start_method="fork",
                       on_error="degrade", deadline_seconds=3.0)
        hung = sweep.results[1]
        assert hung.termination == "degraded"
        assert "hard deadline" in hung.failure and "killed" in hung.failure
        assert hung.degraded_upper_ticks is not None
        assert sweep.results[0].termination != "degraded"  # neighbour unharmed

    def test_poison_diffcheck_window_is_quarantined(self):
        # a diffcheck window has no analytic fallback: persistent crashes
        # must quarantine it without losing the healthy wcrt cell
        window = DiffCheckCell(name="diffcheck/seeds0-1", seed_start=0, count=2)
        install_plan(FaultPlan((
            FaultSpec(cell="diffcheck/seeds0-1", action="crash"),
        )))
        sweep = run_sweep(
            [cell(0), window], workers=2,
            supervise=SupervisorConfig(on_error="degrade", max_attempts=2, **FAST),
        )
        assert sweep.quarantined == 1
        assert not sweep.results[1].usable
        assert "no analytic fallback" in sweep.results[1].failure
        assert sweep.results[0].usable

    def test_fork_workers_recover_from_crashes_too(self):
        install_plan(FaultPlan((
            FaultSpec(cell="cell0", action="crash", attempts=(1,)),
        )))
        sweep = _sweep([cell(0), cell(1)], start_method="fork", on_error="raise")
        assert sweep.results[0].attempts == 2
        assert all(r.usable for r in sweep)

    def test_worker_processes_are_reaped(self):
        before = len(multiprocessing.active_children())
        _sweep([cell(i) for i in range(3)], start_method="fork")
        assert len(multiprocessing.active_children()) <= before


class TestWorkerPool:
    """The pool below ``run_sweep`` (and ``repro-serve``), driven directly."""

    def test_shutdown_settles_a_job_in_flight_once_and_reaps(self):
        install_plan(FaultPlan((
            FaultSpec(cell="cell0", action="hang", hang_seconds=60.0),
        )))
        outcomes = []
        pool = WorkerPool(1, SupervisorConfig(**FAST), start_method="fork")
        pool.submit(cell(0), lambda *outcome: outcomes.append(outcome), index=0)
        deadline = time.monotonic() + 30.0
        while not pool._busy and time.monotonic() < deadline:
            time.sleep(0.05)  # until the worker holds the (hanging) job
        assert pool._busy
        pool.shutdown()
        assert outcomes == [("error", "pool shut down", 1)]
        assert multiprocessing.active_children() == []

    def test_crash_on_every_attempt_settles_as_died(self):
        # the fault targets index 5: the submitted index reaches the worker
        install_plan(FaultPlan((FaultSpec(cell=5, action="crash"),)))
        outcomes = queue.SimpleQueue()
        pool = WorkerPool(1, SupervisorConfig(max_attempts=2, **FAST),
                          start_method="fork")
        try:
            pool.submit(cell(0), lambda *outcome: outcomes.put(outcome), index=5)
            kind, value, attempts = outcomes.get(timeout=60)
        finally:
            pool.shutdown()
        assert (kind, attempts) == ("died", 2)
        assert value == (f"worker died abnormally (exit code {CRASH_EXIT_CODE}) "
                         f"on all 2 attempt(s)")
        assert pool.restarts == 2


class TestAcceptanceSweep:
    """The ISSUE's acceptance scenario: a 20-cell sweep with one crash, one
    hang and one poison cell completes with 19 usable results."""

    def test_twenty_cells_with_three_faults(self):
        cells = [cell(i) for i in range(20)]
        install_plan(FaultPlan((
            FaultSpec(cell=3, action="crash", attempts=(1,)),   # transient
            FaultSpec(cell=7, action="hang", hang_seconds=60.0),  # livelock
            FaultSpec(cell=11, action="crash"),                 # poison...
            FaultSpec(cell=11, action="raise", stage="degraded"),  # ...fully
        )))
        sweep = run_sweep(
            cells, workers=4, start_method="fork",
            supervise=SupervisorConfig(
                on_error="degrade", max_attempts=2, deadline_seconds=5.0,
                **FAST,
            ),
        )
        assert len(sweep) == 20
        assert len(sweep.usable_results) == 19
        assert sweep.degraded >= 1
        assert sweep.quarantined == 1
        by_name = sweep.by_name()
        assert by_name["cell3"].attempts == 2          # crashed once, retried
        assert by_name["cell3"].usable
        assert by_name["cell7"].termination == "degraded"
        assert by_name["cell7"].degraded_upper_ticks is not None
        assert by_name["cell11"].termination == "quarantined"
        # every healthy cell produced the identical exact WCRT
        exact = {r.wcrt_ticks for r in sweep
                 if r.termination not in ("degraded", "quarantined")}
        assert len(exact) == 1
        # trajectory accounting reflects the supervision events
        point = sweep.points()["sweep"]
        assert point["degraded"] == sweep.degraded
        assert point["quarantined"] == 1


_BACKOFF_SCRIPT = """
import multiprocessing
import sys

from repro.sweep import FaultPlan, FaultSpec, SweepCell, install_plan, run_sweep
from repro.sweep.supervisor import SupervisorConfig


def main():
    # cell0 crashes on every attempt; the 120 s backoff between retries is
    # where SIGTERM lands -- far longer than the test's patience, so only an
    # interruptible wait lets the process die on time
    install_plan(FaultPlan((FaultSpec(cell="cell0", action="crash"),)))
    cells = [SweepCell(
        name="cell%d" % i, requirement="TMC", combination="AL+TMC",
        configuration="po",
        settings={"search_order": "bfs", "max_states": 200, "seed": 1},
    ) for i in range(2)]
    config = SupervisorConfig(
        on_error="raise", max_attempts=5, backoff_seconds=120.0,
        backoff_factor=1.0, backoff_max_seconds=120.0,
    )
    print("SWEEP-STARTED", flush=True)
    try:
        run_sweep(cells, workers=2, start_method="spawn", supervise=config)
    except KeyboardInterrupt:
        print("INTERRUPTED children=%d"
              % len(multiprocessing.active_children()), flush=True)
        sys.exit(3)
    print("FINISHED", flush=True)


if __name__ == "__main__":
    main()
"""

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestInterruptibleBackoff:
    """SIGTERM during a long retry backoff must tear the pool down promptly
    (the sweep translates it to KeyboardInterrupt and reads outcomes in
    short slices, so it wakes within one, not after the full 120 s backoff)
    and reap every worker before the interrupt propagates."""

    def test_sigterm_during_backoff_reaps_workers_promptly(self, tmp_path):
        script = tmp_path / "backoff_sweep.py"
        script.write_text(_BACKOFF_SCRIPT, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        env.pop(FAULTS_ENV, None)
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            assert "SWEEP-STARTED" in proc.stdout.readline()
            # give the worker time to spawn, crash, and enter the backoff
            time.sleep(4.0)
            signalled_at = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            output = proc.stdout.read()
            exitcode = proc.wait(60)
            elapsed = time.monotonic() - signalled_at
        finally:
            if proc.poll() is None:  # pragma: no cover - bug trap
                proc.kill()
                proc.wait()
        assert exitcode == 3, output
        # teardown must be prompt (outcome reads are 0.2 s slices), nowhere
        # near the 120 s backoff it interrupted
        assert elapsed < 30.0, f"teardown took {elapsed:.1f}s: {output}"
        assert "INTERRUPTED children=0" in output, output
