"""Chaos acceptance: the live server under injected crash/hang/poison.

The contract (ISSUE 7): under worker crashes, OOM-exits, hangs and one
hostile budget-busting model, the server never drops a request -- every
admitted request terminates with an exact, degraded-interval or
quarantined response -- ``/healthz`` stays available throughout, a SIGKILL
+ restart serves byte-identical responses from the recovered journal, and
the graceful drain completes in-flight jobs.

The in-process suite installs the fault plan *before* the server spawns
its workers (plans travel through ``REPRO_FAULTS``, so the workers inherit
them); the subprocess suite drives a real ``repro-serve`` process through
SIGKILL and SIGTERM.
"""

import json
import signal
import threading
import time

import pytest

from repro.serve import ServerConfig
from repro.serve.smoke import (
    get_json,
    post_json,
    start_server,
    stop_server,
    two_task_model_dict,
)
from repro.sweep.faults import CRASH_EXIT_CODE, FaultPlan, FaultSpec, install_plan

#: the server's hard per-job deadline, counted from dispatch to a worker
DEADLINE_SECONDS = 8.0

#: how long the "slow" jobs stall: long enough to race requests against
#: (the tests wait up to 0.8 s into a stall), and only a quarter of the
#: deadline, so a stalled job still finishes in time on a loaded host, where
#: a freshly respawned worker first spends seconds importing the package
STALL_SECONDS = DEADLINE_SECONDS / 4

#: the chaos plan: a model that crashes its worker on every attempt, one
#: that OOM-exits, one that hangs past the hard deadline, one whose
#: degraded fallback is poisoned too, and ones that merely stall
#: (in-flight long enough to race requests against), plus a /batch grid
#: cell that crashes its worker on every attempt
PLAN = FaultPlan((
    FaultSpec(cell="serve/chaos-crash", action="crash"),
    FaultSpec(cell="AL+TMC/po/TMC", action="crash"),
    FaultSpec(cell="serve/chaos-oom", action="oom", megabytes=8),
    FaultSpec(cell="serve/chaos-hang", action="hang", hang_seconds=300.0),
    FaultSpec(cell="serve/chaos-poison", action="crash"),
    FaultSpec(cell="serve/chaos-poison", action="raise", stage="degraded"),
    FaultSpec(cell="serve/chaos-slow", action="hang",
              hang_seconds=STALL_SECONDS, attempts=(1,)),
    FaultSpec(cell="serve/chaos-slow2", action="hang",
              hang_seconds=STALL_SECONDS, attempts=(1,)),
    FaultSpec(cell="serve/chaos-inflight", action="hang",
              hang_seconds=STALL_SECONDS, attempts=(1,)),
))


@pytest.fixture(scope="module")
def chaos_server(tmp_path_factory, live_server_cls):
    install_plan(PLAN)
    cache = str(tmp_path_factory.mktemp("chaos") / "serve.cache.jsonl")
    try:
        live = live_server_cls(ServerConfig(
            workers=2, queue_limit=2, deadline_seconds=DEADLINE_SECONDS,
            max_attempts=2,
            backoff_seconds=0.05, max_states_cap=5_000, max_seconds_cap=5.0,
            cache_path=cache, breaker_threshold=2, breaker_cooldown=60.0,
            degraded_des_runs=1, degraded_des_seconds=2.0,
            degraded_des_horizon_periods=20,
        ))
    except BaseException:
        install_plan(None)
        raise
    yield live
    live.stop()
    install_plan(None)


def healthy(port: int) -> None:
    status, _headers, health = get_json(port, "/healthz")
    assert status == 200 and health["status"] == "ok", (status, health)


class TestChaos:
    def test_crash_every_attempt_degrades(self, chaos_server):
        healthy(chaos_server.port)
        status, headers, body = post_json(
            chaos_server.port, "/analyze",
            {"model": two_task_model_dict("chaos-crash")})
        result = json.loads(body)
        assert status == 200, result
        assert headers["x-repro-cache"] == "miss"
        assert result["status"] == "degraded"
        assert result["attempts"] == 2
        assert "exit code 42" in result["failure"]
        # the degraded interval brackets the true WCRT (12) and decides the
        # requirement: SymTA/MPA upper < 40
        assert result["degraded_lower_ticks"] <= 12
        assert result["degraded_upper_ticks"] >= 12
        assert result["satisfied"] is True
        healthy(chaos_server.port)

    def test_degraded_answers_are_cached(self, chaos_server):
        payload = {"model": two_task_model_dict("chaos-crash")}
        _s, _h, first = post_json(chaos_server.port, "/analyze", payload)
        status, headers, second = post_json(chaos_server.port, "/analyze",
                                            payload)
        assert status == 200
        assert headers["x-repro-cache"] == "hit"
        assert second == first

    def test_oom_exit_degrades(self, chaos_server):
        status, _h, body = post_json(
            chaos_server.port, "/analyze",
            {"model": two_task_model_dict("chaos-oom")})
        result = json.loads(body)
        assert status == 200 and result["status"] == "degraded", result
        assert "exit code" in result["failure"]
        healthy(chaos_server.port)

    def test_batch_reports_the_pool_failure_text(self, chaos_server):
        payload = {"grid": {
            "combinations": ["AL+TMC"],
            "configurations": ["po"],
            "requirements": ["TMC"],
            "settings": {"max_states": 200},
        }}
        status, _headers, body = post_json(chaos_server.port, "/batch", payload)
        assert status == 200, body
        assert json.loads(body)["points"]["AL+TMC/po/TMC"] == {
            "termination": "failed",
            "failure": (f"worker died abnormally (exit code {CRASH_EXIT_CODE}) "
                        f"on all 2 attempt(s)"),
            "attempts": 2,
        }

    def test_hang_is_deadline_killed_then_degraded(self, chaos_server):
        # health must stay green *while* the hang is burning its deadline
        outcome = {}
        payload = {"model": two_task_model_dict("chaos-hang")}

        def submit():
            outcome["response"] = post_json(chaos_server.port, "/analyze",
                                            payload, timeout=120)

        thread = threading.Thread(target=submit)
        thread.start()
        deadline = time.monotonic() + 2.0
        probes = 0
        while time.monotonic() < deadline:
            healthy(chaos_server.port)
            probes += 1
            time.sleep(0.2)
        thread.join(120)
        assert probes >= 5
        status, _headers, body = outcome["response"]
        result = json.loads(body)
        assert status == 200 and result["status"] == "degraded", result
        assert "deadline" in result["failure"]
        assert result["attempts"] == 1  # a hang burns its deadline, no retry

    def test_poisoned_fallback_quarantines(self, chaos_server):
        payload = {"model": two_task_model_dict("chaos-poison")}
        status, _headers, body = post_json(chaos_server.port, "/analyze",
                                           payload)
        result = json.loads(body)
        assert status == 503 and result["status"] == "quarantined", result
        assert "degraded fallback failed" in result["detail"]
        # the breaker now rejects the fingerprint without burning a worker
        restarts_before = get_json(chaos_server.port, "/metrics")[2][
            "worker_restarts"]
        status, headers, body = post_json(chaos_server.port, "/analyze",
                                          payload)
        assert status == 503
        assert "retry-after" in headers
        restarts_after = get_json(chaos_server.port, "/metrics")[2][
            "worker_restarts"]
        assert restarts_after == restarts_before
        healthy(chaos_server.port)

    def test_hostile_budgets_are_clamped_and_answered(self, chaos_server):
        status, _headers, body = post_json(chaos_server.port, "/analyze", {
            "model": two_task_model_dict("chaos-hostile"),
            "options": {"max_states": 10**9, "max_seconds": 10**6,
                        "witness": "none"},
        })
        result = json.loads(body)
        assert status == 200 and result["status"] == "checked", result
        assert result["wcrt_ticks"] == 12

    def test_identical_inflight_requests_coalesce(self, chaos_server):
        payload = {"model": two_task_model_dict("chaos-inflight")}
        outcomes = {}

        def first():
            outcomes["first"] = post_json(chaos_server.port, "/analyze",
                                          payload, timeout=120)

        thread = threading.Thread(target=first)
        thread.start()
        time.sleep(0.7)  # let the first request reach its (stalling) worker
        outcomes["second"] = post_json(chaos_server.port, "/analyze", payload,
                                       timeout=120)
        thread.join(120)
        status1, headers1, body1 = outcomes["first"]
        status2, headers2, body2 = outcomes["second"]
        assert status1 == 200 and status2 == 200
        assert headers1["x-repro-cache"] == "miss"
        assert headers2["x-repro-cache"] == "coalesced"
        assert body1 == body2

    def test_full_queue_rejected_with_retry_after(self, chaos_server):
        # chaos-slow and chaos-slow2 each stall STALL_SECONDS; queue_limit
        # is 2, so the two slow fingerprints fill the queue and a third
        # distinct request gets 429 while both workers are still pinned
        slow = {"model": two_task_model_dict("chaos-slow")}
        slow2 = {"model": two_task_model_dict("chaos-slow2")}
        outcomes = {}

        def submit(key, payload):
            outcomes[key] = post_json(chaos_server.port, "/analyze", payload,
                                      timeout=120)

        t1 = threading.Thread(target=submit, args=("slow", slow))
        t1.start()
        time.sleep(0.5)
        t2 = threading.Thread(target=submit, args=("queued", slow2))
        t2.start()
        time.sleep(0.3)
        status, headers, body = post_json(
            chaos_server.port, "/analyze",
            {"model": two_task_model_dict("chaos-rejected")})
        assert status == 429, body
        # derived from queue depth x recent mean latency: an integer >= 1 s
        # (the exact value depends on this module's earlier job latencies)
        assert int(headers["retry-after"]) >= 1
        assert json.loads(body)["error"] == "admission queue full"
        t1.join(120)
        t2.join(120)
        assert outcomes["slow"][0] == 200
        assert outcomes["queued"][0] == 200

    def test_metrics_accounted_every_request(self, chaos_server):
        _status, _headers, metrics = get_json(chaos_server.port, "/metrics")
        assert metrics["degraded"] == 3   # crash, oom, hang
        assert metrics["quarantined"] == 1
        assert metrics["rejected_quarantined"] == 1
        assert metrics["rejected_queue_full"] == 1
        assert metrics["coalesced"] == 1
        assert metrics["quarantined_fingerprints"] == 1
        # crash: 2 deaths; oom: 2 deaths; hang: 1 kill; poison: 2 deaths
        assert metrics["worker_restarts"] >= 7
        assert metrics["draining"] is False

    def test_drain_completes_inflight_jobs(self, chaos_server):
        # LAST live test: submit a stalling request, drain mid-flight, and probe
        # the draining window -- the in-flight request must still complete
        # with a real response, health must stay served, new analyses must
        # be refused.  The listener closes once the drain finishes, so the
        # port is captured up front and the probes run *during* the drain.
        port = chaos_server.port
        payload = {"model": two_task_model_dict("chaos-slow"),
                   "options": {"witness": "none"}}
        outcome = {}

        def submit():
            outcome["response"] = post_json(port, "/analyze", payload,
                                            timeout=120)

        thread = threading.Thread(target=submit)
        thread.start()
        time.sleep(0.5)
        drainer = threading.Thread(target=chaos_server.drain)
        drainer.start()
        time.sleep(0.3)  # the drain is now awaiting the in-flight request
        status, _h, health = get_json(port, "/healthz")
        assert status == 200 and health["status"] == "draining", health
        status, _h, body = post_json(
            port, "/analyze", {"model": two_task_model_dict("chaos-late")})
        assert status == 503
        assert json.loads(body)["error"] == "draining"
        drainer.join(120)
        thread.join(120)
        status, _headers, body = outcome["response"]
        assert status == 200, body
        assert json.loads(body)["status"] == "checked"


class TestSubprocessLifecycle:
    """A real repro-serve process through SIGKILL recovery and SIGTERM."""

    def test_sigkill_restart_serves_identical_bytes(self, tmp_path):
        cache = str(tmp_path / "serve.cache.jsonl")
        args = ["--workers", "1", "--cache", cache,
                "--max-states-cap", "5000", "--max-seconds-cap", "5"]
        env = {"REPRO_FAULTS": ""}  # isolate from any ambient plan
        payload = {"model": two_task_model_dict("lifecycle-model")}
        process, port = start_server(args, env=env)
        try:
            status, headers, first = post_json(port, "/analyze", payload)
            assert status == 200 and headers["x-repro-cache"] == "miss"
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
        # the fsync'd journal survives the SIGKILL; the restarted server
        # serves the recovered entry byte-identically
        process, port = start_server(args, env=env)
        try:
            status, headers, recovered = post_json(port, "/analyze", payload)
            assert status == 200
            assert headers["x-repro-cache"] == "hit"
            assert recovered == first
        finally:
            exitcode = stop_server(process)
        assert exitcode == 0

    def test_sigterm_is_a_clean_exit(self, tmp_path):
        process, port = start_server(
            ["--workers", "1", "--max-states-cap", "1000"],
            env={"REPRO_FAULTS": ""})
        healthy(port)
        assert stop_server(process, signal.SIGTERM) == 0
