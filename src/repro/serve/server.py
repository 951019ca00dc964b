"""The hardened analysis server (see ``docs/serving.md`` for the API).

One asyncio event loop accepts ``repro-diffcheck-model-v1`` JSON over
plain HTTP and settles every admitted request with exactly one of three
terminal verdicts:

* **exact/checked/anytime** -- the supervised worker pool ran the
  four-engine oracle (``options`` requests) or the anytime portfolio
  (``budget`` requests, :func:`repro.portfolio.anytime.analyze`) to
  completion;
* **degraded** -- the worker died, was deadline-killed or raised; the
  server computed the zero-budget anytime interval in-process
  (SymTA/MPA upper + budgeted DES lower bounds, ``max_states=0``);
* **quarantined** -- the degraded fallback failed too, or the circuit
  breaker already holds the request's fingerprint in cooldown (503).

Robustness mechanics, in request order: admission control (bounded queue,
429 + ``Retry-After`` when full), server-side budget clamping (hostile
``max_states``/``max_seconds`` are cut to the operator's caps *before*
fingerprinting), the content-addressed cache (a hit is served from the
journal byte-identical, ``X-Repro-Cache: hit``), in-flight coalescing (a
request identical to one being computed awaits that computation,
``X-Repro-Cache: coalesced``), the circuit breaker, and finally the
supervised pool.  SIGTERM drains gracefully: in-flight requests finish,
new ones get 503, the cache journal is flushed, the pool is reaped.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
from collections import deque
from dataclasses import dataclass

from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache, canonical_json, request_fingerprint
from repro.serve.http import HTTPError, read_request, write_response
from repro.serve.jobs import AnalysisJob, analysis_options, portfolio_budget
from repro.sweep.supervisor import SupervisorConfig, WorkerPool
from repro.util.errors import ModelError, ReproError

__all__ = ["ServerConfig", "Metrics", "AnalysisServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Operator-facing knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: supervised worker processes
    workers: int = 2
    #: admitted-but-unsettled requests beyond which new ones get 429
    queue_limit: int = 32
    #: hard per-attempt wall-clock limit (SIGKILL on overrun)
    deadline_seconds: float = 30.0
    #: retry attempts for transient (abnormal-exit) worker deaths
    max_attempts: int = 2
    backoff_seconds: float = 0.2
    #: server-side caps clamped onto every request's budgets
    max_states_cap: int = 50_000
    max_seconds_cap: float = 10.0
    #: ``repro-cache-v1`` journal path (None = in-memory cache only)
    cache_path: str | None = None
    #: circuit breaker: abnormal failures per fingerprint before quarantine
    breaker_threshold: int = 2
    breaker_cooldown: float = 60.0
    #: worker start method ("spawn" is fork-safe under the pool thread)
    start_method: str = "spawn"
    #: budgets of the in-process degraded fallback
    degraded_des_runs: int = 2
    degraded_des_seconds: float = 5.0
    degraded_des_horizon_periods: int = 50

    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            deadline_seconds=self.deadline_seconds,
            max_attempts=self.max_attempts,
            backoff_seconds=self.backoff_seconds,
            on_error="degrade",
            degraded_des_runs=self.degraded_des_runs,
            degraded_des_seconds=self.degraded_des_seconds,
            degraded_des_horizon_periods=self.degraded_des_horizon_periods,
        )


@dataclass
class Metrics:
    """Service counters, exposed verbatim on ``/metrics``."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced: int = 0
    rejected_queue_full: int = 0
    rejected_quarantined: int = 0
    rejected_invalid: int = 0
    ok: int = 0
    degraded: int = 0
    quarantined: int = 0
    # cumulative state-space reduction counters of successful oracle runs
    # (docs/reductions.md): LU-subsumed states, symmetry-folded keys
    states_subsumed_lu: int = 0
    keys_folded: int = 0

    def record_reductions(self, counters: "dict | None") -> None:
        """Accumulate one result's non-zero reduction counters."""
        for name in ("states_subsumed_lu", "keys_folded"):
            setattr(self, name, getattr(self, name) + int((counters or {}).get(name, 0)))

    def to_dict(self) -> dict:
        return dict(vars(self))


class AnalysisServer:
    """The asyncio HTTP front-end over one :class:`WorkerPool`."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.metrics = Metrics()
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown)
        self.cache: ResultCache | None = None
        self.pool: WorkerPool | None = None
        self.draining = False
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        #: wall latencies of the most recent settled jobs, feeding the
        #: 429 ``Retry-After`` estimate (queue depth x mean latency)
        self._latencies: deque[float] = deque(maxlen=32)
        self._jobs: set[asyncio.Future] = set()
        self._connections: set[asyncio.Task] = set()
        self._stopped: asyncio.Future | None = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopped = loop.create_future()
        self.cache = ResultCache(self.config.cache_path)
        self.pool = WorkerPool(self.config.workers,
                               self.config.supervisor_config(),
                               start_method=self.config.start_method)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful SIGTERM path: finish in-flight, reject new, flush, stop."""
        if self.draining:
            return
        self.draining = True
        # every open connection (and therefore every in-flight job) finishes
        # and gets its response before the pool goes away
        pending = [task for task in self._connections
                   if task is not asyncio.current_task()]
        if pending:
            await asyncio.wait(pending)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            self.pool.shutdown()
        if self.cache is not None:
            self.cache.close()
        if self._stopped is not None and not self._stopped.done():
            self._stopped.set_result(None)

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT triggers the graceful drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )
        assert self._stopped is not None
        await self._stopped

    # -- plumbing ---------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            try:
                request = await read_request(reader)
            except HTTPError as exc:
                await self._reply_error(writer, exc.status, exc.detail)
                return
            if request is None:
                return
            try:
                await self._route(request, writer)
            except HTTPError as exc:
                await self._reply_error(writer, exc.status, exc.detail)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _reply_error(self, writer, status: int, detail: str,
                           headers: dict | None = None) -> None:
        body = canonical_json({"error": detail})
        await write_response(writer, status, body, headers=headers)

    def _retry_after(self) -> int:
        """A 429's ``Retry-After`` estimate, in whole seconds (floor 1 s).

        Roughly when the backlog will have drained: the current queue depth
        times the mean wall latency of the recently settled jobs, rounded
        up.  With no completed job yet there is nothing to extrapolate from
        and the floor applies.
        """
        depth = self.pool.depth if self.pool is not None else 0
        if not self._latencies:
            return 1
        mean = sum(self._latencies) / len(self._latencies)
        return max(1, math.ceil(depth * mean))

    async def _route(self, request, writer) -> None:
        if request.path == "/healthz":
            # health stays green while draining: the process is still
            # completing work; "draining" tells the balancer to back off
            body = canonical_json({
                "status": "draining" if self.draining else "ok",
                "workers": self.config.workers,
            })
            await write_response(writer, 200, body)
            return
        if request.path == "/metrics":
            pool = self.pool
            payload = {
                **self.metrics.to_dict(),
                "queue_depth": pool.depth if pool is not None else 0,
                "worker_restarts": pool.restarts if pool is not None else 0,
                "cache_entries": len(self.cache) if self.cache is not None else 0,
                "quarantined_fingerprints": self.breaker.active,
                "draining": self.draining,
            }
            await write_response(writer, 200, canonical_json(payload))
            return
        if request.path == "/analyze":
            if request.method != "POST":
                raise HTTPError(405, "POST only")
            await self._handle_analyze(request, writer)
            return
        if request.path == "/batch":
            if request.method != "POST":
                raise HTTPError(405, "POST only")
            await self._handle_batch(request, writer)
            return
        raise HTTPError(404, f"no route {request.path!r}")

    @staticmethod
    def _json_body(request) -> dict:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"unparseable JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "body must be a JSON object")
        return payload

    # -- /analyze ---------------------------------------------------------
    async def _handle_analyze(self, request, writer) -> None:
        """POST /analyze -- one model, one analysis, one cached verdict.

        Request body (JSON object):

        * ``model`` (required) -- a ``repro-diffcheck-model-v1`` object;
        * ``options`` (oracle mode, default) -- knobs admitted by
          :func:`repro.serve.jobs.analysis_options`: oracle budgets plus a
          ``witness`` strategy.  Response: the four-engine verdict dict of
          :func:`repro.serve.jobs.job_result` (``status`` =
          checked/violation/skipped, per-engine values, violations,
          optional witness);
        * ``budget`` (anytime mode, mutually exclusive with ``options``) --
          a :class:`repro.portfolio.anytime.PortfolioBudget` object,
          clamped by :func:`repro.serve.jobs.portfolio_budget`.  Response:
          ``{"status": "anytime"}`` plus the ``repro-anytime-v1`` dict of
          :meth:`repro.portfolio.anytime.AnytimeResult.to_dict` (the sound
          ``[lower, upper]`` interval with per-engine attribution).

        Unknown/malformed fields are 400s; the *clamped* options or budget
        are part of the cache fingerprint, so identical requests coalesce
        and replay byte-identically (``X-Repro-Cache`` header).  Failures
        settle via :meth:`_degrade` (a zero-budget anytime interval,
        ``status: "degraded"``) or quarantine (503 + ``Retry-After``).
        """
        from repro.diffcheck.serialize import model_from_dict

        self.metrics.requests += 1
        payload = self._json_body(request)
        model_dict = payload.get("model")
        if not isinstance(model_dict, dict):
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, "missing 'model' object")
        if "budget" in payload and "options" in payload:
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, "'budget' (anytime mode) and 'options' "
                                 "(oracle mode) are mutually exclusive")
        budget_dict = payload.get("budget")
        if budget_dict is not None and not isinstance(budget_dict, dict):
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, "'budget' must be an object")
        try:
            # full structural validation up front: a malformed model is the
            # client's bug (400), never a worker crash
            model = model_from_dict(model_dict)
            if budget_dict is not None:
                budget = portfolio_budget(budget_dict,
                                          self.config.max_states_cap,
                                          self.config.max_seconds_cap)
                options = {}
            else:
                budget = {}
                options = analysis_options(payload.get("options", {}),
                                           self.config.max_states_cap,
                                           self.config.max_seconds_cap)
        except ModelError as exc:
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, str(exc)) from exc
        if not model.requirements:
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, "model carries no requirement to analyse")

        # the clamped budget is part of the identity: the same model under a
        # different budget is a different (differently-sound) answer
        fingerprint = request_fingerprint(
            model_dict, {"budget": budget} if budget else options
        )
        if self.draining:
            raise HTTPError(503, "draining")
        cached = self.cache.get(fingerprint) if self.cache else None
        if cached is not None:
            self.metrics.cache_hits += 1
            await write_response(writer, 200, cached,
                                 headers={"X-Repro-Cache": "hit"})
            return
        remaining = self.breaker.quarantined_for(fingerprint)
        if remaining is not None:
            self.metrics.rejected_quarantined += 1
            body = canonical_json({
                "status": "quarantined", "model": model.name,
                "detail": "fingerprint is in circuit-breaker cooldown",
            })
            await write_response(writer, 503, body,
                                 headers={"Retry-After":
                                          str(max(1, math.ceil(remaining)))})
            return
        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            # identical request already being computed: one exploration,
            # many responses
            self.metrics.coalesced += 1
            status, body = await asyncio.shield(inflight)
            await write_response(writer, status, body,
                                 headers={"X-Repro-Cache": "coalesced"})
            return
        if self.pool.depth >= self.config.queue_limit:
            self.metrics.rejected_queue_full += 1
            await self._reply_error(writer, 429, "admission queue full",
                                    headers={"Retry-After":
                                             str(self._retry_after())})
            return
        self.metrics.cache_misses += 1

        loop = asyncio.get_running_loop()
        settled = loop.create_future()
        self._inflight[fingerprint] = settled
        self._jobs.add(settled)
        settled.add_done_callback(self._jobs.discard)
        try:
            status, body = await self._compute(loop, model_dict, model, options,
                                               fingerprint, settled, budget)
        finally:
            self._inflight.pop(fingerprint, None)
            if not settled.done():  # pragma: no cover - defensive
                settled.cancel()
        await write_response(writer, status, body,
                             headers={"X-Repro-Cache": "miss"})

    async def _compute(self, loop, model_dict, model, options, fingerprint,
                       settled, budget=None) -> tuple[int, str]:
        job = AnalysisJob(name=f"serve/{model.name}", model=model_dict,
                          options=options, budget=budget or {})
        submitted = loop.time()
        kind, value, attempts = await self._submit(job)
        # every settled job feeds the Retry-After estimate -- a crashed or
        # deadline-killed job occupied a worker for exactly that long too
        self._latencies.append(loop.time() - submitted)
        if kind == "ok":
            body = canonical_json(value)
            self.cache.put(fingerprint, model.name, body)
            self.breaker.record_success(fingerprint)
            self.metrics.ok += 1
            if isinstance(value, dict):
                self.metrics.record_reductions(value.get("reduction_counters"))
            settled.set_result((200, body))
            return 200, body
        # a deterministic in-worker exception ("error") leaves the worker
        # healthy and the breaker uninvolved; every failure degrades (sweep
        # on_error="degrade" parity)
        if kind in ("died", "deadline"):
            self.breaker.record_failure(fingerprint)
        status, body = await loop.run_in_executor(
            None, self._degrade, model, fingerprint, value, attempts)
        settled.set_result((status, body))
        return status, body

    def _submit(self, job) -> asyncio.Future:
        """Hand *job* to the pool; the future resolves to its outcome."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.pool.submit(job, lambda *outcome: loop.call_soon_threadsafe(
            future.set_result, outcome))
        return future

    def _degrade(self, model, fingerprint: str, reason: str,
                 attempts: int) -> tuple[int, str]:
        """Settle a failed job with a zero-budget anytime interval -- or
        quarantine it.

        Runs in an executor thread: the fallback engines are analytic or
        cooperatively budgeted, so they cannot wedge the loop for long.  The
        interval is the zero-budget floor of the anytime portfolio
        (:func:`repro.portfolio.anytime.analyze` with ``max_states=0``), so
        a degraded response is an anytime response: sound ``[lower, upper]``
        bounds, each attributed to the engine that attained it.
        """
        from repro.portfolio.anytime import PortfolioBudget, analyze
        from repro.sweep.faults import maybe_inject
        from repro.util.errors import AnalysisError

        config = self.config
        requirement = next(iter(model.requirements.values()))
        try:
            # same chaos hook as the sweep's fallback (stage="degraded")
            maybe_inject(f"serve/{model.name}", -1, attempts, stage="degraded")
            result = analyze(model, PortfolioBudget(
                max_states=0,
                des_runs=config.degraded_des_runs,
                des_seconds=config.degraded_des_seconds,
                des_horizon_periods=config.degraded_des_horizon_periods,
            ), requirement=requirement.name)
            lower, upper = result.interval()
            if lower is None and upper is None:
                raise AnalysisError(
                    "degraded fallback produced no bound ("
                    + "; ".join(result.notes) + ")"
                )
        except ReproError as exc:
            self.breaker.quarantine(fingerprint)
            self.metrics.quarantined += 1
            body = canonical_json({
                "status": "quarantined", "model": model.name,
                "detail": f"{reason}; degraded fallback failed: {exc}",
            })
            return 503, body
        self.metrics.degraded += 1
        body = canonical_json({
            "status": "degraded",
            "model": model.name,
            "requirement": requirement.name,
            "bound_ticks": requirement.bound,
            "wcrt_ticks": None,
            "exact": False,
            "satisfied": result.satisfied,
            "degraded_lower_ticks": lower,
            "degraded_upper_ticks": upper,
            "anytime": result.to_dict(),
            "failure": reason,
            "attempts": attempts,
        })
        # degraded answers are real answers: cache them so resubmissions of
        # a crashing model cost nothing (the breaker cooldown still guards
        # fresh fingerprints)
        self.cache.put(fingerprint, model.name, body)
        return 200, body

    # -- /batch -----------------------------------------------------------
    async def _handle_batch(self, request, writer) -> None:
        from repro.sweep.cells import grid_cells

        self.metrics.requests += 1
        payload = self._json_body(request)
        grid = payload.get("grid")
        if not isinstance(grid, dict):
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, "missing 'grid' object")
        settings = dict(grid.get("settings", {}))
        settings["max_states"] = min(
            int(settings.get("max_states", self.config.max_states_cap)),
            self.config.max_states_cap,
        )
        try:
            cells = grid_cells(
                combinations=grid.get("combinations"),
                configurations=grid.get("configurations"),
                requirements=grid.get("requirements"),
                policies=grid.get("policies"),
                settings=settings,
            )
        except ModelError as exc:
            self.metrics.rejected_invalid += 1
            raise HTTPError(400, str(exc)) from exc
        if self.draining:
            raise HTTPError(503, "draining")
        if self.pool.depth + len(cells) > self.config.queue_limit:
            self.metrics.rejected_queue_full += 1
            await self._reply_error(writer, 429,
                                    f"batch of {len(cells)} cells exceeds queue",
                                    headers={"Retry-After":
                                             str(self._retry_after())})
            return
        outcomes = []
        for cell in cells:
            future = self._submit(cell)
            self._jobs.add(future)
            future.add_done_callback(self._jobs.discard)
            outcomes.append((cell, future))
        points = {}
        for cell, future in outcomes:
            kind, value, attempts = await future
            if kind == "ok":
                points[cell.name] = value.point()
                self.metrics.ok += 1
            else:
                points[cell.name] = {"termination": "failed",
                                     "failure": value,
                                     "attempts": attempts}
        body = canonical_json({"cells": len(cells), "points": points})
        await write_response(writer, 200, body)
