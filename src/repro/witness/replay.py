"""Witness validation: TA step-checking and trace-driven DES replay.

Two independent machine checks establish that a concrete witness schedule is
real:

* the **TA step-checker** (:func:`check_steps`) re-executes the schedule
  against the *concrete* semantics of the generated network of timed
  automata: starting from the initial state with all clocks at zero it
  advances time by each recorded delay, verifies that every invariant
  survives the delay, that urgent states do not delay, that the named
  transition is enabled (data guards via the memoised plans, clock guards on
  the concrete valuation) and applies its updates and resets — a witness
  passes only if it is a genuine run of the network;
* the **DES replay** (:class:`ReplaySimulator`) feeds the witness's concrete
  arrival times into the existing discrete-event servers in a deterministic
  trace-driven mode: the recorded dispatch order guides the servers through
  the nondeterministic scheduling choices (and through the TA's
  preempt-at-completion-instant races), and the replayed response time of
  the tagged scenario instance must equal the witness's response exactly.

:func:`validate_witness` runs both and aggregates the findings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.arch.generator import GeneratedModel, build_model
from repro.arch.model import ArchitectureModel
from repro.baselines.des.servers import ResourceServer, RoundRobinServer, TdmaServer
from repro.baselines.des.simulator import _SimulationRun
from repro.core.network import CompiledNetwork
from repro.core.successors import SuccessorGenerator
from repro.util.errors import AnalysisError
from repro.witness.schedule import ConcreteRun

__all__ = [
    "StepCheckReport",
    "ReplayReport",
    "WitnessValidation",
    "check_steps",
    "ReplaySimulator",
    "validate_witness",
]


# ---------------------------------------------------------------------------
# TA step-checking
# ---------------------------------------------------------------------------

@dataclass
class StepCheckReport:
    """Outcome of re-validating a witness against the network semantics."""

    problems: list[str] = field(default_factory=list)
    #: final concrete clock valuation (network clock ids)
    final_clocks: tuple[int, ...] = ()
    final_locations: tuple[int, ...] = ()
    final_variables: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def _holds(values: Sequence[int], i: int, j: int, raw: int) -> bool:
    """Concrete satisfaction of the raw DBM constraint ``x_i - x_j (raw)``."""
    diff = values[i] - values[j]
    value, strict = raw >> 1, (raw & 1) == 0
    return diff < value or (not strict and diff == value)


def check_steps(network: CompiledNetwork, run: ConcreteRun) -> StepCheckReport:
    """Re-execute *run* step by step under the concrete TA semantics."""
    report = StepCheckReport()
    generator = SuccessorGenerator(network)
    instance_names = [instance.name for instance in network.instances]
    locations = network.initial_locations()
    variables = network.initial_variables
    clocks = [0] * network.dim
    now = 0

    info = generator._discrete_info(locations, variables)
    for i, j, raw in info.invariants:
        if not _holds(clocks, i, j, raw):
            report.problems.append("initial state violates an invariant")

    for step in run.steps:
        prefix = f"step {step.index} (t={step.time})"
        delay = step.time - now
        if delay < 0:
            report.problems.append(f"{prefix}: time runs backwards")
            break
        if delay != step.delay:
            report.problems.append(f"{prefix}: recorded delay {step.delay} != {delay}")
        if delay > 0 and info.urgent:
            report.problems.append(f"{prefix}: delay of {delay} in an urgent state")
        for c in range(1, network.dim):
            clocks[c] += delay
        # every invariant of the pre-transition state must survive the delay
        for i, j, raw in info.invariants:
            if not _holds(clocks, i, j, raw):
                report.problems.append(f"{prefix}: invariant violated after the delay")
                break

        info = generator.plan_info(locations, variables)
        wanted_edges = tuple(tuple(edge) for edge in step.edges)
        wanted_resets = tuple(tuple(pair) for pair in step.resets)
        candidates = []
        for plan in info.plans:
            if plan.kind != step.kind or plan.channel != step.channel:
                continue
            plan_edges = tuple(
                (
                    instance_names[edge.instance],
                    network.instances[edge.instance].locations[edge.source].name,
                    network.instances[edge.instance].locations[edge.target].name,
                )
                for edge in plan.participants
            )
            if plan_edges == wanted_edges and plan.error is None:
                candidates.append(plan)
        # several data-enabled plans may share their edge endpoints (e.g. the
        # observer's tag / no-tag edges); the recorded resets disambiguate
        exact = [p for p in candidates if tuple(p.resets) == wanted_resets]
        fired = None
        for plan in exact or candidates:
            if all(_holds(clocks, i, j, raw) for i, j, raw in plan.guards):
                fired = plan
                break
        if fired is None:
            reason = (
                "its clock guards are not satisfied" if candidates
                else "no such transition exists in this state"
            )
            report.problems.append(f"{prefix}: transition is not enabled ({reason})")
            break

        for clock, value in fired.resets:
            clocks[clock] = value
        if tuple(fired.resets) != tuple(step.resets):
            report.problems.append(f"{prefix}: recorded resets differ from the model's")
        locations, variables = fired.locations, fired.variables
        now = step.time
        info = generator._discrete_info(locations, variables)
        for i, j, raw in info.invariants:
            if not _holds(clocks, i, j, raw):
                report.problems.append(f"{prefix}: target invariant violated on entry")
                break

    report.final_clocks = tuple(clocks)
    report.final_locations = tuple(locations)
    report.final_variables = tuple(variables)
    return report


# ---------------------------------------------------------------------------
# Trace-driven DES replay
# ---------------------------------------------------------------------------

class _GuidedServer(ResourceServer):
    """A resource server that follows a witness's recorded dispatch order.

    ``script`` is the sequence of step names (task keys) in the order the
    witness dispatched them on this resource (starts and resumes alike);
    ``preempts`` lists the ``(time, task key)`` instants at which the
    witness preempts the running job.  The script only *selects among ready
    jobs* — it can never start work that has not been released.  While the
    script's next job is not ready yet the server simply waits (the witness
    had the resource idle, or the job is submitted later within the same
    instant); a witness that never delivers the scripted job leaves the
    script non-empty, which the replay reports as a divergence.
    """

    def __init__(self, simulator, name, preemptive, priority_based,
                 script: Sequence[str], preempts: Sequence[tuple[int, str]],
                 problems: list[str]):
        super().__init__(simulator, name, preemptive=preemptive,
                         priority_based=priority_based)
        self._script = deque(script)
        self._preempts = list(preempts)
        self._problems = problems

    def leftover_script(self) -> int:
        return len(self._script)

    def _pick_next(self):
        if self._script:
            key = self._script[0]
            matching = [job for job in self._ready if job.task_key == key]
            if matching:
                return min(matching, key=lambda job: job.sequence)
            return None  # the scripted job is not ready yet: wait for it
        return super()._pick_next()

    def _start_next(self):
        super()._start_next()
        if (
            self._running is not None
            and self._script
            and self._running.task_key == self._script[0]
        ):
            self._script.popleft()

    def _preempt_running(self, allow_finished: bool = False) -> None:
        job = self._running
        assert job is not None
        elapsed = self.simulator.now - self._running_since
        job.remaining -= elapsed
        self.busy_ticks += elapsed
        if job.remaining < 0 or (job.remaining == 0 and not allow_finished):
            raise AnalysisError(
                f"internal error: preempting a finished job on {self.name}"
            )
        if self._completion is not None:
            self._completion.cancel()
        self._ready.append(job)
        self._running = None
        self._completion = None

    def _reschedule(self) -> None:
        if self._running is None:
            self._start_next()
            return
        if not self.preemptive or not self.priority_based:
            return
        candidate = self._pick_next()
        if candidate is None or candidate.priority >= self._running.priority:
            return
        now = self.simulator.now
        scripted = (now, self._running.task_key)
        if self._running.remaining <= now - self._running_since:
            # the running job completes at this very instant; the TA
            # semantics still allows the released higher-priority job to win
            # the race and preempt it (its remaining work is then zero and it
            # completes immediately when resumed) -- follow the witness
            if scripted in self._preempts:
                self._preempts.remove(scripted)
                self._preempt_running(allow_finished=True)
                self._start_next()
            return
        self._preempt_running()
        self._start_next()

    def _complete(self) -> None:
        scripted = (self.simulator.now, self._running.task_key)
        if scripted in self._preempts:
            # the same race, with the winner submitted *after* this
            # completion event within the instant: the witness preempts the
            # finished job anyway, so it waits with zero work left until the
            # script resumes it (and only then completes)
            self._preempts.remove(scripted)
            self._preempt_running(allow_finished=True)
            self._start_next()
            return
        super()._complete()


class _GuidedRoundRobinServer(RoundRobinServer):
    """A round-robin server that follows the witness's dispatch order.

    The budgeted round-robin automaton interleaves its urgent zero-time
    turn skips with same-instant arrivals, so the visit that wins a given
    instant depends on the injection order the symbolic engine chose.  The
    guided server waits for the scripted job (like :class:`_GuidedServer`)
    and advances the turn pointer to its visit exactly as the automaton's
    zero-time skips would, keeping the budget bookkeeping consistent for
    the post-witness tail.
    """

    def __init__(self, simulator, name, order, budgets,
                 script: Sequence[str], problems: list[str]):
        super().__init__(simulator, name, order, budgets)
        self._script = deque(script)
        self._problems = problems

    def leftover_script(self) -> int:
        return len(self._script)

    def _pick_next(self):
        if self._script:
            key = self._script[0]
            matching = [job for job in self._ready if job.task_key == key]
            if not matching:
                return None  # the scripted job is not ready yet: wait for it
            for _ in range(len(self._order) + 1):
                current = self._order[self._turn]
                if current == key and self._served < self._budgets[key]:
                    self._served += 1
                    return min(matching, key=lambda job: job.sequence)
                self._advance()
            self._problems.append(
                f"{self.name}: witness dispatch of {key!r} is not reachable "
                "by cyclic visits"
            )
            self._script.clear()
        return super()._pick_next()

    def _start_next(self):
        super()._start_next()
        if (
            self._running is not None
            and self._script
            and self._running.task_key == self._script[0]
        ):
            self._script.popleft()


class _GuidedTdmaServer(TdmaServer):
    """A TDMA server that follows the witness's recorded start instants.

    The TDMA automaton races a job arriving exactly at the begin instant of
    its own slot against the slot switch: the job may be served there or
    wait a full cycle.  The plain :class:`TdmaServer` resolves the race
    optimistically; the guided variant dispatches each job at the slot begin
    the witness recorded (falling back to the default rule once the script
    is exhausted), rejecting start times that are not legal begins of the
    job's own slot.
    """

    def __init__(self, simulator, name, slot_ticks, order,
                 starts: dict[str, deque[int]], problems: list[str]):
        super().__init__(simulator, name, slot_ticks, order)
        self._guided_starts = starts
        self._problems = problems

    def leftover_script(self) -> int:
        return sum(len(queue) for queue in self._guided_starts.values())

    def submit(self, job) -> None:
        queue = self._guided_starts.get(job.task_key)
        if not queue:
            super().submit(job)
            return
        start = queue.popleft()
        now = self.simulator.now
        index = self._slot_index.get(job.task_key)
        offset = (index or 0) * self.slot_ticks
        legal = (
            index is not None
            and start >= now
            and (start - offset) % self.cycle == 0
            and (start - offset) // self.cycle >= self._next_cycle[job.task_key]
            and job.demand <= self.slot_ticks
        )
        if not legal:
            self._problems.append(
                f"{self.name}: witness starts {job.name!r} at t={start}, which is "
                "not a free begin instant of its own slot"
            )
            super().submit(job)
            return
        job.submitted_at = now
        self._next_cycle[job.task_key] = (start - offset) // self.cycle + 1
        self._in_flight.append((start, start + job.demand))
        self.simulator.schedule_at(start + job.demand, lambda: self._complete(job, start))


@dataclass
class ReplayReport:
    """Outcome of the trace-driven DES replay."""

    problems: list[str] = field(default_factory=list)
    #: response-time samples of the measured requirement, FIFO instance order
    samples: tuple[int, ...] = ()
    #: the replayed response of the tagged instance (None when it never completed)
    replayed_response: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class ReplaySimulator:
    """Deterministic trace-driven DES replay of a concrete witness run."""

    def __init__(self, model: ArchitectureModel, run: ConcreteRun):
        self.model = model
        self.run = run
        self.problems: list[str] = []

    def _horizon(self) -> int:
        """A horizon past which every released job has surely completed."""
        total_work = 0
        jobs = 0
        for scenario, times in self.run.arrivals.items():
            jobs += len(times)
            total_work += len(times) * self.model.chain_duration(scenario)
        cycle = 1
        for resource in (*self.model.processors.values(), *self.model.buses.values()):
            if not self.model.steps_on_resource(resource.name):
                continue
            if resource.policy.time_triggered:
                cycle = max(cycle, self.model.tdma_cycle(resource.name))
            elif resource.policy.budgeted:
                cycle = max(cycle, self.model.rr_round_length(resource.name))
        steps_total = sum(len(s.steps) for s in self.model.scenarios.values())
        return self.run.total_ticks + total_work + (jobs * steps_total + 2) * cycle + 1

    def replay(self) -> ReplayReport:
        report = ReplayReport()
        scripts: dict[str, list[str]] = {}
        preempts: dict[str, list[tuple[int, str]]] = {}
        for event in self.run.events:
            if event.resource is None:
                continue
            if event.kind in ("start", "resume"):
                scripts.setdefault(event.resource, []).append(event.step)
            elif event.kind == "preempt":
                preempts.setdefault(event.resource, []).append((event.time, event.step))

        start_times: dict[str, dict[str, deque[int]]] = {}
        for event in self.run.events:
            if event.kind == "start" and event.resource is not None:
                start_times.setdefault(event.resource, {}).setdefault(
                    event.step, deque()
                ).append(event.time)

        guided: list = []

        def factory(simulator, model, resource, preemptable):
            policy = resource.policy
            if model.steps_on_resource(resource.name):
                if policy.time_triggered:
                    order = [
                        step.name
                        for _scenario, step in model.cyclic_order(resource.name)
                    ]
                    server = _GuidedTdmaServer(
                        simulator, resource.name, resource.slot_ticks or 0, order,
                        starts=start_times.get(resource.name, {}),
                        problems=report.problems,
                    )
                    guided.append(server)
                    return server
                if policy.budgeted:
                    order = [
                        step.name
                        for _scenario, step in model.cyclic_order(resource.name)
                    ]
                    budgets = {name: resource.rr_budget(name) for name in order}
                    server = _GuidedRoundRobinServer(
                        simulator, resource.name, order, budgets,
                        script=scripts.get(resource.name, ()),
                        problems=report.problems,
                    )
                    guided.append(server)
                    return server
            server = _GuidedServer(
                simulator, resource.name,
                preemptive=preemptable and policy.preemptive,
                priority_based=policy.priority_based,
                script=scripts.get(resource.name, ()),
                preempts=preempts.get(resource.name, ()),
                problems=report.problems,
            )
            guided.append(server)
            return server

        # ordered (scenario, time) pairs: the witness's global release order
        # pins the interleaving of same-instant arrivals across scenarios
        release_sequence = [
            (event.scenario, event.time)
            for event in self.run.events
            if event.kind == "release"
        ]
        sim = _SimulationRun(
            self.model,
            seed=0,
            horizon=self._horizon(),
            arrival_overrides=release_sequence,
            server_factory=factory,
        )
        try:
            sim.run()
        except AnalysisError as exc:
            report.problems.append(f"replay crashed: {exc}")
            return report

        for server in guided:
            leftover = server.leftover_script()
            if leftover:
                report.problems.append(
                    f"{server.name}: {leftover} scripted dispatch(es) were never "
                    "realisable in the replay"
                )

        samples = sim.samples.get(self.run.requirement, [])
        report.samples = tuple(samples)
        tagged = self.run.tagged_index
        if tagged is not None:
            if tagged < len(samples):
                report.replayed_response = samples[tagged]
                if (
                    self.run.response_ticks is not None
                    and samples[tagged] != self.run.response_ticks
                ):
                    report.problems.append(
                        f"replayed response {samples[tagged]} != witness response "
                        f"{self.run.response_ticks} (tagged instance {tagged})"
                    )
            else:
                report.problems.append(
                    f"tagged instance {tagged} never completed in the replay "
                    f"({len(samples)} samples)"
                )
        return report


# ---------------------------------------------------------------------------
# Combined validation
# ---------------------------------------------------------------------------

@dataclass
class WitnessValidation:
    """Aggregate verdict of the TA step-check and the DES replay."""

    step_check: StepCheckReport
    replay: ReplayReport
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and self.step_check.ok and self.replay.ok

    def describe(self) -> str:
        if self.ok:
            return (
                f"witness ok: TA step-check passed, DES replay reproduced "
                f"response {self.replay.replayed_response}"
            )
        lines = ["witness INVALID:"]
        for problem in (*self.problems, *self.step_check.problems, *self.replay.problems):
            lines.append(f"  {problem}")
        return "\n".join(lines)


def validate_witness(
    model: ArchitectureModel,
    run: ConcreteRun,
    generated: GeneratedModel | None = None,
) -> WitnessValidation:
    """Validate *run* against *model* with both machine checks.

    ``generated`` may pass in an already generated/compiled network (the
    analysis that produced the trace); otherwise the network is regenerated
    from the model and the witness's requirement, which is the path the
    counterexample replay takes.
    """
    if generated is None:
        generated = build_model(model, run.requirement)
    network = generated.compile()
    step_report = check_steps(network, run)

    problems: list[str] = []
    if generated.observer_clock is not None and run.response_ticks is not None:
        y = network.clock_id(generated.observer_clock)
        if not step_report.problems:
            final = step_report.final_clocks[y]
            if final != run.response_ticks:
                problems.append(
                    f"observer clock ends at {final}, witness claims "
                    f"{run.response_ticks}"
                )
    if generated.observer_condition is not None and not step_report.problems:
        from repro.core.properties import LocationProp

        condition = generated.observer_condition
        if isinstance(condition, LocationProp):
            inst, loc = network.location_id(condition.instance, condition.location)
            if step_report.final_locations[inst] != loc:
                problems.append(
                    "the schedule does not end in the observer's 'seen' state"
                )

    replay_report = ReplaySimulator(model, run).replay()
    return WitnessValidation(
        step_check=step_report, replay=replay_report, problems=problems
    )
