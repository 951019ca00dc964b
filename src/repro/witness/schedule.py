"""Concrete witness runs: timed schedules, schedule events, serialisation.

A :class:`ConcreteRun` packages one concretised trace as an explicit timed
schedule of the architecture: the per-transition times of the underlying
network run plus the derived *schedule events* — releases, job starts,
preemptions, resumptions and completions per scenario instance — which are
what the Gantt rendering, the DES replay and the serialised witness expose.

Serialised witnesses use the ``repro-witness-v1`` schema.  A witness is
deliberately self-describing but *not* self-contained: it names transitions
by (instance, source location, target location), so validation always
re-derives guards and semantics from the architecture model it is replayed
against — a witness can never smuggle in its own interpretation of the
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.arch.model import ArchitectureModel
from repro.util.errors import WitnessError
from repro.witness.concretise import ConcretisedStep

__all__ = [
    "WITNESS_SCHEMA",
    "ScheduleEvent",
    "ConcreteRun",
    "derive_events",
    "run_to_dict",
    "run_from_dict",
]

#: schema marker of serialised witnesses
WITNESS_SCHEMA = "repro-witness-v1"

#: prefix of event-injection broadcast channels (see repro.arch.generator)
_INJECT_PREFIX = "inject_"


@dataclass(frozen=True)
class ScheduleEvent:
    """One schedulable event of the concrete run.

    ``kind`` is one of ``"release"`` (scenario arrival), ``"start"``,
    ``"preempt"``, ``"resume"`` and ``"complete"`` (job-level events on a
    resource).  ``job`` is the 0-based scenario-instance index the event
    belongs to (releases count arrivals; job events count FIFO per step).
    """

    kind: str
    time: int
    scenario: str
    step: str | None
    resource: str | None
    job: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "scenario": self.scenario,
            "step": self.step,
            "resource": self.resource,
            "job": self.job,
        }


@dataclass(frozen=True)
class ConcreteRun:
    """A validated-replayable concrete witness schedule."""

    model_name: str
    requirement: str
    strategy: str
    #: the response time the schedule attains (observer clock at the end)
    response_ticks: int | None
    #: absolute transition times T_0..T_n
    times: tuple[int, ...]
    steps: tuple[ConcretisedStep, ...]
    events: tuple[ScheduleEvent, ...]
    #: concrete arrival times per scenario (the DES replay input)
    arrivals: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: 0-based index of the measured (tagged) scenario instance
    tagged_index: int | None = None
    #: scenario the measured requirement belongs to
    measured_scenario: str | None = None

    @property
    def total_ticks(self) -> int:
        return self.times[-1] if self.times else 0


# ---------------------------------------------------------------------------
# Schedule-event derivation
# ---------------------------------------------------------------------------

def _resource_location_map(model: ArchitectureModel) -> dict:
    """(resource, location name) -> semantic role, from the generator's naming.

    Mirrors :mod:`repro.arch.generator`: busy locations are
    ``exec_<scen>_<step>`` / ``send_<scen>_<step>`` (``sending_<i>`` for
    TDMA), preemption sub-locations ``pre_<lo...>_<hi...>``.  Building the
    names *forward* from the model sidesteps any parsing ambiguity of step
    names containing underscores.
    """
    mapping: dict[tuple[str, str], tuple] = {}
    for resource in (*model.processors.values(), *model.buses.values()):
        mapped = model.steps_on_resource(resource.name)
        if not mapped:
            continue
        if resource.policy.time_triggered:
            for index, (scenario, step) in enumerate(model.cyclic_order(resource.name)):
                mapping[(resource.name, f"sending_{index}")] = (
                    "busy", scenario.name, step.name,
                )
            continue
        for scenario, step in mapped:
            for prefix in ("exec", "send"):
                mapping[(resource.name, f"{prefix}_{scenario.name}_{step.name}")] = (
                    "busy", scenario.name, step.name,
                )
        for lo_scenario, lo_step in mapped:
            for hi_scenario, hi_step in mapped:
                name = (
                    f"pre_{lo_scenario.name}_{lo_step.name}"
                    f"_{hi_scenario.name}_{hi_step.name}"
                )
                mapping[(resource.name, name)] = (
                    "pre", hi_scenario.name, hi_step.name,
                    lo_scenario.name, lo_step.name,
                )
    return mapping


def derive_events(
    model: ArchitectureModel,
    steps: Sequence[ConcretisedStep],
) -> tuple[tuple[ScheduleEvent, ...], dict[str, tuple[int, ...]]]:
    """Derive the job-level schedule events of a concretised trace.

    Returns the event list (in trace order) and the concrete arrival times
    per scenario.  Jobs are indexed FIFO per (scenario, step), matching both
    the queue-counter semantics of the generated automata and the
    chain-instance bookkeeping of the DES baseline.
    """
    location_map = _resource_location_map(model)
    resource_names = set(model.processors) | set(model.buses)
    arrivals: dict[str, list[int]] = {name: [] for name in model.scenarios}
    starts: dict[tuple[str, str], int] = {}
    completes: dict[tuple[str, str], int] = {}
    events: list[ScheduleEvent] = []

    def job_event(kind: str, time: int, scenario: str, step: str, resource: str) -> None:
        key = (scenario, step)
        if kind == "start":
            job = starts.get(key, 0)
            starts[key] = job + 1
        else:  # preempt / resume / complete refer to the job currently in service
            job = completes.get(key, 0)
            if kind == "complete":
                completes[key] = job + 1
        events.append(ScheduleEvent(kind, time, scenario, step, resource, job))

    for cstep in steps:
        if cstep.channel and cstep.channel.startswith(_INJECT_PREFIX):
            scenario = cstep.channel[len(_INJECT_PREFIX):]
            if scenario in arrivals:
                events.append(ScheduleEvent(
                    "release", cstep.time, scenario, None, None, len(arrivals[scenario])
                ))
                arrivals[scenario].append(cstep.time)
        for instance, source, target in cstep.edges:
            if instance not in resource_names:
                continue
            src = location_map.get((instance, source))
            tgt = location_map.get((instance, target))
            if tgt is not None and tgt[0] == "busy" and (src is None or src[0] != "pre"):
                job_event("start", cstep.time, tgt[1], tgt[2], instance)
            elif src is not None and src[0] == "busy" and tgt is not None and tgt[0] == "pre":
                # the running job is preempted; the higher-priority job starts
                job_event("preempt", cstep.time, src[1], src[2], instance)
                job_event("start", cstep.time, tgt[1], tgt[2], instance)
            elif src is not None and src[0] == "pre" and tgt is not None and tgt[0] == "busy":
                # the preempting job completes; the preempted one resumes
                job_event("complete", cstep.time, src[1], src[2], instance)
                job_event("resume", cstep.time, src[3], src[4], instance)
            elif src is not None and src[0] == "busy" and (tgt is None or tgt[0] != "busy"):
                job_event("complete", cstep.time, src[1], src[2], instance)

    return tuple(events), {name: tuple(times) for name, times in arrivals.items()}


# ---------------------------------------------------------------------------
# Serialisation (repro-witness-v1)
# ---------------------------------------------------------------------------

def run_to_dict(run: ConcreteRun) -> dict:
    """Serialise a witness run into a plain JSON-able dict."""
    return {
        "schema": WITNESS_SCHEMA,
        "model": run.model_name,
        "requirement": run.requirement,
        "strategy": run.strategy,
        "response_ticks": run.response_ticks,
        "tagged_index": run.tagged_index,
        "measured_scenario": run.measured_scenario,
        "times": list(run.times),
        "steps": [
            {
                "index": step.index,
                "time": step.time,
                "delay": step.delay,
                "kind": step.kind,
                "channel": step.channel,
                "edges": [list(edge) for edge in step.edges],
                "resets": [list(pair) for pair in step.resets],
            }
            for step in run.steps
        ],
        "events": [event.to_dict() for event in run.events],
        "arrivals": {name: list(times) for name, times in run.arrivals.items()},
    }


def run_from_dict(data: Mapping) -> ConcreteRun:
    """Rebuild a :class:`ConcreteRun` from its ``repro-witness-v1`` form.

    The concrete clock valuations are not serialised — validators recompute
    them from the model, which is the whole point of a witness.
    """
    schema = data.get("schema")
    if schema != WITNESS_SCHEMA:
        raise WitnessError(
            f"unknown witness schema {schema!r}; this build reads {WITNESS_SCHEMA!r} only"
        )
    steps = tuple(
        ConcretisedStep(
            index=int(entry["index"]),
            time=int(entry["time"]),
            delay=int(entry["delay"]),
            kind=entry["kind"],
            channel=entry.get("channel"),
            edges=tuple(tuple(edge) for edge in entry.get("edges", ())),
            resets=tuple((int(c), int(v)) for c, v in entry.get("resets", ())),
        )
        for entry in data.get("steps", ())
    )
    events = tuple(
        ScheduleEvent(
            kind=entry["kind"],
            time=int(entry["time"]),
            scenario=entry["scenario"],
            step=entry.get("step"),
            resource=entry.get("resource"),
            job=int(entry.get("job", 0)),
        )
        for entry in data.get("events", ())
    )
    response = data.get("response_ticks")
    tagged = data.get("tagged_index")
    return ConcreteRun(
        model_name=data.get("model", ""),
        requirement=data.get("requirement", ""),
        strategy=data.get("strategy", "earliest"),
        response_ticks=None if response is None else int(response),
        times=tuple(int(t) for t in data.get("times", (0,))),
        steps=steps,
        events=events,
        arrivals={
            name: tuple(int(t) for t in times)
            for name, times in data.get("arrivals", {}).items()
        },
        tagged_index=None if tagged is None else int(tagged),
        measured_scenario=data.get("measured_scenario"),
    )
