"""High-level worst-case response time analysis of architecture models.

This is the façade most users interact with: give it an
:class:`~repro.arch.model.ArchitectureModel` and the name of a latency
requirement, and it generates the timed-automata network, runs the model
checker and returns the worst-case response time (or, when a state/time
budget cuts the exploration short, the best lower bound found — the paper's
``> x (df/rdf)`` entries of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.arch.generator import GeneratedModel, GeneratorOptions, build_model
from repro.arch.model import ArchitectureModel
from repro.core.reachability import SearchOptions
from repro.core.reductions import ReductionConfig
from repro.core.successors import SemanticsOptions
from repro.core.wcrt import WCRTResult, wcrt_binary_search, wcrt_sup
from repro.util.errors import AnalysisError, ModelError

__all__ = ["TimedAutomataSettings", "RequirementAnalysis", "analyze_wcrt", "analyze_requirements"]


@dataclass
class TimedAutomataSettings:
    """Settings of the timed-automata WCRT analysis."""

    #: "sup" (single exploration, default) or "binary-search" (Property 1)
    method: str = "sup"
    #: search order handed to the explorer ("bfs", "dfs", "rdfs")
    search_order: str = "bfs"
    #: state budget (None = unlimited); exceeded budgets yield lower bounds
    max_states: int | None = None
    #: wall-clock budget in seconds (None = unlimited)
    max_seconds: float | None = None
    #: absolute ``time.perf_counter`` deadline (None = unlimited); set by the
    #: supervised sweep runner so one wall-clock limit covers the whole cell
    deadline: float | None = None
    #: seed for the randomised depth-first order
    seed: int = 0
    #: extrapolation mode of the symbolic semantics: "max" or "none" (the LU
    #: grid is selected through ``reductions``)
    extrapolation: str = "max"
    #: the observer-clock ceiling is ``ceiling_factor`` times the requirement
    #: bound; responses beyond the ceiling are reported as lower bounds
    ceiling_factor: float = 2.0
    #: explicit observer-clock ceiling in ticks, overriding ``ceiling_factor``.
    #: Sound whenever it exceeds the true WCRT (e.g. a SymTA/MPA analytic
    #: upper bound plus a margin, as set by :mod:`repro.portfolio.guided`);
    #: a tighter ceiling coarsens zone extrapolation and shrinks the explored
    #: state space without changing any value below it
    ceiling_ticks: int | None = None
    #: lower edge of the binary-search interval (exclusive), in ticks.  Sound
    #: whenever the WCRT is known to be at least this value (e.g. a response
    #: time observed in a concrete DES run); ignored by ``method="sup"``
    binary_lo: int = 0
    #: key partitions the exact exploration forks into (0/1 = in-process).
    #: Verdicts, statistics and witnesses are bit-identical to the
    #: in-process run; see ``docs/performance.md``
    shard_workers: int = 0
    #: options of the network generator
    generator: GeneratorOptions = field(default_factory=GeneratorOptions)
    #: whether to keep parent pointers for witness traces
    record_traces: bool = False
    #: exactness-preserving state-space reductions (LU extrapolation,
    #: symmetry).  Accepts a
    #: :class:`~repro.core.reductions.ReductionConfig`, a spec string such as
    #: ``"all"``/``"none"``/``"symmetry"``, or a mapping;
    #: ``None`` means all reductions enabled (the default)
    reductions: ReductionConfig | str | Mapping | None = None

    def __post_init__(self):
        if self.extrapolation not in ("max", "none"):
            raise ModelError(
                f"unknown extrapolation mode {self.extrapolation!r} (expected "
                "'max' or 'none'; LU extrapolation is "
                "reductions='lu_extrapolation')"
            )
        self.reductions = ReductionConfig.parse(self.reductions)

    def search_options(self) -> SearchOptions:
        return SearchOptions(
            order=self.search_order,
            max_states=self.max_states,
            max_seconds=self.max_seconds,
            deadline=self.deadline,
            seed=self.seed,
            record_traces=self.record_traces,
            reductions=self.reductions,
            shard_workers=self.shard_workers,
        )

    def semantics_options(self) -> SemanticsOptions:
        return SemanticsOptions(extrapolation=self.extrapolation)


@dataclass
class RequirementAnalysis:
    """WCRT analysis result for one requirement."""

    requirement: str
    scenario: str
    #: worst-case response time in model ticks (or best lower bound)
    wcrt_ticks: int | None
    #: the same value converted to milliseconds for easy comparison with the paper
    wcrt_ms: float | None
    #: the requirement bound in ticks
    bound_ticks: int
    #: True when the WCRT is only a lower bound (exploration budget hit)
    is_lower_bound: bool
    #: True when the requirement is met (None when undecidable from a lower bound)
    satisfied: bool | None
    #: raw model-checker result (statistics, trace, method)
    detail: WCRTResult
    #: the generated network (for inspection / export)
    generated: GeneratedModel

    def __str__(self) -> str:
        value = "?" if self.wcrt_ms is None else f"{self.wcrt_ms:.3f} ms"
        prefix = "> " if self.is_lower_bound else ""
        status = {True: "OK", False: "VIOLATED", None: "UNDECIDED"}[self.satisfied]
        return (
            f"{self.requirement}: WCRT {prefix}{value} "
            f"(bound {self.bound_ticks} ticks) [{status}]"
        )


def analyze_wcrt(
    model: ArchitectureModel,
    requirement: str,
    settings: TimedAutomataSettings | None = None,
) -> RequirementAnalysis:
    """Compute the worst-case response time of one requirement.

    The returned :class:`RequirementAnalysis` contains the WCRT in model ticks
    and in milliseconds, whether the requirement's bound is met, and the
    exploration statistics.
    """
    settings = settings or TimedAutomataSettings()
    requirement_obj = model.requirement(requirement)
    generated = build_model(model, requirement_obj, settings.generator)
    compiled = generated.compile()
    if generated.observer_clock is None or generated.observer_condition is None:
        raise AnalysisError("generated model carries no observer; cannot measure a WCRT")

    if settings.ceiling_ticks is not None:
        ceiling = max(int(settings.ceiling_ticks), 1)
    else:
        ceiling = max(
            int(requirement_obj.bound * settings.ceiling_factor),
            requirement_obj.bound + 1,
        )

    if settings.method == "sup":
        result = wcrt_sup(
            compiled,
            generated.observer_clock,
            generated.observer_condition,
            ceiling=ceiling,
            semantics=settings.semantics_options(),
            search=settings.search_options(),
        )
    elif settings.method in ("binary", "binary-search"):
        result = wcrt_binary_search(
            compiled,
            generated.observer_clock,
            generated.observer_condition,
            lo=min(max(settings.binary_lo, 0), ceiling - 1),
            hi=ceiling,
            semantics=settings.semantics_options(),
            search=settings.search_options(),
        )
    else:
        raise AnalysisError(f"unknown WCRT method {settings.method!r}")

    ticks = result.value
    timebase = model.timebase
    wcrt_ms = None if ticks is None else timebase.to_milliseconds(ticks)
    satisfied: bool | None
    if ticks is None:
        satisfied = None
    elif result.is_lower_bound:
        # a lower bound can only ever *refute* the requirement
        satisfied = False if ticks >= requirement_obj.bound else None
    else:
        satisfied = ticks < requirement_obj.bound

    return RequirementAnalysis(
        requirement=requirement_obj.name,
        scenario=requirement_obj.scenario,
        wcrt_ticks=ticks,
        wcrt_ms=wcrt_ms,
        bound_ticks=requirement_obj.bound,
        is_lower_bound=result.is_lower_bound,
        satisfied=satisfied,
        detail=result,
        generated=generated,
    )


def analyze_requirements(
    model: ArchitectureModel,
    requirements: Iterable[str] | None = None,
    settings: TimedAutomataSettings | None = None,
    per_requirement: Mapping[str, TimedAutomataSettings] | None = None,
) -> dict[str, RequirementAnalysis]:
    """Analyse several requirements of the same model.

    ``per_requirement`` can override the settings of individual requirements
    (the paper uses exhaustive search where feasible and bounded random
    depth-first search for the jitter/burst configurations).
    """
    names = list(requirements) if requirements is not None else list(model.requirements)
    out: dict[str, RequirementAnalysis] = {}
    for name in names:
        chosen = (per_requirement or {}).get(name, settings)
        out[name] = analyze_wcrt(model, name, chosen)
    return out
