"""The four-engine soundness oracle.

One random model is pushed through all four analysis techniques of the
paper's comparison, and the results are checked against the partial order
their soundness claims imply:

* the **DES simulation** observes concrete runs, so its maximum is a lower
  bound on the true worst case: ``DES <= TA`` (when TA is exact) and
  ``DES <= SymTA``, ``DES <= MPA`` always;
* the **timed-automata engine** is exact when the exploration completes
  within its budget: ``TA <= SymTA`` and ``TA <= MPA``;
* when the TA exploration is cut short its result is still a sound lower
  bound, so ``TA-lower-bound > min(SymTA, MPA)`` is also a violation;
* ``sup`` and **binary search** (Property 1) are two independent WCRT
  extraction methods of the TA engine that both claim exactness -- on
  models small enough to afford the extra ``log2`` explorations they must
  agree exactly.

The requirement bound sampled with the model only scales the observer
ceiling; the oracle widens the ceiling beyond every analytic upper bound
(via ``ceiling_factor``) so a sound exact WCRT can never be clipped into a
spurious lower bound.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

from repro.arch.analysis import TimedAutomataSettings, analyze_wcrt
from repro.arch.model import ArchitectureModel
from repro.baselines.des.simulator import SimulationSettings, simulate
from repro.baselines.mpa import analysis as mpa_analysis
from repro.baselines.symta import analysis as symta_analysis
from repro.util.errors import AnalysisError, ModelError, WitnessError

__all__ = [
    "OracleConfig",
    "EngineVerdict",
    "ModelVerdict",
    "check_model",
    "witness_model",
]


@dataclass(frozen=True)
class OracleConfig:
    """Budgets and knobs of one oracle run (plain primitives, picklable)."""

    #: state budget of the exact TA exploration
    max_states: int = 20_000
    #: wall-clock budget of the exact TA exploration in seconds
    max_seconds: float = 5.0
    #: independent DES runs per model
    des_runs: int = 3
    #: DES horizon as a multiple of the largest scenario period
    des_horizon_periods: int = 50
    #: cooperative wall-clock budget across the DES runs (None = unlimited);
    #: an exhausted budget truncates the simulation, it never fails it
    des_max_seconds: float | None = None
    #: also run the binary-search WCRT extraction and require agreement with
    #: ``sup`` when the sup exploration stayed below ``binary_state_limit``
    cross_check_binary: bool = True
    binary_state_limit: int = 1_500
    #: run the exact engine *bound-guided* (:mod:`repro.portfolio.guided`):
    #: observer ceiling clamped to ``min(SymTA, MPA) + 2``, binary search
    #: seeded with the DES maximum.  NOT the default -- guiding couples the
    #: engines (the exact run trusts the analytic ceiling), so independent
    #: mode remains the soundness baseline; a guided campaign instead
    #: validates the portfolio itself: a guided lower bound that reaches the
    #: clamped ceiling still surfaces as an ordering violation
    bound_guided: bool = False
    #: state-space reductions of the exact engine as a canonical spec string
    #: ("all", "none", or a comma list); None means all reductions enabled.
    #: Kept as a plain string so the config stays picklable/JSON-portable
    reductions: str | None = None
    #: forked shard workers of the exact engine (0/1 = scalar); verdicts and
    #: statistics are bit-identical either way, so sharding can never mask
    #: (or fake) a soundness-ordering violation
    shard_workers: int = 0

    def __post_init__(self):
        from repro.core.reductions import ReductionConfig

        object.__setattr__(
            self, "reductions", ReductionConfig.parse(self.reductions).spec()
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OracleConfig":
        # ignore unknown keys: replaying a counterexample recorded by a newer
        # build with extra oracle knobs must not die with a TypeError
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


#: the CI smoke budgets: a 30-model window stays well under a minute.  The
#: state budget binds, not the clock: at 4 s per model every model reaches
#: its state budget or finishes (a 2 s cap cut some short on a slow host)
SMOKE_ORACLE = OracleConfig(
    max_states=16_000,
    max_seconds=4.0,
    des_runs=2,
    des_horizon_periods=30,
    binary_state_limit=1_000,
)


@dataclass
class EngineVerdict:
    """One engine's claim about the WCRT of the measured requirement."""

    engine: str
    #: WCRT / latency bound / observed maximum in model ticks (None = none)
    value: int | None
    #: the engine claims this is the exact worst case
    exact: bool = False
    #: the value is a sound upper bound on the worst case
    upper_bound: bool = False
    #: the value is a sound lower bound on the worst case
    lower_bound: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ModelVerdict:
    """Outcome of one oracle run."""

    seed: int
    model_name: str
    #: "checked" (TA exact, full ordering asserted), "checked-inexact"
    #: (TA budget hit, partial ordering asserted), "degraded" (the exact TA
    #: engine failed; the analytic engines and DES still ran and the partial
    #: ordering DES <= SymTA/MPA was asserted), "skipped" (an analytic
    #: baseline refused the model) or "violation"
    status: str
    verdicts: dict[str, EngineVerdict] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    skip_reason: str | None = None
    #: scheduling/arbitration policy names of the model's resources (sorted,
    #: deduplicated) -- the campaign aggregates these into its policy mix
    policies: tuple[str, ...] = ()
    #: symbolic states explored by the TA engine (sup + binary cross-check)
    ta_states: int = 0
    #: non-zero reduction counters of the TA sup run (states_subsumed_lu,
    #: keys_folded); empty when no reduction fired
    reduction_counters: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def checked(self) -> bool:
        """True when the model went through all four engines."""
        return self.status in ("checked", "checked-inexact", "violation")

    def verdict_dicts(self) -> dict[str, dict]:
        return {name: verdict.to_dict() for name, verdict in self.verdicts.items()}


def _des_seed(seed: int) -> int:
    """Decorrelate the simulation seed from the sampler seed."""
    return seed * 7919 + 11


def _widened_ceiling_factor(symta_value: int, mpa_value: int, bound: int) -> float:
    """Observer ceiling beyond both analytic upper bounds (see check_model).

    The single definition shared by the oracle run and the witness build:
    the witness must re-analyze the model under exactly the ceiling of the
    verdict it is witnessing.
    """
    return max(2.0, (max(symta_value, mpa_value) + 2) / bound + 0.1)


def _ceiling_factor(model: ArchitectureModel, requirement) -> float:
    """The widened observer ceiling, with the analytic bounds recomputed."""
    symta_value = symta_analysis.analyze(model).latencies[requirement.name]
    mpa_value = mpa_analysis.analyze(model).latencies[requirement.name]
    return _widened_ceiling_factor(symta_value, mpa_value, requirement.bound)


def witness_model(
    model: ArchitectureModel,
    config: OracleConfig | None = None,
    strategy: str = "earliest",
):
    """Build and validate a concrete witness for the measured requirement.

    Re-runs the exact TA engine with trace recording under the oracle's
    budgets, concretises the WCRT trace into a timed schedule and validates
    it with both the TA step-checker and the DES replay.  Returns
    ``(run, validation, error)``: ``run`` and ``validation`` are ``None``
    when no witness could be built, with ``error`` naming the reason (an
    analytic baseline refused the model, the exploration saw no response, or
    the reported value is a non-attained ceiling bound).
    """
    # imported lazily: the oracle must stay importable without dragging the
    # witness subsystem into every fuzzing worker that never writes repros
    from repro.witness import build_witness, validate_witness

    config = config or OracleConfig()
    requirement = next(iter(model.requirements.values()))
    # the witness must re-analyze the model under exactly the ceiling of the
    # verdict it is witnessing: widened in independent mode, clamped to the
    # tightest analytic bound in guided mode
    guided_clamps: dict = {}
    try:
        if config.bound_guided:
            from repro.portfolio.guided import guided_ceiling

            symta_value = symta_analysis.analyze(model).latencies[requirement.name]
            mpa_value = mpa_analysis.analyze(model).latencies[requirement.name]
            ceiling_factor = 2.0
            guided_clamps = {
                "ceiling_ticks": guided_ceiling(min(symta_value, mpa_value), margin=2),
            }
        else:
            ceiling_factor = _ceiling_factor(model, requirement)
    except (AnalysisError, ModelError) as exc:
        return None, None, f"analytic ceiling unavailable: {exc}"
    settings = TimedAutomataSettings(
        search_order="bfs",
        max_states=config.max_states,
        max_seconds=config.max_seconds,
        ceiling_factor=ceiling_factor,
        seed=1,
        record_traces=True,
        reductions=config.reductions,
        shard_workers=config.shard_workers,
        **guided_clamps,
    )
    try:
        analysis = analyze_wcrt(model, requirement.name, settings)
        run = build_witness(model, analysis, strategy)
    except (AnalysisError, ModelError, WitnessError) as exc:
        return None, None, f"witness construction failed: {exc}"
    validation = validate_witness(model, run, analysis.generated)
    return run, validation, None


def check_model(
    model: ArchitectureModel,
    seed: int = 0,
    config: OracleConfig | None = None,
) -> ModelVerdict:
    """Run *model* through all four engines and assert the soundness order."""
    config = config or OracleConfig()
    started = time.perf_counter()
    verdict = ModelVerdict(
        seed=seed,
        model_name=model.name,
        status="skipped",
        policies=tuple(sorted({
            resource.policy.name
            for resource in (*model.processors.values(), *model.buses.values())
        })),
    )
    requirement = next(iter(model.requirements.values()))

    # ---- analytic upper bounds ------------------------------------------------
    try:
        symta_result = symta_analysis.analyze(model)
        symta_value = symta_result.latencies[requirement.name]
    except (AnalysisError, ModelError) as exc:
        verdict.skip_reason = f"symta: {exc}"
        verdict.wall_seconds = time.perf_counter() - started
        return verdict
    try:
        mpa_result = mpa_analysis.analyze(model)
        mpa_value = mpa_result.latencies[requirement.name]
    except (AnalysisError, ModelError) as exc:
        verdict.skip_reason = f"mpa: {exc}"
        verdict.wall_seconds = time.perf_counter() - started
        return verdict
    verdict.verdicts["symta"] = EngineVerdict("symta", symta_value, upper_bound=True)
    verdict.verdicts["mpa"] = EngineVerdict("mpa", mpa_value, upper_bound=True)

    violations: list[str] = []
    des_value: int | None = None
    des_ran = False

    def run_des() -> None:
        # unlike the analytic engines (which may legitimately refuse an
        # overloaded model), simulating a valid model must never fail -- a
        # DES crash is itself a finding, reported as a shrinkable violation
        nonlocal des_value, des_ran
        des_ran = True
        horizon = config.des_horizon_periods * max(
            scenario.event_model.period for scenario in model.scenarios.values()
        )
        try:
            des_result = simulate(
                model,
                SimulationSettings(horizon=horizon, runs=config.des_runs,
                                   seed=_des_seed(seed),
                                   max_seconds=config.des_max_seconds),
            )
        except (AnalysisError, ModelError) as exc:
            violations.append(f"des crashed: {exc}")
            verdict.verdicts["des"] = EngineVerdict("des", None, detail=f"crashed: {exc}")
        else:
            des_value = des_result.observations[requirement.name].maximum
            verdict.verdicts["des"] = EngineVerdict(
                "des", des_value, lower_bound=des_value is not None
            )

    # ---- exact timed automata --------------------------------------------------
    # Independent mode widens the observer ceiling beyond both upper bounds:
    # a sound exact WCRT then always fits below the ceiling, so hitting it is
    # itself a finding.  Guided mode instead *trusts* the bounds for speed --
    # ceiling clamped just above the tightest one, DES run first so its
    # maximum seeds the binary search -- and a guided value that reaches the
    # clamped ceiling shows up below as "lower bound > tightest analytic".
    ceiling_factor = _widened_ceiling_factor(symta_value, mpa_value, requirement.bound)
    guided_clamps: dict = {}
    if config.bound_guided:
        from repro.portfolio.guided import guided_ceiling

        run_des()
        guided_clamps = {
            "ceiling_ticks": guided_ceiling(min(symta_value, mpa_value), margin=2),
            "binary_lo": des_value or 0,
        }
    settings = TimedAutomataSettings(
        search_order="bfs",
        max_states=config.max_states,
        max_seconds=config.max_seconds,
        ceiling_factor=ceiling_factor,
        seed=1,
        reductions=config.reductions,
        shard_workers=config.shard_workers,
        **guided_clamps,
    )
    ta_value: int | None = None
    ta_exact = False
    ta_failure: str | None = None
    try:
        ta_result = analyze_wcrt(model, requirement.name, settings)
    except (AnalysisError, ModelError) as exc:
        # degraded verdict: the exact engine is the one that explores an
        # unbounded state space, so it is the one that can die -- keep the
        # three robust engines and still assert DES <= SymTA/MPA below
        ta_failure = str(exc)
        verdict.verdicts["ta"] = EngineVerdict("ta", None, detail=f"failed: {exc}")
    else:
        ta_value = ta_result.wcrt_ticks
        ta_exact = ta_value is not None and not ta_result.is_lower_bound
        verdict.ta_states = ta_result.detail.statistics.states_explored
        verdict.reduction_counters = ta_result.detail.statistics.reduction_counters()
        verdict.verdicts["ta"] = EngineVerdict(
            "ta",
            ta_value,
            exact=ta_exact,
            upper_bound=ta_exact,
            lower_bound=ta_value is not None,
            detail=ta_result.detail.statistics.termination,
        )

    # ---- sup vs binary search (exact-vs-exact agreement) ---------------------
    binary_value: int | None = None
    if (
        config.cross_check_binary
        and ta_exact
        and verdict.ta_states <= config.binary_state_limit
    ):
        binary_settings = TimedAutomataSettings(
            search_order="bfs",
            max_states=config.max_states,
            max_seconds=config.max_seconds,
            ceiling_factor=ceiling_factor,
            seed=1,
            method="binary-search",
            reductions=config.reductions,
            shard_workers=config.shard_workers,
            **guided_clamps,
        )
        try:
            binary_result = analyze_wcrt(model, requirement.name, binary_settings)
        except (AnalysisError, ModelError) as exc:
            verdict.skip_reason = f"ta-binary: {exc}"
            verdict.wall_seconds = time.perf_counter() - started
            return verdict
        binary_value = binary_result.wcrt_ticks
        verdict.ta_states += binary_result.detail.statistics.states_explored
        verdict.verdicts["ta-binary"] = EngineVerdict(
            "ta-binary",
            binary_value,
            exact=not binary_result.is_lower_bound,
            detail=binary_result.detail.statistics.termination,
        )

    # ---- discrete-event simulation ---------------------------------------------
    # (already ran up front in guided mode, where it seeds the binary search)
    if not des_ran:
        run_des()

    # ---- the soundness ordering ----------------------------------------------------
    if des_value is not None:
        if des_value > symta_value:
            violations.append(f"des {des_value} > symta {symta_value}")
        if des_value > mpa_value:
            violations.append(f"des {des_value} > mpa {mpa_value}")
        if ta_exact and des_value > ta_value:
            violations.append(f"des {des_value} > exact ta {ta_value}")
    if ta_value is not None:
        if ta_exact:
            if ta_value > symta_value:
                violations.append(f"exact ta {ta_value} > symta {symta_value}")
            if ta_value > mpa_value:
                violations.append(f"exact ta {ta_value} > mpa {mpa_value}")
        elif ta_value > min(symta_value, mpa_value):
            violations.append(
                f"ta lower bound {ta_value} > tightest analytic bound "
                f"{min(symta_value, mpa_value)}"
            )
    if binary_value is not None and binary_value != ta_value:
        violations.append(f"sup {ta_value} != binary-search {binary_value}")

    verdict.violations = violations
    if violations:
        verdict.status = "violation"
    elif ta_failure is not None:
        verdict.status = "degraded"
        verdict.skip_reason = f"ta: {ta_failure}"
    else:
        verdict.status = "checked" if ta_exact else "checked-inexact"
    verdict.wall_seconds = time.perf_counter() - started
    return verdict
