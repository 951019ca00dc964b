"""``repro-diffcheck`` -- the differential scenario-fuzzing CLI.

Samples seed-deterministic random architecture models, cross-validates all
four engines on each one and fails loudly when the soundness ordering
``DES <= exact TA <= SymTA/MPA`` breaks::

    repro-diffcheck --smoke --seed 0            # the ~1 min CI window
    repro-diffcheck --count 400 --workers 2     # a campaign on the sweep runner
    repro-diffcheck --count 50 --max-states 50000 --output BENCH_diffcheck.json
    repro-diffcheck --replay diffcheck-repros/counterexample_seed17.json
    repro-diffcheck --count 400 --checkpoint diff.checkpoint.jsonl   # journaled
    repro-diffcheck --count 400 --checkpoint diff.checkpoint.jsonl --resume

Violations are shrunk to minimal models and serialised under ``--repro-dir``
as replayable JSONs; ``--replay`` re-runs the oracle on such a file and
exits 1 while the violation persists (0 once it is fixed).  Campaign
throughput (models/s, TA states/s) is recorded as a ``repro-bench-v1``
trajectory.  Without an installed package the module also runs as
``PYTHONPATH=src python -m repro.diffcheck.cli``.

Exit codes: 0 clean, 1 ordering violations (or a reproducing replay),
2 usage errors, 3 fewer models checked than ``--min-models`` demands.
"""

from __future__ import annotations

import argparse
import sys

from repro.diffcheck.campaign import CampaignConfig, run_campaign
from repro.diffcheck.oracle import SMOKE_ORACLE, OracleConfig, check_model
from repro.diffcheck.sampler import DEFAULT_SAMPLER, SMOKE_SAMPLER
from repro.diffcheck.serialize import load_counterexample, model_from_dict
from repro.perf import write_bench_json
from repro.util.errors import ModelError

__all__ = ["main"]

#: models fuzzed by ``--smoke`` when ``--count`` is not given
SMOKE_COUNT = 30
#: models the smoke window must push through all four engines
SMOKE_MIN_MODELS = 25


def _validate_embedded_witness(payload: dict, model) -> bool | None:
    """Validate (and render) the counterexample's embedded witness schedule.

    Returns ``True``/``False`` for a validated/failed witness, ``None`` when
    the payload carries none (the recorded ``witness_error`` is printed).
    """
    from repro.io.report import format_gantt
    from repro.util.errors import ReproError
    from repro.witness import run_from_dict, validate_witness

    witness = payload.get("witness")
    if witness is None:
        reason = payload.get("witness_error", "payload carries no witness")
        print(f"no witness schedule embedded ({reason})")
        return None
    try:
        run = run_from_dict(witness)
        validation = validate_witness(model, run)
    except ReproError as exc:
        print(f"witness validation failed: {exc}")
        return False
    print(format_gantt(run))
    print(validation.describe())
    return validation.ok


def _replay(path: str, check_witness: bool = False) -> int:
    try:
        payload = load_counterexample(path)
        model = model_from_dict(payload["model"])
    except (OSError, ModelError, KeyError, ValueError) as exc:
        print(f"cannot replay {path}: {exc}", file=sys.stderr)
        return 2
    config = OracleConfig.from_dict(payload.get("oracle", {}))
    seed = int(payload.get("seed", 0))
    print(f"replaying {path} (seed {seed}, recorded violations: "
          f"{payload.get('violations')})")
    verdict = check_model(model, seed=seed, config=config)
    for name, engine_verdict in verdict.verdicts.items():
        print(f"  {name:10s} value={engine_verdict.value} exact={engine_verdict.exact} "
              f"{engine_verdict.detail}")
    witness_ok = _validate_embedded_witness(payload, model)
    if check_witness:
        # --check-witness: the exit code reflects the witness only (a
        # reproduced violation is the *expected* state of a counterexample;
        # a payload without one — written by --no-witnesses, or with the
        # construction failure recorded as witness_error — has nothing to
        # re-validate and passes with the notice printed above)
        return 1 if witness_ok is False else 0
    if verdict.status == "violation":
        print("violation REPRODUCED:")
        for line in verdict.violations:
            print(f"  {line}")
        return 1
    print(f"violation no longer reproduces (status: {verdict.status})")
    return 0


def _campaign_config(args) -> CampaignConfig:
    sampler = SMOKE_SAMPLER if args.smoke else DEFAULT_SAMPLER
    oracle = SMOKE_ORACLE if args.smoke else OracleConfig()
    overrides = {}
    if args.max_states is not None:
        overrides["max_states"] = args.max_states
    if args.max_seconds is not None:
        overrides["max_seconds"] = args.max_seconds
    if args.des_runs is not None:
        overrides["des_runs"] = args.des_runs
    if args.bound_guided:
        overrides["bound_guided"] = True
    if args.reductions is not None:
        # validate the spec here so a typo fails fast (exit 2, not a worker
        # crash mid-campaign)
        from repro.core.reductions import ReductionConfig

        overrides["reductions"] = ReductionConfig.parse(args.reductions).spec()
    if overrides:
        oracle = OracleConfig.from_dict({**oracle.to_dict(), **overrides})
    return CampaignConfig(
        sampler=sampler,
        oracle=oracle,
        shrink=not args.no_shrink,
        repro_dir=args.repro_dir,
        witnesses=not args.no_witnesses,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-diffcheck", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI smoke profile: small models, tight budgets, "
                             f"{SMOKE_COUNT} models, at least {SMOKE_MIN_MODELS} "
                             f"of them through all four engines")
    parser.add_argument("--seed", type=int, default=0,
                        help="first sampler seed of the campaign window (default 0)")
    parser.add_argument("--count", type=int, default=None,
                        help="number of random models to fuzz (default 100, smoke 30)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes on the sweep runner (default 1 = serial)")
    parser.add_argument("--start-method", choices=("spawn", "fork", "forkserver"),
                        default="spawn", help="multiprocessing start method")
    parser.add_argument("--batch", type=int, default=25,
                        help="seeds per sweep cell when --workers > 1 (default 25)")
    parser.add_argument("--max-states", type=int, default=None,
                        help="TA state budget per model (overrides the profile)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="TA wall-clock budget per model in seconds")
    parser.add_argument("--des-runs", type=int, default=None,
                        help="independent simulation runs per model")
    parser.add_argument("--reductions", default=None, metavar="SPEC",
                        help="state-space reductions of the exact engine: 'all' "
                             "(default), 'none' or a comma list of "
                             "lu_extrapolation, symmetry "
                             "(docs/reductions.md); the reduced exploration must "
                             "produce bit-identical WCRTs, so a campaign with "
                             "reductions on cross-checks them against the three "
                             "other engines")
    parser.add_argument("--bound-guided", action="store_true",
                        help="run the exact engine bound-guided (observer ceiling "
                             "clamped to the tightest analytic bound, binary search "
                             "seeded by the DES maximum); validates the portfolio "
                             "pipeline -- the default independent mode remains the "
                             "soundness baseline (docs/portfolio.md)")
    parser.add_argument("--min-models", type=int, default=None,
                        help="fail (exit 3) when fewer models pass through all four "
                             "engines (smoke default: %d)" % SMOKE_MIN_MODELS)
    parser.add_argument("--no-shrink", action="store_true",
                        help="serialise violations without shrinking them first")
    parser.add_argument("--repro-dir", default="diffcheck-repros",
                        help="directory for counterexample JSONs "
                             "(default diffcheck-repros)")
    parser.add_argument("--output", default="BENCH_diffcheck.json",
                        help="trajectory output path (default BENCH_diffcheck.json)")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="re-run the oracle on a counterexample JSON (validating "
                             "and rendering its embedded witness schedule) and exit")
    parser.add_argument("--check-witness", action="store_true",
                        help="with --replay: exit 1 iff the embedded witness schedule "
                             "fails validation (TA step-check + DES replay), regardless "
                             "of whether the violation still reproduces; payloads "
                             "without a witness pass with a notice")
    parser.add_argument("--no-witnesses", action="store_true",
                        help="serialise counterexamples without concrete witness "
                             "schedules (skips the extra traced TA run per violation)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="journal completed seed windows to this "
                             "repro-checkpoint-v1 JSONL file (routes the campaign "
                             "through the supervised sweep runner, also serially)")
    parser.add_argument("--resume", action="store_true",
                        help="skip seed windows already completed in --checkpoint")
    parser.add_argument("--deadline-seconds", type=float, default=None, metavar="S",
                        help="hard wall-clock deadline per seed window; overrunning "
                             "workers are killed and the window is retried/raised")
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args.replay, check_witness=args.check_witness)
    if args.check_witness:
        parser.error("--check-witness requires --replay")
    if args.resume and not args.checkpoint:
        parser.error("--resume needs --checkpoint")

    count = args.count if args.count is not None else (SMOKE_COUNT if args.smoke else 100)
    min_models = args.min_models
    if min_models is None and args.smoke:
        min_models = SMOKE_MIN_MODELS
    if count <= 0:
        parser.error("--count must be positive")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.batch <= 0:
        parser.error("--batch must be positive")
    if args.reductions is not None:
        from repro.core.reductions import ReductionConfig

        try:
            ReductionConfig.parse(args.reductions)
        except ModelError as exc:
            parser.error(str(exc))

    config = _campaign_config(args)
    print(f"diffcheck campaign: seeds {args.seed}..{args.seed + count - 1} "
          f"({'smoke' if args.smoke else 'default'} profile, "
          f"workers={args.workers})")

    if args.workers == 1 and not args.checkpoint and args.deadline_seconds is None:
        campaign = run_campaign(args.seed, count, config)
        points = {"campaign": campaign.point()}
        checked = campaign.models_checked
        exact = campaign.exact_checked
        degraded = campaign.degraded
        violations = campaign.violations
        states = campaign.total_ta_states
        wall = campaign.wall_seconds
        counterexamples = list(campaign.counterexamples)
        policy_mix = campaign.policy_mix
        witnesses_attempted = campaign.witnesses_attempted
        witnesses_validated = campaign.witnesses_validated
        for record in campaign.records:
            if record.status == "violation":
                print(f"  VIOLATION seed={record.seed}: {record.violations}")
            elif record.status == "skipped":
                print(f"  skipped seed={record.seed}: {record.skip_reason}")
            elif record.status == "degraded":
                print(f"  degraded seed={record.seed}: {record.skip_reason}")
    else:
        # --checkpoint / --deadline-seconds route through the supervised
        # sweep runner even serially: the journal and deadline enforcement
        # live there (docs/robustness.md)
        from repro.sweep import SupervisorConfig, diffcheck_cells, run_sweep
        from repro.util.errors import AnalysisError

        cells = diffcheck_cells(args.seed, count, batch=args.batch,
                                config=config.to_dict())
        supervise = SupervisorConfig(deadline_seconds=args.deadline_seconds)
        try:
            sweep = run_sweep(cells, workers=args.workers,
                              start_method=args.start_method,
                              supervise=supervise,
                              checkpoint=args.checkpoint, resume=args.resume)
        except AnalysisError as exc:
            print(f"CAMPAIGN FAILED: {exc}", file=sys.stderr)
            if args.checkpoint:
                print(f"completed windows are journaled in {args.checkpoint}; "
                      f"re-run with --resume to continue", file=sys.stderr)
            return 2
        points = {result.name: result.point() for result in sweep}
        checked = sum(result.models_checked for result in sweep)
        exact = None  # the sweep's cell results do not carry it
        degraded = sum(result.models_degraded for result in sweep)
        violations = sum(result.violations for result in sweep)
        states = sum(result.states_explored for result in sweep)
        wall = sweep.wall_seconds
        counterexamples = [path for result in sweep for path in result.counterexamples]
        witnesses_attempted = sum(result.witnesses_attempted for result in sweep)
        witnesses_validated = sum(result.witnesses_validated for result in sweep)
        policy_mix = {}
        for result in sweep:
            for name, checked_models in result.policy_mix:
                policy_mix[name] = policy_mix.get(name, 0) + checked_models
        policy_mix = dict(sorted(policy_mix.items()))
        points["campaign"] = {
            "models": count,
            "models_checked": checked,
            "models_degraded": degraded,
            "violations": violations,
            "states_explored": states,
            "models_per_second": round(count / wall, 2) if wall > 0 else 0.0,
            "states_per_second": round(states / wall, 1) if wall > 0 else 0.0,
            "wall_seconds": round(wall, 4),
            "workers": sweep.workers,
            "policy_mix": policy_mix,
            "witnesses_attempted": witnesses_attempted,
            "witnesses_validated": witnesses_validated,
        }
        if sweep.resumed:
            points["campaign"]["resumed"] = sweep.resumed
            print(f"  resumed: {sweep.resumed} seed window(s) served from "
                  f"{args.checkpoint}")

    exact_note = f" ({exact} with an exact TA WCRT)" if exact is not None else ""
    degraded_note = f", {degraded} degraded" if degraded else ""
    print(f"  {count} models in {wall:.1f}s "
          f"({count / wall if wall > 0 else 0.0:.2f} models/s, "
          f"{states / wall if wall > 0 else 0.0:.1f} TA states/s): "
          f"{checked} through all four engines{exact_note}{degraded_note}, "
          f"{violations} violations")
    if policy_mix:
        print("  policy mix (checked models per resource policy): "
              + ", ".join(f"{name}={n}" for name, n in policy_mix.items()))

    write_bench_json(args.output, "diffcheck", points, meta={
        "seed_start": args.seed,
        "count": count,
        "profile": "smoke" if args.smoke else "default",
        "workers": args.workers,
        "oracle": config.oracle.to_dict(),
        "sampler": config.sampler.to_dict(),
    })
    print(f"wrote {args.output}")

    if violations:
        print(f"SOUNDNESS VIOLATIONS: {violations} "
              f"(counterexamples: {counterexamples or 'not serialised'})")
        if witnesses_attempted:
            print(f"  witness schedules: {witnesses_validated}/{witnesses_attempted} "
                  "validated (TA step-check + DES replay)")
        return 1
    if min_models is not None and checked < min_models:
        print(f"only {checked} models went through all four engines "
              f"(need {min_models}); loosen the budgets or widen the window",
              file=sys.stderr)
        return 3
    print("diffcheck ok: zero ordering violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
