#!/usr/bin/env python
"""Core zone-engine scaling benchmark on the radio-navigation case study.

Runs the full (exhaustive) zone-graph exploration behind the paper's
``AddressLookup + HandleTMC`` WCRT analysis under three event-model
configurations of increasing state-space size (``po`` ~2.3e2, ``pno``
~9.3e3, ``sp`` ~3.0e4 symbolic states) and reports exploration throughput
in states/second.

Correctness is cross-checked on every run: the WCRT verdict and the exact
state/transition counts must match the values recorded with the seed engine
(``benchmarks/baselines/bench_core_seed.json``) -- an optimisation that
changes what is explored is a bug, not a speedup.

After the serial cells, the same grid is fanned across worker processes via
:mod:`repro.sweep` (``--workers N``, default 2; ``--workers 1`` skips the
sweep stage) and recorded as a ``sweep/workersN`` trajectory point -- every
sweep cell is cross-checked against the same seed anchors, so a parallel
run that explores a different state space fails exactly like a serial one.

The largest cell additionally re-runs on the sharded multi-core engine
(``--shard-workers 2``; ``shard/workersN`` trajectory points).  Sharding
is observationally exact, so every anchor is compared *strictly* against
the serial twin of the same run -- any deviation is exit 2, like a seed
anchor mismatch.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_scaling.py            # run + write BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --check    # also fail (exit 1) on >25% regression
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --update-baseline
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --quick    # po + pno only
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --workers 4

Exit codes: 0 ok, 1 throughput regression (``--check``), 2 correctness
mismatch or missing/unusable baseline (reported before the cells run).
The committed baseline records the *seed* engine, so the speedup
column doubles as the before/after comparison of the vectorised engine; see
``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_HERE, "..", "src")
_ROOT = os.path.join(_HERE, "..")  # for perfbench's calibration kernel
for _path in (_SRC, _ROOT):
    if os.path.abspath(_path) not in [os.path.abspath(p) for p in sys.path]:
        sys.path.insert(0, os.path.abspath(_path))

from perfbench.calibration import REFERENCE_S, kernel_seconds  # noqa: E402
from repro.arch import TimedAutomataSettings, analyze_wcrt  # noqa: E402
from repro.casestudy import build_radio_navigation, configure  # noqa: E402
from repro.core import kernels  # noqa: E402
from repro.perf import (  # noqa: E402
    Timer,
    check_regression,
    load_baseline_json,
    verify_anchors,
    write_bench_json,
)

#: (combination, configuration) cells; exhaustive and deterministic (bfs)
CELLS: tuple[tuple[str, str], ...] = (("AL+TMC", "po"), ("AL+TMC", "pno"), ("AL+TMC", "sp"))

#: resource-policy variant cells of the full (non ``--quick``) run:
#: (combination, configuration, policy, max_states, search order).  The
#: round-robin variant explores exhaustively; the TDMA-bus variant's slot
#: machinery blows up the zone graph, so it runs as a budgeted random-dfs
#: lower bound exactly like the heavy Table 1 cells.  Policy cells are
#: recorded as their own trajectory points and stay out of the classic
#: aggregate, so historical aggregate comparisons keep comparing the same
#: three cells.
POLICY_CELLS: tuple[tuple[str, str, str, "int | None", str], ...] = (
    ("AL+TMC", "pno", "rr", None, "bfs"),
    ("AL+TMC", "po", "tdma-bus", 4_000, "rdfs"),
)

DEFAULT_BASELINE = os.path.join(_HERE, "baselines", "bench_core_seed.json")
DEFAULT_OUTPUT = os.path.join(_HERE, "..", "BENCH_core.json")

#: the requirement measured in every cell (Table 1's HandleTMC rows)
REQUIREMENT = "TMC"


def _anchors(result) -> dict:
    """What every rep of a cell must reproduce exactly."""
    stats = result.detail.statistics
    return {
        "wcrt_ticks": result.wcrt_ticks,
        "is_lower_bound": result.is_lower_bound,
        "states_explored": stats.states_explored,
        "states_stored": stats.states_stored,
        "transitions": stats.transitions,
    }


def repeat_cell(configured, requirement: str, settings, reps: int) -> tuple[dict, object]:
    """Analyse one cell *reps* times; returns its point and the first result.

    ``states_per_second`` and ``wall_seconds`` are the medians across the
    reps, with their extremes as ``*_min`` and ``*_max``; ``explore_seconds``
    is the median exploration time.  Before each rep the machine speed is
    sampled with the benchmark's calibration kernel
    (``perfbench/calibration.py``): ``calibration_s`` is the median sample,
    and ``states_per_second_ref`` (with its ``*_min``/``*_max``) the
    median of each rep's rate in states per *reference* second, its raw rate
    times ``sample / REFERENCE_S`` -- a host running at half speed halves
    both the rate and the sample.  The ``--check`` gate reads the raw
    median.  Every rep must reproduce the anchors of the first exactly:
    anchors that differ are listed under ``rep_drift``, which fails the run
    like an anchor mismatch.
    """
    results, walls, samples = [], [], []
    for _ in range(max(1, reps)):
        samples.append(kernel_seconds())
        with Timer() as timer:
            results.append(analyze_wcrt(configured, requirement, settings))
        walls.append(timer.seconds)
    point = _anchors(results[0])
    point["reps"] = len(results)
    drift = sorted({
        name for result in results[1:]
        for name, value in _anchors(result).items() if value != point[name]
    })
    if drift:
        point["rep_drift"] = drift
    rates = [result.detail.statistics.states_per_second for result in results]
    calibrated = [rate * sample / REFERENCE_S for rate, sample in zip(rates, samples)]
    for name, values, digits in (("states_per_second", rates, 1),
                                 ("states_per_second_ref", calibrated, 1),
                                 ("wall_seconds", walls, 4)):
        point[name] = round(statistics.median(values), digits)
        point[f"{name}_min"] = round(min(values), digits)
        point[f"{name}_max"] = round(max(values), digits)
    point["calibration_s"] = round(statistics.median(samples), 5)
    point["explore_seconds"] = round(statistics.median(
        result.detail.statistics.elapsed_seconds for result in results), 4)
    return point, results[0]


def run_cell(
    model,
    combination: str,
    configuration: str,
    reps: int,
    policy: str = "fp",
    max_states: "int | None" = None,
    search_order: str = "bfs",
    method: str = "sup",
) -> dict:
    """Run one cell *reps* times (:func:`repeat_cell`)."""
    configured = configure(model, combination, configuration, policy=policy)
    # reductions off: these cells are the unreduced baseline whose anchors
    # stay comparable across the trajectory history; the ``#reduced`` twins
    # below measure the reductions against them (docs/reductions.md)
    settings = TimedAutomataSettings(
        search_order=search_order, max_states=max_states, seed=1, method=method,
        reductions="none",
    )
    return repeat_cell(configured, REQUIREMENT, settings, reps)[0]


def verify_cell(
    name: str, point: dict, baseline_points: dict, exhaustive: bool = True
) -> list[str]:
    """Check the machine-independent correctness anchors of one cell."""
    problems = verify_anchors(name, point, baseline_points.get(name, {}))
    if exhaustive and point["is_lower_bound"]:
        problems.append(f"{name}: exhaustive run reported a lower bound")
    return problems


def run_shard_cell(
    model,
    combination: str,
    configuration: str,
    reps: int,
    shard_workers: int,
) -> dict:
    """Run one cell on the sharded multi-core engine (docs/performance.md).

    Same model, seed and search order as :func:`run_cell`; only the engine
    differs.  Sharding is observationally exact: every anchor the scalar
    twin records must come out bit-identical, only the wall clock may move.
    """
    configured = configure(model, combination, configuration)
    settings = TimedAutomataSettings(
        search_order="bfs", seed=1, reductions="none",
        shard_workers=shard_workers,
    )
    point, result = repeat_cell(configured, REQUIREMENT, settings, reps)
    stats = result.detail.statistics
    point.update(shard_workers=stats.shard_workers, shard_handoffs=stats.shard_handoffs)
    return point


#: the anchors a sharded run must reproduce bit-identically (strict
#: equality -- sharding that changes *anything* the scalar engine computes
#: is a soundness bug, exit 2, not noise)
SHARD_ANCHORS = ("wcrt_ticks", "is_lower_bound", "states_explored",
                 "states_stored", "transitions")


def verify_shard_cell(name: str, sharded: dict, scalar: dict) -> list[str]:
    """A sharded run must change wall clock only, never what is computed."""
    problems: list[str] = []
    for anchor in SHARD_ANCHORS:
        if sharded[anchor] != scalar[anchor]:
            problems.append(
                f"{name}: sharded {anchor} {sharded[anchor]!r} != "
                f"scalar {scalar[anchor]!r} (sharding changed the result)"
            )
    return problems


def run_guided_cell(
    model,
    combination: str,
    configuration: str,
    reps: int,
    method: str = "sup",
) -> dict:
    """Run one cell bound-guided (``docs/portfolio.md``).

    SymTA/MPA upper bounds clamp the observer's extrapolation ceiling; in
    binary mode a budgeted DES lower bound additionally seeds the search
    interval.  The WCRT must come out bit-identical to the unguided cell --
    only the explored state count may shrink.
    """
    from repro.portfolio.bounds import analytic_upper_bounds, des_lower_bound, tightest
    from repro.portfolio.guided import guided_settings

    configured = configure(model, combination, configuration)
    analytic, _notes = analytic_upper_bounds(configured, REQUIREMENT)
    upper = tightest(analytic, "upper")
    lower = None
    if method in ("binary", "binary-search"):
        lower, _des_notes = des_lower_bound(configured, REQUIREMENT, runs=2)
    # reductions off here too: the guided points isolate what the bound
    # clamp alone saves, the ``#reduced`` points what the reductions save
    base = TimedAutomataSettings(search_order="bfs", seed=1, method=method,
                                 reductions="none")
    settings = guided_settings(base, upper, lower)
    point, _result = repeat_cell(configured, REQUIREMENT, settings, reps)
    point.update(
        guided=True,
        analytic_upper_ticks=None if upper is None else upper.value_ticks,
        des_lower_ticks=None if lower is None else lower.value_ticks,
    )
    return point


def verify_guided_cell(name: str, guided: dict, unguided: dict) -> list[str]:
    """A guided run must change how much is explored, never what is computed."""
    problems: list[str] = []
    if guided["wcrt_ticks"] != unguided["wcrt_ticks"]:
        problems.append(
            f"{name}: guided wcrt {guided['wcrt_ticks']} != "
            f"unguided {unguided['wcrt_ticks']} (bound clamping changed the verdict)"
        )
    if guided["is_lower_bound"]:
        problems.append(f"{name}: guided run reported a lower bound")
    if guided["states_explored"] > unguided["states_explored"]:
        problems.append(
            f"{name}: guided run explored {guided['states_explored']} states "
            f"> unguided {unguided['states_explored']}"
        )
    return problems


def run_reduced_cell(
    configured, requirement: str, reps: int, reductions: str = "all"
) -> dict:
    """Run one cell with the given state-space reductions (docs/reductions.md).

    LU extrapolation and symmetry are both exactness-preserving: the WCRT
    must come out bit-identical to the unreduced twin, only the explored
    state count may shrink.  The point
    records which reductions actually fired through the engine's counters
    (``reductions="none"`` records the unreduced twin itself).
    """
    settings = TimedAutomataSettings(search_order="bfs", seed=1,
                                     reductions=reductions)
    point, result = repeat_cell(configured, requirement, settings, reps)
    point.update(reductions=reductions, **result.detail.statistics.reduction_counters())
    return point


def verify_reduced_cell(
    name: str, reduced: dict, unreduced: dict, min_reduction: float = 0.0
) -> list[str]:
    """A reduced run must change how much is explored, never what is computed.

    The twin comparison runs in-process on the same machine and model build,
    so a WCRT drift is a soundness bug in a reduction, not noise.
    ``min_reduction`` additionally requires the explored state count to
    shrink by at least that fraction (the replicated-load cell pins the
    symmetry fold this way).
    """
    problems: list[str] = []
    if reduced["wcrt_ticks"] != unreduced["wcrt_ticks"]:
        problems.append(
            f"{name}: reduced wcrt {reduced['wcrt_ticks']} != "
            f"unreduced {unreduced['wcrt_ticks']} (a reduction changed the verdict)"
        )
    if reduced["is_lower_bound"] != unreduced["is_lower_bound"]:
        problems.append(f"{name}: reduced run changed the lower-bound status")
    if reduced["states_explored"] > unreduced["states_explored"]:
        problems.append(
            f"{name}: reduced run explored {reduced['states_explored']} states "
            f"> unreduced {unreduced['states_explored']}"
        )
    if min_reduction > 0.0:
        ceiling = (1.0 - min_reduction) * unreduced["states_explored"]
        if reduced["states_explored"] > ceiling:
            problems.append(
                f"{name}: reduced run explored {reduced['states_explored']} "
                f"states, needs <= {ceiling:.0f} "
                f"(>= {min_reduction:.0%} below unreduced "
                f"{unreduced['states_explored']})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) on >25%% throughput regression vs the baseline")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional throughput drop for --check (default 0.25)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline trajectory JSON (default: committed seed baseline)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the BENCH_core.json trajectory")
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions per cell; a point records the median "
                             "throughput and wall time with their min and max "
                             "(default 2)")
    parser.add_argument("--quick", action="store_true",
                        help="run only the two smaller cells (smoke / PR-gate mode)")
    parser.add_argument("--check-min-states", type=int, default=1_000,
                        help="--check ignores the throughput of cells exploring fewer "
                             "states than this (sub-millisecond cells are timer noise; "
                             "their correctness anchors are still enforced; default 1000)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes of the parallel sweep stage "
                             "(default 2; 1 skips the sweep)")
    parser.add_argument("--shard-workers", default="2",
                        help="comma list of shard-worker counts for the "
                             "sharded-engine stage on the largest cell "
                             "(default '2'; '0' or '' skips the stage)")
    parser.add_argument("--start-method", choices=("spawn", "fork", "forkserver"),
                        default="spawn", help="sweep start method (default spawn)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="re-record the baseline file from this run")
    args = parser.parse_args(argv)
    if args.quick and args.update_baseline:
        parser.error("--update-baseline needs a full run; drop --quick")

    cells = CELLS[:2] if args.quick else CELLS
    reps = args.reps

    # resolve the baseline *before* the (multi-minute) cells run: a missing
    # or malformed baseline under --check must fail fast and clearly
    baseline = None
    if os.path.exists(args.baseline):
        try:
            baseline = load_baseline_json(args.baseline)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    elif args.check:
        print(
            f"--check: baseline trajectory {args.baseline} not found; record one "
            "with --update-baseline on a reference machine (or pass --baseline)",
            file=sys.stderr,
        )
        return 2
    baseline_points = baseline["points"] if baseline else {}

    model = build_radio_navigation()
    points: dict[str, dict] = {}
    problems: list[str] = []
    total_states = 0
    total_seconds = 0.0

    # warm the process (numpy ufunc dispatch, kernel scratch, compiled-model
    # caches) so the first, smallest cell is not measured cold
    run_cell(model, *cells[0], reps=1)

    print(
        f"core scaling benchmark ({len(cells)} cells, reps={reps}, "
        f"zone kernels: {kernels.BACKEND})"
    )
    for combination, configuration in cells:
        name = f"{combination}/{configuration}"
        point = run_cell(model, combination, configuration, reps)
        points[name] = point
        problems.extend(verify_cell(name, point, baseline_points))
        total_states += point["states_explored"]
        total_seconds += point["states_explored"] / point["states_per_second"]
        base = baseline_points.get(name, {}).get("states_per_second")
        speedup = f"  ({point['states_per_second'] / base:.2f}x vs baseline)" if base else ""
        print(
            f"  {name:12s} {point['states_explored']:7d} states  "
            f"{point['states_per_second']:9.1f} states/s{speedup}"
        )

    if not args.quick:
        # resource-policy variants: separate points, outside the aggregate
        for combination, configuration, policy, max_states, search_order in POLICY_CELLS:
            name = f"{combination}/{configuration}#{policy}"
            point = run_cell(
                model, combination, configuration, reps,
                policy=policy, max_states=max_states, search_order=search_order,
            )
            points[name] = point
            problems.extend(
                verify_cell(name, point, baseline_points, exhaustive=max_states is None)
            )
            bound = ">" if point["is_lower_bound"] else "="
            print(
                f"  {name:18s} {point['states_explored']:7d} states  "
                f"{point['states_per_second']:9.1f} states/s  "
                f"(wcrt {bound} {point['wcrt_ticks']})"
            )

    # bound-guided variants (docs/portfolio.md): analytic bounds clamp the
    # observer ceiling, so the same exact WCRT comes out of a smaller zone
    # graph.  Guided points ride next to their unguided anchors with a
    # ``#guided`` suffix and stay out of the classic aggregate; any WCRT
    # drift or state-count growth is a correctness failure (exit 2).
    for combination, configuration in cells:
        name = f"{combination}/{configuration}#guided"
        unguided = points[f"{combination}/{configuration}"]
        point = run_guided_cell(model, combination, configuration, reps)
        points[name] = point
        problems.extend(verify_guided_cell(name, point, unguided))
        saved = unguided["states_explored"] - point["states_explored"]
        print(
            f"  {name:18s} {point['states_explored']:7d} states  "
            f"{point['states_per_second']:9.1f} states/s  "
            f"(wcrt = {point['wcrt_ticks']}, {saved} states saved)"
        )

    if not args.quick:
        # the binary-search pair: here the DES lower bound also seeds the
        # search interval, where the guided reduction is largest
        pair_combination, pair_configuration = "AL+TMC", "pno"
        unguided_binary = run_cell(
            model, pair_combination, pair_configuration, reps, method="binary"
        )
        points[f"{pair_combination}/{pair_configuration}#binary"] = unguided_binary
        guided_binary = run_guided_cell(
            model, pair_combination, pair_configuration, reps, method="binary"
        )
        bname = f"{pair_combination}/{pair_configuration}#binary-guided"
        points[bname] = guided_binary
        problems.extend(verify_guided_cell(bname, guided_binary, unguided_binary))
        sup_anchor = points[f"{pair_combination}/{pair_configuration}"]["wcrt_ticks"]
        if guided_binary["wcrt_ticks"] != sup_anchor:
            problems.append(
                f"{bname}: binary-search wcrt {guided_binary['wcrt_ticks']} != "
                f"sup wcrt {sup_anchor}"
            )
        saved = unguided_binary["states_explored"] - guided_binary["states_explored"]
        print(
            f"  {bname:18s} {guided_binary['states_explored']:7d} states  "
            f"{guided_binary['states_per_second']:9.1f} states/s  "
            f"(wcrt = {guided_binary['wcrt_ticks']}, {saved} states saved vs "
            f"{unguided_binary['states_explored']} unguided)"
        )

    # state-space reduction twins (docs/reductions.md): LU extrapolation
    # and symmetry reduction both on, each point verified
    # in-run against its unreduced anchor above -- bit-identical WCRT,
    # never more states.  The replicated-load cell exercises the symmetry
    # fold the case study cannot (its scenarios share every resource) and
    # pins a >= 30% explored-state reduction.
    for combination, configuration in cells:
        name = f"{combination}/{configuration}#reduced"
        unreduced = points[f"{combination}/{configuration}"]
        point = run_reduced_cell(
            configure(model, combination, configuration), REQUIREMENT, reps
        )
        points[name] = point
        problems.extend(verify_reduced_cell(name, point, unreduced))
        saved = unreduced["states_explored"] - point["states_explored"]
        print(
            f"  {name:18s} {point['states_explored']:7d} states  "
            f"{point['states_per_second']:9.1f} states/s  "
            f"(wcrt = {point['wcrt_ticks']}, {saved} states saved)"
        )

    from repro.casestudy import REPLICATED_REQUIREMENT, build_replicated_load

    replicated = build_replicated_load()
    replicated_unreduced = run_reduced_cell(
        replicated, REPLICATED_REQUIREMENT, reps, reductions="none"
    )
    points["replicated/periodic"] = replicated_unreduced
    replicated_reduced = run_reduced_cell(replicated, REPLICATED_REQUIREMENT, reps)
    points["replicated/periodic#reduced"] = replicated_reduced
    problems.extend(verify_reduced_cell(
        "replicated/periodic#reduced", replicated_reduced, replicated_unreduced,
        min_reduction=0.30,
    ))
    saved = (replicated_unreduced["states_explored"]
             - replicated_reduced["states_explored"])
    fraction = (saved / replicated_unreduced["states_explored"]
                if replicated_unreduced["states_explored"] else 0.0)
    print(
        f"  {'replicated/periodic#reduced':27s} "
        f"{replicated_reduced['states_explored']:7d} states  "
        f"{replicated_reduced['states_per_second']:9.1f} states/s  "
        f"(wcrt = {replicated_reduced['wcrt_ticks']}, {saved} states saved, "
        f"{fraction:.0%} below unreduced {replicated_unreduced['states_explored']})"
    )

    # concrete witness schedules for the Table 1 WCRT anchors: every
    # strategy must concretise the exact AL+TMC/po trace into a schedule
    # that passes both the TA step-check and the DES replay (the nightly
    # trajectory records the validated count; a miss is a correctness
    # failure, exit 2, like any anchor mismatch)
    from repro.casestudy import anchor_witness

    witness_validated = 0
    witness_attempted = 0
    witness_response = None
    for strategy in ("earliest", "latest", "midpoint"):
        witness_attempted += 1
        try:
            anchored = anchor_witness("AL+TMC", "po", REQUIREMENT, strategy)
        except Exception as exc:  # a broken witness is a finding, not a crash
            problems.append(f"witness/{strategy}: construction failed: {exc}")
            continue
        witness_response = anchored.run.response_ticks
        if anchored.ok:
            witness_validated += 1
        else:
            problems.append(f"witness/{strategy}: {anchored.validation.describe()}")
    points["witness/validated"] = {
        "attempted": witness_attempted,
        "validated": witness_validated,
        "cell": f"AL+TMC/po/{REQUIREMENT}",
        "response_ticks": witness_response,
    }
    print(
        f"  {'witness':12s} {witness_validated}/{witness_attempted} strategies "
        f"validated (AL+TMC/po/{REQUIREMENT}, response {witness_response} ticks)"
    )

    # sharded-engine twins (docs/performance.md): the largest cell re-run on
    # the forked multi-core engine, verified in-run against its serial
    # anchor above -- strict equality on every anchor, exit 2 on deviation.
    # Like the sweep point, shard points are wall-clock throughput and stay
    # out of the committed baseline.
    shard_counts = [int(w) for w in str(args.shard_workers).split(",")
                    if w.strip() and int(w) > 0]
    if shard_counts and not args.quick:
        if not hasattr(os, "fork"):
            print("  shard stage skipped: os.fork unavailable")
        else:
            shard_combination, shard_configuration = cells[-1]
            scalar_name = f"{shard_combination}/{shard_configuration}"
            scalar_point = points[scalar_name]
            for workers in shard_counts:
                name = f"shard/workers{workers}"
                point = run_shard_cell(
                    model, shard_combination, shard_configuration, reps, workers
                )
                point["speedup_vs_scalar"] = round(
                    point["states_per_second"]
                    / scalar_point["states_per_second"], 2)
                points[name] = point
                problems.extend(verify_shard_cell(name, point, scalar_point))
                print(
                    f"  {name:14s} {point['states_explored']:7d} states  "
                    f"{point['states_per_second']:9.1f} states/s  "
                    f"({point['speedup_vs_scalar']:.2f}x vs {scalar_name}, "
                    f"{point['shard_handoffs']} handoffs)"
                )

    aggregate = round(total_states / total_seconds, 1) if total_seconds else 0.0
    # a partial (--quick) run must not be compared against the full-run
    # aggregate of the baseline, so it records under a different point name
    aggregate_name = "aggregate_quick" if args.quick else "aggregate"
    points[aggregate_name] = {"states_per_second": aggregate, "states_explored": total_states}
    base_aggregate = baseline_points.get(aggregate_name, {}).get("states_per_second")
    if base_aggregate:
        print(f"  {aggregate_name:12s} {total_states:7d} states  {aggregate:9.1f} states/s"
              f"  ({aggregate / base_aggregate:.2f}x vs baseline)")
    else:
        print(f"  {aggregate_name:12s} {total_states:7d} states  {aggregate:9.1f} states/s")

    if args.workers > 1:
        # parallel sweep stage: the same cells fanned across processes, each
        # result cross-checked against the identical seed anchors
        from repro.sweep import core_scaling_cells, run_sweep, verify_cells

        wanted = {f"{c}/{k}" for c, k in cells}
        sweep_cells = [cell for cell in core_scaling_cells() if cell.name in wanted]
        sweep = run_sweep(sweep_cells, workers=args.workers,
                          start_method=args.start_method)
        problems.extend(verify_cells(sweep.results, baseline_points))
        sweep_point = sweep.points()["sweep"]
        points[f"sweep/workers{sweep.workers}"] = sweep_point
        print(
            f"  {'sweep':12s} {sweep.total_states:7d} states  "
            f"{sweep_point['sweep_states_per_second']:9.1f} states/s wall  "
            f"({sweep.workers} workers, {sweep.start_method})"
        )

    for name, point in points.items():
        if point.get("rep_drift"):
            problems.append(f"{name}: {', '.join(point['rep_drift'])} differ across reps")

    if problems:
        print("CORRECTNESS MISMATCH against the seed baseline:")
        for line in problems:
            print(f"  {line}")
        return 2

    write_bench_json(args.output, "core_scaling", points, engine="current",
                     meta={"cells": [f"{c}/{k}" for c, k in cells], "reps": reps,
                           "sweep_workers": args.workers if args.workers > 1 else None,
                           "zone_kernels": kernels.BACKEND})
    print(f"wrote {os.path.relpath(args.output)}")

    if args.update_baseline:
        # the sweep and shard points are machine- and core-count-specific
        # wall-clock throughput; recording them would turn them into future
        # --check gates
        # witness points carry validation counts, not throughput/anchors
        baseline_points_out = {
            name: point for name, point in points.items()
            if not name.startswith(("sweep/", "witness/", "shard/"))
        }
        for name, point in baseline_points_out.items():
            if name == "aggregate":
                continue
            point.update({
                "expected_wcrt_ticks": point["wcrt_ticks"],
                "expected_states_explored": point["states_explored"],
                "expected_states_stored": point["states_stored"],
                "expected_transitions": point["transitions"],
            })
        write_bench_json(args.baseline, "core_scaling", baseline_points_out,
                         engine="current",
                         meta={"harness": "bench_core_scaling.py --update-baseline"})
        print(f"updated baseline {os.path.relpath(args.baseline)}")

    if args.check:
        gated = {
            name: point for name, point in points.items()
            if point.get("states_explored", 0) >= args.check_min_states
        }
        failures = check_regression(gated, baseline_points,
                                    max_regression=args.max_regression)
        if failures:
            print("THROUGHPUT REGRESSION:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"--check ok: no cell regressed by more than {args.max_regression:.0%}")
    return 0


# ---------------------------------------------------------------------------
# pytest wiring (collected only when this file is targeted explicitly, e.g.
# ``pytest benchmarks/bench_core_scaling.py``): asserts the machine-
# independent correctness anchors on the quick cells.
# ---------------------------------------------------------------------------

def test_core_scaling_quick(core_scaling_baseline):
    model = build_radio_navigation()
    baseline_points = core_scaling_baseline["points"]
    for combination, configuration in CELLS[:2]:
        name = f"{combination}/{configuration}"
        point = run_cell(model, combination, configuration, reps=1)
        assert verify_cell(name, point, baseline_points) == []


if __name__ == "__main__":
    raise SystemExit(main())
