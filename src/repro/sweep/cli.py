"""``repro-sweep`` -- the command-line scenario-sweep runner.

Fans the paper's table cells (or a user-defined grid) across worker
processes and writes a ``repro-bench-v1`` trajectory::

    repro-sweep --grid core --workers 4                 # the 3 scaling cells
    repro-sweep --grid table1 --output BENCH_table1.json
    repro-sweep --grid table2 --workers 2 --start-method fork
    repro-sweep --grid policies                         # round-robin / TDMA-bus variants
    repro-sweep --combination AL+TMC --configuration pno sp --requirement TMC
    repro-sweep --combination AL+TMC --configuration pno --policy rr tdma-bus

``--check`` cross-validates the sweep against a committed baseline's
machine-independent anchors (exact WCRT ticks and state counts) and exits
non-zero on any mismatch -- a parallel run that explores a different state
space is a bug, not a speed-up.  Without an installed package the module
also runs as ``PYTHONPATH=src python -m repro.sweep.cli``.

Execution is supervised (``docs/robustness.md``): crashed workers are
respawned and retried (``--max-attempts``), overrunning cells are killed at
``--deadline-seconds``, and unrecoverable cells degrade to analytic bounds
or are quarantined rather than sinking the sweep (``--on-error degrade``,
the CLI default).  ``--checkpoint FILE`` journals every completed cell;
``--resume`` continues an interrupted sweep from that journal::

    repro-sweep --grid table2 --checkpoint table2.checkpoint.jsonl
    repro-sweep --grid table2 --checkpoint table2.checkpoint.jsonl --resume
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.core.reductions import ReductionConfig
from repro.perf import load_baseline_json
from repro.sweep.cells import (
    core_scaling_cells,
    grid_cells,
    policy_variant_cells,
    table1_cells,
    table2_cells,
)
from repro.sweep.runner import run_sweep, verify_cells
from repro.sweep.supervisor import SupervisorConfig
from repro.util.errors import AnalysisError, ModelError

__all__ = ["main"]


def _custom_grid(args) -> bool:
    return bool(args.combination or args.configuration or args.requirement or args.policy)


def _build_cells(args) -> list:
    if _custom_grid(args):
        return grid_cells(
            combinations=args.combination or None,
            configurations=args.configuration or None,
            requirements=args.requirement or None,
            settings={"max_states": args.max_states} if args.max_states is not None else None,
            policies=args.policy or None,
        )
    if args.grid == "core":
        return core_scaling_cells()
    if args.grid == "table1":
        return table1_cells(full_scale=args.full_scale)
    if args.grid == "policies":
        return policy_variant_cells(full_scale=args.full_scale)
    return table2_cells(full_scale=args.full_scale)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--grid", choices=("core", "table1", "table2", "policies"),
                        default="core",
                        help="predefined cell grid (default: core scaling cells)")
    parser.add_argument("--combination", action="append", metavar="NAME",
                        help="restrict a custom grid to this scenario combination "
                             "(repeatable; overrides --grid)")
    parser.add_argument("--configuration", nargs="*", default=None, metavar="KIND",
                        help="event configurations of a custom grid (po pno sp pj bur)")
    parser.add_argument("--requirement", nargs="*", default=None, metavar="NAME",
                        help="requirements of a custom grid")
    parser.add_argument("--policy", nargs="*", default=None, metavar="VARIANT",
                        help="resource-policy variants of a custom grid (fp rr tdma-bus)")
    parser.add_argument("--max-states", type=int, default=None,
                        help="state budget applied to every custom-grid cell")
    parser.add_argument("--full-scale", action="store_true",
                        help="drop the default budgets of the tractable table cells")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: all cores; 1 = serial)")
    parser.add_argument("--start-method", choices=("spawn", "fork", "forkserver"),
                        default="spawn", help="multiprocessing start method")
    parser.add_argument("--output", default="BENCH_sweep.json",
                        help="trajectory output path (default BENCH_sweep.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline trajectory with expected_* anchors for --check")
    parser.add_argument("--check", action="store_true",
                        help="fail on any mismatch against the baseline anchors")
    parser.add_argument("--witness", choices=("earliest", "latest", "midpoint", "all"),
                        default=None,
                        help="build + validate a concrete witness schedule per cell "
                             "(TA step-check + DES replay; forces trace recording); "
                             "fails the sweep when a witness does not validate")
    parser.add_argument("--guided", action="store_true",
                        help="run every cell bound-guided: SymTA/MPA clamp the "
                             "observer ceiling (and DES seeds the binary search) "
                             "before the exact exploration -- identical WCRTs, "
                             "fewer states (docs/portfolio.md)")
    parser.add_argument("--shard-workers", type=int, default=None, metavar="N",
                        help="fork the exact exploration of every cell into N "
                             "key partitions (0/1 = in-process); verdicts, "
                             "statistics and witnesses are bit-identical to "
                             "the in-process run (docs/performance.md)")
    parser.add_argument("--reductions", default=None, metavar="SPEC",
                        help="state-space reductions applied to every cell: 'all', "
                             "'none' or a comma list of lu_extrapolation, "
                             "symmetry -- identical WCRTs, fewer "
                             "states (docs/reductions.md); default: the cells' "
                             "own settings")
    supervision = parser.add_argument_group("supervision (docs/robustness.md)")
    supervision.add_argument("--deadline-seconds", type=float, default=None,
                             metavar="S",
                             help="hard wall-clock deadline per cell; overrunning "
                                  "workers are killed (serial runs enforce it "
                                  "cooperatively)")
    supervision.add_argument("--max-attempts", type=int, default=3, metavar="N",
                             help="attempts per cell for transient worker deaths "
                                  "(default 3)")
    supervision.add_argument("--on-error", choices=("raise", "degrade"),
                             default="degrade",
                             help="unrecoverable cells: abort the sweep ('raise') or "
                                  "fall back to SymTA/MPA+DES bounds and quarantine "
                                  "poison cells ('degrade', default)")
    supervision.add_argument("--checkpoint", default=None, metavar="FILE",
                             help="journal completed cells to this "
                                  "repro-checkpoint-v1 JSONL file")
    supervision.add_argument("--resume", action="store_true",
                             help="skip cells already completed in --checkpoint "
                                  "(their journaled results are merged back in)")
    supervision.add_argument("--min-usable", type=int, default=None, metavar="N",
                             help="fail (exit 1) when fewer than N cells end up "
                                  "usable (exact or degraded)")
    args = parser.parse_args(argv)
    custom_grid = _custom_grid(args)
    if args.max_states is not None and not custom_grid:
        parser.error("--max-states only applies to custom grids "
                     "(--combination/--configuration/--requirement); the "
                     "predefined --grid cells carry their own budgets")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1 (1 = serial)")
    if args.resume and not args.checkpoint:
        parser.error("--resume needs --checkpoint")
    if args.max_attempts < 1:
        parser.error("--max-attempts must be at least 1")
    if args.shard_workers is not None and args.shard_workers < 0:
        parser.error("--shard-workers must be non-negative")
    # fail before the (potentially multi-minute) sweep runs
    if args.check and not args.baseline:
        print("--check needs --baseline", file=sys.stderr)
        return 2
    if args.baseline is not None:
        try:
            baseline = load_baseline_json(args.baseline)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    else:
        baseline = None

    try:
        cells = _build_cells(args)
        if args.witness is not None:
            cells = [replace(cell, witness=args.witness) for cell in cells]
        if args.guided:
            cells = [replace(cell, guided=True) for cell in cells]
        if args.reductions is not None:
            # validate once here (a typo must fail fast, not in a worker) and
            # override whatever the grid's cells carry
            spec = ReductionConfig.parse(args.reductions).spec()
            cells = [
                replace(cell, settings={**dict(cell.settings), "reductions": spec})
                for cell in cells
            ]
        if args.shard_workers is not None:
            cells = [
                replace(cell, settings={**dict(cell.settings),
                                        "shard_workers": args.shard_workers})
                for cell in cells
            ]
    except ModelError as exc:
        print(f"invalid cell specification: {exc}", file=sys.stderr)
        return 2
    config = SupervisorConfig(
        deadline_seconds=args.deadline_seconds,
        max_attempts=args.max_attempts,
        on_error=args.on_error,
    )
    print(f"sweeping {len(cells)} cells "
          f"(workers={args.workers or 'auto'}, start_method={args.start_method})")
    try:
        sweep = run_sweep(cells, workers=args.workers,
                          start_method=args.start_method, supervise=config,
                          checkpoint=args.checkpoint, resume=args.resume)
    except AnalysisError as exc:
        print(f"SWEEP FAILED: {exc}", file=sys.stderr)
        if args.checkpoint:
            print(f"completed cells are journaled in {args.checkpoint}; "
                  f"re-run with --resume to continue", file=sys.stderr)
        return 1

    for result in sweep:
        if not result.usable:
            print(f"  {result.name:24s} QUARANTINED after {result.attempts} "
                  f"attempt(s): {result.failure}")
            continue
        if result.termination == "degraded":
            lower = "?" if result.degraded_lower_ms is None else f"{result.degraded_lower_ms:.3f}"
            upper = "?" if result.degraded_upper_ms is None else f"{result.degraded_upper_ms:.3f}"
            print(f"  {result.name:24s} DEGRADED wcrt in [{lower}, {upper}] ms  "
                  f"({result.failure})")
            continue
        prefix = ">" if result.is_lower_bound else "="
        wcrt = "?" if result.wcrt_ms is None else f"{result.wcrt_ms:.3f}"
        witness_note = ""
        if result.witnesses_attempted:
            witness_note = (
                f"  witness {result.witnesses_validated}"
                f"/{result.witnesses_attempted}"
            )
        print(f"  {result.name:24s} wcrt {prefix} {wcrt:>10s} ms  "
              f"{result.states_explored:7d} states  "
              f"{result.states_per_second:9.1f} states/s  "
              f"[pid {result.worker_pid}]{witness_note}")
    print(f"  {'sweep total':24s} {sweep.total_states} states in "
          f"{sweep.wall_seconds:.2f}s wall "
          f"({sweep.sweep_states_per_second:.1f} states/s across "
          f"{sweep.workers} worker{'s' if sweep.workers != 1 else ''})")
    if sweep.resumed:
        print(f"  resumed: {sweep.resumed} cell(s) served from {args.checkpoint}")
    if sweep.degraded or sweep.quarantined:
        print(f"  supervision: {sweep.degraded} degraded, "
              f"{sweep.quarantined} quarantined, "
              f"{len(sweep.usable_results)}/{len(sweep)} usable")

    sweep.write(args.output, meta={
        "grid": "custom" if custom_grid else args.grid,
        "cells": [cell.name for cell in cells],
    })
    print(f"wrote {args.output}")

    if args.witness is not None:
        missing = [
            result for result in sweep
            if result.witnesses_validated < result.witnesses_attempted
        ]
        if missing:
            print("WITNESS VALIDATION FAILED:")
            for result in missing:
                for problem in result.witness_problems:
                    print(f"  {result.name}: {problem}")
            return 1
        print("--witness ok: every built schedule passed the TA step-check "
              "and the DES replay")

    if args.check:
        problems = verify_cells(sweep.results, baseline["points"])
        if problems:
            print("SWEEP MISMATCH against the baseline anchors:")
            for line in problems:
                print(f"  {line}")
            return 1
        print("--check ok: every anchored cell reproduced the baseline exactly")

    if args.min_usable is not None and len(sweep.usable_results) < args.min_usable:
        print(f"TOO FEW USABLE CELLS: {len(sweep.usable_results)} < "
              f"{args.min_usable} required", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
