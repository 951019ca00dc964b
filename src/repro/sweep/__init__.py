"""Parallel scenario sweeps: the paper's tables as a fan-out workload.

The paper's headline result is a *table* of analyses -- many (architecture,
event-model, requirement) cells checked one after another.  The cells are
independent, so this package runs them as a multiprocess sweep:

* :mod:`repro.sweep.cells` -- picklable cell descriptions and grid builders
  (Table 1, Table 2, the core-scaling cells, user-defined grids),
* :mod:`repro.sweep.runner` -- spawn-safe cell execution, flat results and
  ``repro-bench-v1`` trajectory aggregation,
* :mod:`repro.sweep.supervisor` -- the one supervised worker pool (the
  analysis service runs on it too): crash isolation, hard deadlines, retry
  with backoff, degradation to analytic bounds and quarantine,
* :mod:`repro.sweep.checkpoint` -- the ``repro-checkpoint-v1`` journal
  behind ``--resume``, in the JSONL format the service's cache shares,
* :mod:`repro.sweep.faults` -- the deterministic fault-injection harness,
* :mod:`repro.sweep.cli` -- the ``repro-sweep`` console entry point.

See ``docs/performance.md`` ("Batched frontier & parallel sweeps") for the
workflow and the safety notes on per-worker kernel caches, and
``docs/robustness.md`` for the supervision model.
"""

from repro.sweep.cells import (
    DEFAULT_MODEL_FACTORY,
    DiffCheckCell,
    SweepCell,
    core_scaling_cells,
    diffcheck_cells,
    grid_cells,
    policy_variant_cells,
    table1_cells,
    table2_cells,
)
from repro.sweep.checkpoint import CheckpointJournal, load_checkpoint
from repro.sweep.faults import FaultPlan, FaultSpec, install_plan
from repro.sweep.runner import (
    CellResult,
    SweepResult,
    run_cell,
    run_sweep,
    verify_cells,
)
from repro.sweep.supervisor import SupervisorConfig

__all__ = [
    "DEFAULT_MODEL_FACTORY",
    "SweepCell",
    "DiffCheckCell",
    "CellResult",
    "SweepResult",
    "SupervisorConfig",
    "CheckpointJournal",
    "FaultPlan",
    "FaultSpec",
    "install_plan",
    "load_checkpoint",
    "core_scaling_cells",
    "table1_cells",
    "table2_cells",
    "policy_variant_cells",
    "grid_cells",
    "diffcheck_cells",
    "run_cell",
    "run_sweep",
    "verify_cells",
]
