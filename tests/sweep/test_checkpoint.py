"""Tests of the ``repro-checkpoint-v1`` journal and interrupt/resume.

The contract under test: a sweep interrupted at *any* point (SIGKILL'd
parent included -- simulated with a ``"crash"`` fault in serial mode, which
``os._exit``'s the whole process) resumes from its journal and produces the
same deterministic results as an uninterrupted run.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.sweep import FaultPlan, FaultSpec, SweepCell, install_plan, run_sweep
from repro.sweep.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointJournal,
    load_checkpoint,
    sweep_fingerprint,
)
from repro.sweep.runner import CellResult, run_cell
from repro.sweep.supervisor import SupervisorConfig
from repro.util.errors import AnalysisError

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: deterministic CellResult fields (everything except timings and pids)
DETERMINISTIC = (
    "name", "requirement", "combination", "configuration", "wcrt_ticks",
    "wcrt_ms", "is_lower_bound", "satisfied", "states_explored",
    "states_stored", "transitions", "inclusions", "termination", "kind",
)


def det(result: CellResult) -> dict:
    return {key: getattr(result, key) for key in DETERMINISTIC}


def small_cell(i: int, name: str | None = None) -> SweepCell:
    return SweepCell(
        name=name or f"cell{i}",
        requirement="TMC",
        combination="AL+TMC",
        configuration="po",
        settings={"search_order": "bfs", "max_states": 200, "seed": 1},
    )


class TestFingerprint:
    def test_order_sensitive(self):
        assert sweep_fingerprint(["a", "b"]) != sweep_fingerprint(["b", "a"])

    def test_stable(self):
        assert sweep_fingerprint(["a", "b"]) == sweep_fingerprint(["a", "b"])


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, ["cell0", "cell1"]) as journal:
            journal.record(0, result)
        completed = load_checkpoint(path, ["cell0", "cell1"])
        assert list(completed) == [0]
        assert det(completed[0]) == det(result)
        # tuples survive the JSON round trip as tuples
        assert isinstance(completed[0].counterexamples, tuple)
        assert isinstance(completed[0].policy_mix, tuple)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "none.jsonl"), ["a"]) == {}

    def test_header_written_first(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        CheckpointJournal(path, ["a", "b"]).close()
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["fingerprint"] == sweep_fingerprint(["a", "b"])
        assert header["cells"] == 2

    def test_different_sweep_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        CheckpointJournal(path, ["a", "b"]).close()
        with pytest.raises(AnalysisError, match="different sweep"):
            load_checkpoint(path, ["a", "c"])

    def test_torn_final_line_ignored(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, ["cell0", "cell1"]) as journal:
            journal.record(0, result)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "name": "cell1", "resu')  # died mid-write
        completed = load_checkpoint(path, ["cell0", "cell1"])
        assert list(completed) == [0]

    def test_resume_after_torn_final_line_appends_cleanly(self, tmp_path):
        # the resumed journal must not append onto the torn bytes: the next
        # load would then find a corrupt record in the middle of the file
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        names = ["cell0", "cell1", "cell2"]
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, names) as journal:
            journal.record(0, result)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "name": "cell1", "resu')  # died mid-write
        with CheckpointJournal(path, names, resume=True) as journal:
            assert list(journal.completed) == [0]
            journal.record(1, run_cell(small_cell(1)))
            journal.record(2, run_cell(small_cell(2)))
        completed = load_checkpoint(path, names)
        assert sorted(completed) == [0, 1, 2]
        assert det(completed[0]) == det(result)

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, ["cell0", "cell1"]) as journal:
            journal.record(0, result)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{garbage\n")
            handle.write(json.dumps({"index": 1, "name": "cell1",
                                     "result": {}}) + "\n")
        with pytest.raises(AnalysisError, match="corrupt record"):
            load_checkpoint(path, ["cell0", "cell1"])

    def test_name_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, ["cell0"]) as journal:
            journal.record(0, result)
        # same fingerprint cannot happen with a different name list, so
        # corrupt the record itself
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record["name"] = "somebody-else"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lines[0] + "\n" + json.dumps(record) + "\n")
        with pytest.raises(AnalysisError, match="names"):
            load_checkpoint(path, ["cell0"])

    def test_unknown_result_field_rejected(self, tmp_path):
        # a journal written when CellResult still had a plans_commuted field
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, ["cell0"]) as journal:
            journal.record(0, result)
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record["result"]["plans_commuted"] = 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lines[0] + "\n" + json.dumps(record) + "\n")
        with pytest.raises(AnalysisError, match="line 2: unknown result field.*plans_commuted"):
            load_checkpoint(path, ["cell0"])

    def test_duplicate_cell_names_are_index_keyed(self, tmp_path):
        # the sweep API allows duplicate cells; the journal must keep them
        # apart by index
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0, name="dup"))
        with CheckpointJournal(path, ["dup", "dup"]) as journal:
            journal.record(0, result)
            journal.record(1, result)
        completed = load_checkpoint(path, ["dup", "dup"])
        assert sorted(completed) == [0, 1]

    def test_fresh_journal_truncates_stale_file(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        result = run_cell(small_cell(0))
        with CheckpointJournal(path, ["cell0"]) as journal:
            journal.record(0, result)
        CheckpointJournal(path, ["cell0"], resume=False).close()
        assert load_checkpoint(path, ["cell0"]) == {}


class TestRunSweepCheckpointing:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(AnalysisError, match="checkpoint"):
            run_sweep([small_cell(0)], workers=1, resume=True)

    def test_serial_sweep_journals_every_cell(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        cells = [small_cell(i) for i in range(3)]
        sweep = run_sweep(cells, workers=1, checkpoint=path)
        completed = load_checkpoint(path, [cell.name for cell in cells])
        assert sorted(completed) == [0, 1, 2]
        assert sweep.resumed == 0

    def test_full_resume_skips_all_work(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        cells = [small_cell(i) for i in range(3)]
        first = run_sweep(cells, workers=1, checkpoint=path)
        second = run_sweep(cells, workers=1, checkpoint=path, resume=True)
        assert second.resumed == 3
        assert [det(r) for r in second] == [det(r) for r in first]

    def test_partial_resume_merges_deterministically(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        cells = [small_cell(i) for i in range(4)]
        names = [cell.name for cell in cells]
        uninterrupted = run_sweep(cells, workers=1)

        # journal only the first two cells, as an interrupted run would have
        with CheckpointJournal(path, names) as journal:
            for index in (0, 1):
                journal.record(index, uninterrupted.results[index])
        resumed = run_sweep(cells, workers=1, checkpoint=path, resume=True)
        assert resumed.resumed == 2
        assert [det(r) for r in resumed] == [det(r) for r in uninterrupted]
        # the journal now carries all four cells
        assert sorted(load_checkpoint(path, names)) == [0, 1, 2, 3]

    def test_wall_throughput_counts_only_computed_cells(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        cells = [small_cell(i) for i in range(2)]
        with CheckpointJournal(path, [cell.name for cell in cells]) as journal:
            journal.record(0, run_cell(cells[0]))
        partial = run_sweep(cells, workers=1, checkpoint=path, resume=True)
        assert partial.resumed == 1
        assert partial.sweep_states_per_second == pytest.approx(
            partial.results[1].states_explored / partial.wall_seconds)
        # a fully resumed sweep explored nothing in its own wall time
        full = run_sweep(cells, workers=1, checkpoint=path, resume=True)
        assert full.resumed == 2
        assert full.total_states > 0
        assert full.sweep_states_per_second == 0.0
        assert full.points()["sweep"]["sweep_states_per_second"] == 0.0


_INTERRUPTED_SCRIPT = """
import sys
from repro.sweep import FaultPlan, FaultSpec, SweepCell, install_plan, run_sweep

cells = [SweepCell(name=f"cell{i}", requirement="TMC", combination="AL+TMC",
                   configuration="po",
                   settings={"search_order": "bfs", "max_states": 200, "seed": 1})
         for i in range(4)]
# the crash fault os._exit's the serial process at cell 2 -- the hardest
# interruption there is (no handlers, no cleanup, mid-sweep)
install_plan(FaultPlan((FaultSpec(cell=2, action="crash"),)))
run_sweep(cells, workers=1, checkpoint=sys.argv[1])
"""


class TestInterruptedProcessResume:
    def test_killed_serial_run_resumes_identically(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run(
            [sys.executable, "-c", _INTERRUPTED_SCRIPT, path],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 42, proc.stderr  # died at cell 2, by plan

        cells = [small_cell(i) for i in range(4)]
        names = [cell.name for cell in cells]
        # cells 0 and 1 made it to the journal before the process died
        assert sorted(load_checkpoint(path, names)) == [0, 1]

        resumed = run_sweep(cells, workers=1, checkpoint=path, resume=True)
        uninterrupted = run_sweep(cells, workers=1)
        assert resumed.resumed == 2
        assert [det(r) for r in resumed] == [det(r) for r in uninterrupted]


#: the supervision-outcome fields a degraded or quarantined record carries
#: (beyond the DETERMINISTIC exploration fields, which are None for them)
SUPERVISION = (
    "degraded_lower_ticks", "degraded_upper_ticks",
    "degraded_lower_ms", "degraded_upper_ms",
    "failure", "attempts", "usable",
)


class TestDegradedCellsResume:
    """Degraded and quarantined cells round-trip through the journal: a
    resume merges them back field-identical instead of re-running them."""

    @pytest.fixture(autouse=True)
    def _clean_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        install_plan(None)
        yield
        install_plan(None)

    def test_resume_merges_degraded_and_quarantined_identically(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        cells = [small_cell(i) for i in range(3)]
        # cell1 degrades (worker fault, analytic fallback succeeds); cell2
        # is poison (fallback fails too) and is quarantined
        install_plan(FaultPlan((
            FaultSpec(cell="cell1", action="raise"),
            FaultSpec(cell="cell2", action="raise"),
            FaultSpec(cell="cell2", action="raise", stage="degraded"),
        )))
        config = SupervisorConfig(
            on_error="degrade", backoff_seconds=0.05,
            backoff_max_seconds=0.2, degraded_des_runs=1,
            degraded_des_seconds=2.0, degraded_des_horizon_periods=20,
        )
        first = run_sweep(cells, workers=1, checkpoint=path, supervise=config)
        assert first.degraded == 1 and first.quarantined == 1

        # the faults are gone now: if the resume re-ran the damaged cells
        # they would come back exact, which the field comparison would catch
        install_plan(None)
        resumed = run_sweep(cells, workers=1, checkpoint=path, resume=True,
                            supervise=config)
        assert resumed.resumed == 3
        assert resumed.degraded == 1 and resumed.quarantined == 1
        for before, after in zip(first.results, resumed.results):
            assert det(after) == det(before)
            for field in SUPERVISION:
                assert getattr(after, field) == getattr(before, field), field
        assert resumed.results[1].termination == "degraded"
        assert resumed.results[2].termination == "quarantined"
        assert not resumed.results[2].usable


_INTERRUPTED_SHARD_SCRIPT = """
import sys
from repro.sweep import FaultPlan, FaultSpec, SweepCell, install_plan, run_sweep

cells = [SweepCell(name=f"cell{i}", requirement="TMC", combination="AL+TMC",
                   configuration="po",
                   settings={"search_order": "bfs", "max_states": 200,
                             "seed": 1, "shard_workers": 2})
         for i in range(4)]
install_plan(FaultPlan((FaultSpec(cell=2, action="crash"),)))
run_sweep(cells, workers=1, checkpoint=sys.argv[1])
"""


class TestShardedCellResume:
    """Sharded cells survive the same SIGKILL-grade interruption: the
    journal records them like any other cell (shard counters included), and
    a resume merges them back deterministic-field identical instead of
    re-forking the workers."""

    SHARD_COUNTERS = ("shard_workers", "shard_handoffs")

    def shard_cell(self, i: int) -> SweepCell:
        return SweepCell(
            name=f"cell{i}",
            requirement="TMC",
            combination="AL+TMC",
            configuration="po",
            settings={"search_order": "bfs", "max_states": 200, "seed": 1,
                      "shard_workers": 2},
        )

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="sharded engine requires os.fork")
    def test_killed_sharded_sweep_resumes_identically(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.jsonl")
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run(
            [sys.executable, "-c", _INTERRUPTED_SHARD_SCRIPT, path],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 42, proc.stderr  # died at cell 2, by plan

        cells = [self.shard_cell(i) for i in range(4)]
        names = [cell.name for cell in cells]
        completed = load_checkpoint(path, names)
        assert sorted(completed) == [0, 1]
        # the journalled sharded cells carry their topology counters
        assert completed[0].shard_workers == 2
        assert completed[0].shard_handoffs > 0

        resumed = run_sweep(cells, workers=1, checkpoint=path, resume=True)
        uninterrupted = run_sweep(cells, workers=1)
        assert resumed.resumed == 2
        assert [det(r) for r in resumed] == [det(r) for r in uninterrupted]
        for after, before in zip(resumed.results, uninterrupted.results):
            for counter in self.SHARD_COUNTERS:
                assert getattr(after, counter) == getattr(before, counter)
        # and the sharded run itself matches an unsharded one exactly
        scalar = run_sweep([small_cell(i) for i in range(4)], workers=1)
        assert [det(r) for r in resumed] == [det(r) for r in scalar]


class TestCliResumeGuard:
    """Both CLIs must refuse ``--resume`` without ``--checkpoint`` with the
    standard argparse usage-error exit code (2), not start a doomed run."""

    def test_repro_sweep_rejects_bare_resume(self, capsys):
        from repro.sweep.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--grid", "table2", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume needs --checkpoint" in capsys.readouterr().err

    def test_repro_diffcheck_rejects_bare_resume(self, capsys):
        from repro.diffcheck.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume needs --checkpoint" in capsys.readouterr().err
