"""Reduction counters in sweep cells and trajectory points.

A cell that ran with reductions enabled reports how much each reduction
saved; unreduced (or inert) runs must keep the historical trajectory-point
format, so zero counters are dropped from ``CellResult.point()``.
"""

import json

from repro.casestudy.replicated import REPLICATED_REQUIREMENT
from repro.sweep.cells import SweepCell, core_scaling_cells
from repro.sweep.cli import main as sweep_main
from repro.sweep.runner import CellResult, run_cell

COUNTERS = ("states_subsumed_lu", "keys_folded")


def _result(**overrides) -> CellResult:
    base = dict(
        name="X", requirement="R", combination=None, configuration=None,
        wcrt_ticks=5, wcrt_ms=0.005, is_lower_bound=False, satisfied=True,
        states_explored=100, states_stored=100, transitions=200,
        inclusions=0, explore_seconds=0.1, states_per_second=1000.0,
        termination="exhausted", wall_seconds=0.2, worker_pid=1,
    )
    base.update(overrides)
    return CellResult(**base)


class TestPointFormat:
    def test_zero_counters_are_dropped(self):
        point = _result().point()
        for counter in COUNTERS:
            assert counter not in point

    def test_nonzero_counters_survive(self):
        point = _result(keys_folded=7, states_subsumed_lu=3).point()
        assert point["keys_folded"] == 7
        assert point["states_subsumed_lu"] == 3


class TestGridDefaults:
    def test_core_scaling_cells_pin_the_unreduced_baseline(self):
        # the committed bench seed anchors exact state counts; the baseline
        # cells must stay unreduced now that settings default to all-on
        for cell in core_scaling_cells():
            assert cell.settings["reductions"] == "none"


class TestRunCell:
    def test_run_cell_reports_symmetry_folds(self):
        cell = SweepCell(
            name="replicated/periodic",
            requirement=REPLICATED_REQUIREMENT,
            model_factory="repro.casestudy.replicated.build_replicated_load",
            settings={"reductions": "all"},
        )
        result = run_cell(cell)
        assert result.termination == "exhausted"
        assert result.keys_folded > 0
        assert result.point()["keys_folded"] == result.keys_folded


class TestCliFlag:
    def test_reductions_flag_overrides_every_cell(self, tmp_path):
        output = tmp_path / "BENCH_sweep.json"
        code = sweep_main([
            "--combination", "AL+TMC", "--configuration", "po",
            "--requirement", "TMC", "--workers", "1",
            "--reductions", "none",
            "--output", str(output),
        ])
        assert code == 0
        point = json.loads(output.read_text())["points"]["AL+TMC/po/TMC"]
        # the unreduced cell keeps the seed anchor and carries no counters
        assert point["states_explored"] == 231
        for counter in COUNTERS:
            assert counter not in point

    def test_unknown_reduction_spec_exits_2(self, tmp_path, capsys):
        code = sweep_main([
            "--combination", "AL+TMC", "--configuration", "po",
            "--requirement", "TMC", "--workers", "1",
            "--reductions", "warp",
            "--output", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_removed_partial_order_name_exits_2(self, tmp_path, capsys):
        code = sweep_main([
            "--combination", "AL+TMC", "--configuration", "po",
            "--requirement", "TMC", "--workers", "1",
            "--reductions", "partial_order",
            "--output", str(tmp_path / "out.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "partial_order" in err and "lu_extrapolation, symmetry" in err
