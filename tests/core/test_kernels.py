"""The zone-kernel module: backend equivalence, loader and argument checks.

:mod:`repro.core.kernels` binds every zone kernel once, at import, to the
compiled C source or to its numpy twin.  These tests pin what the rest of
the suite takes for granted: both backends give the paper's anchor with
identical statistics, the loader falls back to numpy (and says why) when
it cannot build, never trusts a cache another user could write, rebuilds
a stale entry, and the compiled wrappers refuse arrays C cannot read.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from array import array

import numpy as np
import pytest

from repro.arch import TimedAutomataSettings, analyze_wcrt
from repro.casestudy import build_radio_navigation, configure
from repro.core import kernels
from repro.core.dbm import DBM, bound
from repro.util.errors import ModelError

#: the directory that holds the ``repro`` package
SRC = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__))))

needs_compiled = pytest.mark.skipif(
    kernels.COMPILED_KERNELS is None, reason=f"no compiled kernels ({kernels.BACKEND})"
)
needs_compiler = pytest.mark.skipif(
    shutil.which(kernels._COMPILER) is None, reason="no C compiler on PATH"
)


def _use(monkeypatch, table):
    for name, kernel in table.items():
        monkeypatch.setattr(kernels, name, kernel)


def _comparable(stats):
    """Every comparable ExplorationStatistics field but the wall time."""
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if field.compare and field.name != "elapsed_seconds"
    }


class TestBackendEquivalence:
    def test_po_anchor_and_statistics_on_both_backends(self, monkeypatch):
        model = configure(build_radio_navigation(), "AL+TMC", "po")
        settings = TimedAutomataSettings()
        _use(monkeypatch, kernels.NUMPY_KERNELS)
        on_numpy = analyze_wcrt(model, "TMC", settings)
        monkeypatch.undo()
        assert on_numpy.wcrt_ticks == 172106
        if kernels.COMPILED_KERNELS is None:
            pytest.skip(f"no compiled kernels to compare with ({kernels.BACKEND})")
        _use(monkeypatch, kernels.COMPILED_KERNELS)
        compiled = analyze_wcrt(model, "TMC", settings)
        assert compiled.wcrt_ticks == 172106
        assert _comparable(compiled.detail.statistics) == _comparable(on_numpy.detail.statistics)


class TestLoader:
    def test_import_without_a_compiler_falls_back_and_says_why(self, tmp_path):
        env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"),
                   PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", "from repro.core import kernels; print(kernels.BACKEND)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == f"numpy: no C compiler ({kernels._COMPILER} not found)"

    def test_failed_build_falls_back_with_the_reason(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels, "_COMPILER", "repro-no-such-compiler")
        lib, backend = kernels._load()
        assert lib is None
        assert backend == "numpy: no C compiler (repro-no-such-compiler not found)"
        assert not list((tmp_path / "repro").iterdir())  # nothing half-built left

    @needs_compiler
    def test_compiler_error_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels, "_CFLAGS", kernels._CFLAGS + ("--no-such-flag",))
        lib, backend = kernels._load()
        assert lib is None
        assert backend.startswith("numpy: build failed (")

    @needs_compiler
    def test_matching_entry_is_loaded_and_stale_entry_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert kernels._load()[1] == "compiled"
        builds = []
        build = kernels._build
        monkeypatch.setattr(kernels, "_build", lambda *args: builds.append(args) or build(*args))
        assert kernels._load()[1] == "compiled"
        assert not builds  # the stored source matched: loaded as is
        [stored] = (tmp_path / "repro").glob("zonekernels-*.c")
        source = stored.read_bytes()
        stored.write_bytes(source.replace(b"zk_fire", b"zk_other"))
        assert kernels._load()[1] == "compiled"
        assert len(builds) == 1  # the stored source differed: rebuilt
        assert stored.read_bytes() == source

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_writable_cache_directory_is_not_trusted(self, tmp_path, monkeypatch, mode):
        cache = tmp_path / "repro"
        cache.mkdir()
        cache.chmod(mode)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        directory, temporary = kernels._cache_directory()
        try:
            assert temporary and directory != str(cache)
            assert kernels._private(directory)
        finally:
            os.rmdir(directory)

    def test_cache_directory_of_another_user_is_not_trusted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert kernels._cache_directory() == (str(tmp_path / "repro"), False)
        uid = os.getuid()
        monkeypatch.setattr(kernels.os, "getuid", lambda: uid + 1)
        directory, temporary = kernels._cache_directory()
        os.rmdir(directory)
        assert temporary and directory != str(tmp_path / "repro")

    @needs_compiler
    def test_untrusted_cache_is_left_untouched(self, tmp_path, monkeypatch):
        cache = tmp_path / "repro"
        cache.mkdir()
        cache.chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert kernels._load()[1] == "compiled"  # built in a private directory
        assert not list(cache.iterdir())

    def test_new_cache_directory_is_private(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
        directory, temporary = kernels._cache_directory()
        assert not temporary
        assert os.stat(directory).st_mode & 0o777 == 0o700


def _fire_arguments(dim=4, count=2, record=None):
    """Arguments for ``fire``: *count* zero zones, the one-plan program of
    *record* (a guard x1 <= 5 by default) and output storage for them."""
    record = record if record is not None else kernels.plan_record([(1, 0, bound(5))])
    source = np.stack([DBM.zero(dim).m2] * count)
    return (source, kernels.firing_program([record]), np.zeros_like(source),
            np.zeros(count, dtype=np.int64), np.zeros(2, dtype=np.int64))


def _decide_arguments(dim=3, count=2, members=1):
    """Arguments for ``decide``: *count* zero rows as one run, and a
    federation of *members* zero rows."""
    rows = np.stack([DBM.zero(dim).m] * count)
    federation = np.stack([DBM.zero(dim).m] * members)
    return rows, np.array([[0, count]], dtype=np.int64), [federation], None


@needs_compiled
class TestArgumentChecks:
    """The compiled wrappers refuse what C cannot read, with ModelError,
    before C writes anything."""

    compiled = kernels.COMPILED_KERNELS or {}

    def test_non_contiguous_view_is_refused(self):
        stack = np.stack([DBM.zero(4).m2, DBM.zero(4).m2])
        rows = kernels.constraint_rows([(1, 0, bound(1))])
        with pytest.raises(ModelError):
            self.compiled["constrain_stack"](stack[:, :, ::-1], rows)
        with pytest.raises(ModelError):
            self.compiled["constrain_stack"](stack.transpose(0, 2, 1), rows)

    def test_wrong_dtype_is_refused(self):
        rows = kernels.constraint_rows([(1, 0, bound(1))])
        with pytest.raises(ModelError):
            self.compiled["constrain_stack"](np.zeros((2, 4, 4), dtype=np.int32), rows)
        with pytest.raises(ModelError):
            self.compiled["covers"](np.zeros((1, 16)), np.zeros(16))

    def test_mismatched_shapes_are_refused(self):
        zones = DBM.zero(4).m2[None]
        with pytest.raises(ModelError):
            self.compiled["constrain_stack"](np.zeros((3, 4), dtype=np.int64), b"")
        with pytest.raises(ModelError):
            self.compiled["extrapolate_stack"](zones, zones[0], np.zeros((3, 3), dtype=np.int64))
        members = np.zeros((2, 16), dtype=np.int64)
        with pytest.raises(ModelError):  # constraint rows are 24 bytes each
            self.compiled["constrain_stack"](zones.copy(), b"\0" * 20)
        with pytest.raises(ModelError):  # and packed into bytes
            self.compiled["constrain_stack"](zones.copy(), np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(ModelError):
            self.compiled["covers_many"](members, np.zeros((3, 9), dtype=np.int64))
        with pytest.raises(ModelError):
            self.compiled["covers"](members, np.zeros(9, dtype=np.int64))

    def test_clock_index_out_of_range_is_refused(self):
        stack = DBM.zero(4).m2[None].copy()
        with pytest.raises(ModelError):
            rows = kernels.constraint_rows([(1, 0, bound(1)), (0, 4, bound(1))])
            self.compiled["constrain_stack"](stack, rows)
        assert np.array_equal(stack[0], DBM.zero(4).m2)  # refused before any write

    @pytest.mark.parametrize("record", [
        kernels.plan_record([(1, 0, bound(5)), (0, 4, bound(0))]),  # guard column
        kernels.plan_record([], [(0, 3)]),  # the reference clock is never reset
        kernels.plan_record([], [(4, 3)]),
        kernels.plan_record([], [], [(7, 0, bound(5))], delay=True),  # an upper bound
        kernels.plan_record([], [], [(1, 9, bound(5))], delay=True),  # a difference
        kernels.plan_record([], [], [(0, 0, bound(5))], delay=True),  # x0 - x0
    ])
    def test_fire_refuses_a_clock_outside_the_matrix_in_the_program(self, record):
        source = np.stack([DBM.zero(4).m2] * 2)
        program = kernels.firing_program([kernels.plan_record([(1, 0, bound(5))]), record])
        out, nodes = np.zeros((4, 4, 4), np.int64), np.zeros(4, np.int64)
        counts = np.zeros(2, np.int64)
        with pytest.raises(ModelError):
            self.compiled["fire"](source, program, out, nodes, counts)
        # the valid first plan did not run before the check: nothing written
        assert not out.any() and not nodes.any() and not counts.any()

    def test_fire_refuses_a_malformed_program(self):
        source, program, out, nodes, counts = _fire_arguments()
        values = array("q", program)
        for broken in (program[:-8], program[:-1], program + bytes(8),
                       array("q", [2, *values[1:]]).tobytes(),  # a plan too many
                       array("q", [1, 0, 5, 0, 0, *values[5:]]).tobytes(),  # guards overrun
                       array("q", [-1]).tobytes(), b"",
                       np.frombuffer(program, dtype=np.int64)):  # not packed bytes
            with pytest.raises(ModelError):
                self.compiled["fire"](source, broken, out, nodes, counts)
        assert not out.any()

    def test_fire_refuses_too_little_output_storage(self):
        source, program, out, nodes, counts = _fire_arguments()
        with pytest.raises(ModelError):
            self.compiled["fire"](source, program, out[:1], nodes, counts)
        with pytest.raises(ModelError):
            self.compiled["fire"](source, program, out, nodes[:1], counts)
        with pytest.raises(ModelError):
            self.compiled["fire"](source, program, out, nodes, counts[:0])
        assert not out.any()

    @pytest.mark.parametrize("argument", ["source", "out", "nodes", "counts"])
    def test_fire_refuses_arrays_that_are_not_contiguous_int64(self, argument):
        arguments = dict(zip(("source", "program", "out", "nodes", "counts"),
                             _fire_arguments()))
        original = arguments[argument]
        for bad in (original.astype(np.int32),
                    np.repeat(original, 2, axis=0)[::2]):  # a strided view
            arguments[argument] = bad
            with pytest.raises(ModelError):
                self.compiled["fire"](*arguments.values())
        assert not arguments["out"].any()

    def test_fire_refuses_an_output_of_another_dimension(self):
        source, program, out, nodes, counts = _fire_arguments()
        with pytest.raises(ModelError):
            self.compiled["fire"](source, program, np.zeros((2, 3, 3), np.int64), nodes, counts)

    def test_fire_refuses_read_only_output(self):
        source, program, out, nodes, counts = _fire_arguments()
        out.setflags(write=False)
        with pytest.raises(ModelError):
            self.compiled["fire"](source, program, out, nodes, counts)

    def test_decide_refuses_a_member_buffer_of_the_wrong_width(self):
        rows, bounds, members, grids = _decide_arguments()
        before = rows.copy()
        for bad in (np.zeros((1, 16), np.int64), np.zeros((1, 9), np.int32),
                    np.zeros((2, 18), np.int64)[:, ::2], np.zeros(9, np.int64)):
            with pytest.raises(ModelError):
                self.compiled["decide"](rows, bounds, [bad], grids)
        assert np.array_equal(rows, before)

    def test_decide_refuses_rows_bounds_and_grids_that_do_not_fit(self):
        rows, bounds, members, grids = _decide_arguments()
        before = rows.copy()
        with pytest.raises(ModelError):  # not a square width
            self.compiled["decide"](np.zeros((2, 8), np.int64), bounds, members, None)
        with pytest.raises(ModelError):  # a run outside the rows
            self.compiled["decide"](rows, np.array([[0, 3]], np.int64), members, None)
        with pytest.raises(ModelError):  # runs out of order
            self.compiled["decide"](rows, np.array([[1, 2], [0, 1]], np.int64),
                                    members * 2, None)
        with pytest.raises(ModelError):  # one member array per run
            self.compiled["decide"](rows, bounds, [], None)
        with pytest.raises(ModelError):
            self.compiled["decide"](rows, bounds, members, (np.zeros((4, 4), np.int64),) * 2)
        with pytest.raises(ModelError):
            self.compiled["decide"](rows.astype(np.int32), bounds, members, None)
        assert np.array_equal(rows, before)

    def test_decide_never_writes_member_rows(self):
        from repro.core.dbm import _extrapolation_grids

        rows, bounds, members, _ = _decide_arguments(count=3, members=2)
        members[0][1, 1] = bound(40)  # a member extrapolation would change
        before = members[0].copy()
        self.compiled["decide"](rows, bounds, members, _extrapolation_grids((0, 2, 2), (0, 2, 2)))
        assert np.array_equal(members[0], before)

    def test_dbm_methods_surface_the_refusal(self, monkeypatch):
        _use(monkeypatch, self.compiled)
        with pytest.raises(ModelError):
            DBM.zero(3).constrain(1, 3, bound(1))  # clock 3 lies outside
