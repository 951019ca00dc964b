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
        stored.write_bytes(source.replace(b"zk_reset", b"zk_other"))
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


@needs_compiled
class TestArgumentChecks:
    """The compiled wrappers refuse what C cannot read, with ModelError."""

    compiled = kernels.COMPILED_KERNELS or {}

    def test_non_contiguous_view_is_refused(self):
        stack = np.stack([DBM.zero(4).m2, DBM.zero(4).m2])
        with pytest.raises(ModelError):
            self.compiled["reset_stack"](stack[:, :, ::-1], 1, 0)
        with pytest.raises(ModelError):
            self.compiled["reset_stack"](stack.transpose(0, 2, 1), 1, 0)

    def test_wrong_dtype_is_refused(self):
        with pytest.raises(ModelError):
            self.compiled["reset_stack"](np.zeros((2, 4, 4), dtype=np.int32), 1, 0)
        with pytest.raises(ModelError):
            self.compiled["covers"](np.zeros((1, 16)), np.zeros(16))

    def test_mismatched_shapes_are_refused(self):
        zones = DBM.zero(4).m2[None]
        with pytest.raises(ModelError):
            self.compiled["reset_stack"](np.zeros((3, 4), dtype=np.int64), 1, 0)
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
        with pytest.raises(ModelError):
            self.compiled["reset_stack"](stack, 0, 0)
        clocks = np.array([1, 7], dtype=np.int64)
        with pytest.raises(ModelError):
            self.compiled["impose_upper_bounds_stack"](stack, clocks, np.ones(2, np.int64))
        assert np.array_equal(stack[0], DBM.zero(4).m2)  # refused before any write

    def test_dbm_methods_surface_the_refusal(self, monkeypatch):
        _use(monkeypatch, self.compiled)
        with pytest.raises(ModelError):
            DBM.zero(3).constrain(1, 3, bound(1))  # clock 3 lies outside
