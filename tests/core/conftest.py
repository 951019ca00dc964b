"""Shared fixture of the core tests: which zone-kernel backend runs."""

import pytest

from repro.core import kernels


def _bind(table: dict, backend: str) -> None:
    for name, kernel in table.items():
        setattr(kernels, name, kernel)
    kernels.BACKEND = backend


@pytest.fixture(scope="module", params=["compiled", "numpy"])
def kernel_backend(request):
    """Run the requesting tests once per zone-kernel backend.

    ``compiled`` binds the C kernels (skipped when they could not be
    built); ``numpy`` rebinds every kernel of :mod:`repro.core.kernels` to
    its numpy twin.  Module-scoped, so hypothesis tests may use it too; the
    import-time binding comes back afterwards.
    """
    saved = {name: getattr(kernels, name) for name in kernels.NUMPY_KERNELS}
    saved_backend = kernels.BACKEND
    if request.param == "compiled":
        if kernels.COMPILED_KERNELS is None:
            pytest.skip(f"no compiled kernels ({kernels.BACKEND})")
        _bind(kernels.COMPILED_KERNELS, "compiled")
    else:
        _bind(kernels.NUMPY_KERNELS, "numpy: selected by the test fixture")
    yield request.param
    _bind(saved, saved_backend)
