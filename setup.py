"""Setuptools configuration.

Kept as a plain ``setup.py`` (no PEP 660 requirement) so that
``pip install -e .`` and ``python setup.py develop`` also work with the
older setuptools tool-chains found on air-gapped machines.  The test and
benchmark suites run without installation (``PYTHONPATH=src``, see
``conftest.py``); installing additionally provides the ``repro-sweep``
(parallel scenario sweeps), ``repro-diffcheck`` (differential scenario
fuzzing) and ``repro-serve`` (the analysis job server) console entry
points.
"""

from setuptools import find_packages, setup

setup(
    name="repro-timed-automata-architectures",
    version="1.0.0",
    description=(
        "Timed-automata based analysis of embedded system architectures "
        "(reproduction of Hendriks & Verhoef, IPPS 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # the zone kernels' C source, compiled on first import (repro.core.kernels)
    package_data={"repro.core": ["_zonekernels.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-sweep = repro.sweep.cli:main",
            "repro-diffcheck = repro.diffcheck.cli:main",
            "repro-serve = repro.serve.cli:main",
        ],
    },
)
