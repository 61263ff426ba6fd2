"""Packaging for ``repro``, the Layph reproduction library.

All metadata lives here.  The package sits under ``src/`` and imports numpy
at module level, so numpy is its one install requirement.  Install with
``pip install .``; where no index is reachable and numpy is already present,
``pip install --no-build-isolation --no-deps .`` builds it offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Layph: layered-graph incremental graph processing, with the "
        "incremental baselines it is evaluated against"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
