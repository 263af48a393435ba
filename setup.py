"""Packaging for the independent-connection traffic-matrix reproduction.

Metadata is declared here (rather than in a ``pyproject.toml``) so that
offline environments without the ``wheel`` package can still perform an
editable install via ``pip install -e . --no-build-isolation`` (which falls
back to the legacy ``setup.py develop`` path) or ``python setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ic-tm",
    version="1.1.0",
    description=(
        "Reproduction of 'An Independent-Connection Model for Traffic Matrices' "
        "(Erramilli, Crovella, Taft; IMC 2006) with a pluggable Scenario API"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy",
        "scipy",
    ],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
