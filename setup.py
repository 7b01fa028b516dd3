"""Minimal setuptools shim.

The repository has no ``pyproject.toml`` or ``setup.cfg``; the package is
used from the source tree (``PYTHONPATH=src python -m repro``).  This file
only gives ``pip install -e .`` something to run on offline machines whose
setuptools predates bundled ``bdist_wheel`` support (no ``wheel`` package
available).
"""

from setuptools import setup

setup()
