"""Setup shim for environments without the `wheel` package.

The canonical metadata lives in pyproject.toml; this file only enables
legacy editable installs (`pip install -e . --no-use-pep517`) on offline
machines whose setuptools cannot build PEP-660 editable wheels.
"""

from setuptools import setup

setup()
