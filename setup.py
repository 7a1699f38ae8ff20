"""Legacy setup shim for offline editable installs (`pip install -e .`).

All metadata lives in setup.cfg; this file exists because the target
environment lacks the `wheel` package required by PEP 517 editable builds.
"""

from setuptools import setup

setup()
