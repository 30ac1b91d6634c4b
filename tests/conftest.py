"""Test-session setup shared by every module.

``pythonpath = ["src"]`` in ``pyproject.toml`` reaches only pytest's own
process.  Tests that start ``python -m linoptlearn`` need the checkout's
``src`` on ``PYTHONPATH`` too, so it is put first there for child processes.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
