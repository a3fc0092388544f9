"""Let the CLI subprocesses that tests start import corgw from src.

pyproject.toml puts src on the import path of the pytest process itself;
child processes read PYTHONPATH instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
