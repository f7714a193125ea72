"""Put `src` on PYTHONPATH, so that child processes the tests start (the CLI
run as a subprocess) import the package from this checkout."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
