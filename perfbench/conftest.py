"""Test configuration: the benchmark's modules and the engine sources on
the import path (``python -m pytest perfbench`` from the repo root)."""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE.parent / "src"), str(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)
