"""Puts ``tests/`` on the import path, so the fuzz tests draw from the same
strategies as the tier-1 suite (``tests/support.py``)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
