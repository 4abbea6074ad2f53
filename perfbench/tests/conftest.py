"""Makes the benchmark's modules importable as top-level names, as they
are when `perfbench/run.py` runs as a script."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
