"""Self-tests of the benchmark (outside the tier-1 ``testpaths`` on
purpose): run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
