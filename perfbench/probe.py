"""Set-up probe: import ecaliquot.cli and build one workload's inputs.

Run in a fresh interpreter by run.py, which times the whole process:
``python3 perfbench/probe.py <workload> <seed> [--smoke]``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ecaliquot.cli  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make(int(sys.argv[2]), "--smoke" in sys.argv, HERE / "out")
