"""Figure tests: one module per table or figure of the paper's evaluation.

Each module recomputes one figure of §6–§7 and asserts what it claims:
answers against closed forms or the published tables, the shape of each
series, and exact counts of the work done.  Nothing here reads a clock;
seconds and memory come from ``bench/run.py``, and the tables themselves
are printed by the scripts in ``examples/``.
"""

from __future__ import annotations

import os
import sys

# The oracles the figures are checked against live with the unit tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
