"""Set-up probe: import numpy and lbmf, then read, parse and validate configs.

    python3 perfbench/setup_probe.py CONFIG...   (with src/ on PYTHONPATH)

Prints ``ready <seconds spent in model.parse_config>`` when done. The caller
times the probe from process start to that line, which is the set-up a user
of the package pays before any work.
"""

import sys
from time import perf_counter

import numpy  # noqa: F401  (part of the measured set-up)

import lbmf  # noqa: F401
from lbmf.model import parse_config

parse_s = 0.0
for path in sys.argv[1:]:
    with open(path) as fh:
        text = fh.read()
    t0 = perf_counter()
    parse_config(text)
    parse_s += perf_counter() - t0
print("ready", repr(parse_s), flush=True)
