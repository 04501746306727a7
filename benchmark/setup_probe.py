"""Set-up probe: time `import bmnet` plus `load_config` in a fresh process.

    python3 benchmark/setup_probe.py CONFIG SEED

Prints one JSON line with the set-up time, where bmnet was imported from,
and the interpreter and library versions.  The timed part covers config
parsing, the topology build and the coupling-operator construction.
"""

import json
import platform
import sys
import time

start = time.perf_counter()
import bmnet  # noqa: E402
from bmnet.config import load_config  # noqa: E402

load_config(sys.argv[1], seed_override=int(sys.argv[2]))
setup_s = time.perf_counter() - start

import numpy  # noqa: E402  (already loaded by bmnet)
import scipy  # noqa: E402

print(json.dumps({
    "setup_s": setup_s,
    "bmnet_file": bmnet.__file__,
    "versions": {"python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
}))
