"""Cold start of one workload, run in a fresh interpreter by run.py.

Imports weibayes from src/ of the checkout, runs the workload's first unit
of work (one replication, one small ladder row or one request), and prints
the time the import took as JSON.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys
import time
import warnings

start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import weibayes.cli  # noqa: E402  (the command-line entry point imports every module)

import_s = time.perf_counter() - start

import workloads  # noqa: E402

warnings.simplefilter("ignore")
workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), workloads.PROFILES["full"])
workload.first_unit().call()
print(json.dumps({"import_s": import_s}))
