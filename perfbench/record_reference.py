"""Record the theta_hat references the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the root of a checkout at the commit whose outputs are the
reference. For every program seed it makes the warm-up op of ``figure1``
and ``roundtrip`` and writes the theta_hat each reports to reference.json.
"""

import json
import os
import platform
import shutil
import tempfile

import numpy as np
import skestim
import skestim.cli

from child import run_calls
from workloads import REFERENCE_PATH, REFERENCE_SEEDS, Figure1, Roundtrip


def main():
    seeds = {}
    work = tempfile.mkdtemp(prefix="reference-", dir=os.path.dirname(REFERENCE_PATH))
    try:
        for seed in range(REFERENCE_SEEDS):
            entry = {}
            for cls, key in ((Figure1, "closed-form"), (Roundtrip, "golden")):
                workload = cls(work, seed)
                (_, errors), _, thetas = workload.verify(
                    lambda argvs: run_calls(skestim.cli.main, argvs), None)
                if errors:
                    raise SystemExit(f"{cls.name} seed {seed}: {errors}")
                entry[cls.name] = thetas[key]
            seeds[str(seed)] = entry
            print(seed, entry, flush=True)
    finally:
        shutil.rmtree(work)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"recorded_with": {"skestim": skestim.__version__,
                                     "python": platform.python_version(),
                                     "numpy": np.__version__},
                   "seeds": seeds}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
