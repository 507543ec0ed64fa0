"""Set-up probe for the library workloads, run in a fresh interpreter.

    python3 perfbench/probe.py INPUTS.npz

Imports ritzbounds, admits every matrix and basis in INPUTS.npz (arrays
h0, b0, h1, b1, ...) and prints ``ready``; the harness times the process
from its start to that line.
"""

import sys

import numpy as np

import ritzbounds


def main(path):
    with np.load(path) as data:
        count = len(data.files) // 2
        for i in range(count):
            ritzbounds.SymmetricMatrix(data[f"h{i}"])
            ritzbounds.TestSubspace(data[f"b{i}"])
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
