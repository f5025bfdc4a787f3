#!/usr/bin/env python3
"""SicHash benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload plain-1m-a90 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process, with BLAS/OpenMP pinned to one
thread; ``all`` runs each workload in a fresh process, one after the
other.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is the JSON result;
the lines before it give every metric by name and unit, the machine,
the settings and output fingerprints.  Results and trace spans are also
written to ``perfbench/results/``.

The package is imported from ``src/`` of the checkout this file lives
in; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Kept here, not taken from bench.WORKLOADS, because bench imports numpy,
# which must not load before the thread pins are set.
WORKLOAD_NAMES = ("plain-1m-a90", "minimal-1m-a97", "overload-c-m5000")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="few keys and trials, for a quick check of the output")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "sichash" / "__init__.py").is_file():
        print(f"error: no sichash package under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads, so its BLAS/OpenMP pools start with one thread
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sichash

    if not Path(sichash.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: sichash imported from {sichash.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
