#!/usr/bin/env python3
"""Construction-throughput versus space sweep: build a function per
(alpha, x) grid point over random keys and report bits per object,
build throughput, and query throughput.

Usage: python scripts/space_vs_time.py [--n 200000] [--bucket-size 5000]
"""

import argparse
import sys
import time

from sichash.cli import generate_keys
from sichash.phf import PhfConfig, build


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--bucket-size", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    keys = generate_keys(args.n, seed=args.seed)
    sample = keys[: min(args.n, 20_000)]
    print("alpha,beta,x,bits_per_object,mobjects_per_s,mqueries_per_s")
    for alpha in (0.8, 0.85, 0.9, 0.95, 0.97):
        for x in (0.0, 0.5, 1.0):
            config = PhfConfig(
                alpha=alpha, beta=2.0, x=x,
                bucket_size=args.bucket_size, global_seed=args.seed,
            )
            t0 = time.perf_counter()
            phf = build(keys, config)
            build_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for key in sample:
                phf.evaluate(key)
            query_s = time.perf_counter() - t0
            print(
                f"{alpha},{config.beta},{x},{phf.space_breakdown().per_object:.4f},"
                f"{args.n / build_s / 1e6:.3f},{len(sample) / query_s / 1e6:.3f}"
            )
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
