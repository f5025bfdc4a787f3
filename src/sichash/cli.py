"""Command-line interface.

Subcommands: ``keygen`` (random test keys), ``build`` (construct and
serialize a function, printing a JSON run report with the build's stage
times and seed retries), ``verify`` (exhaustive injectivity check of a
blob against a key file), ``bench`` (single-threaded scalar and batch
query timings, with their spread over repetitions),
``overload`` (incremental cuckoo load experiment, CSV to stdout,
quartile summary to stderr), and ``thresholds`` (load-threshold solver,
CSV).

Key files are newline-delimited; keys may contain any byte except
newline and must be non-empty.  All commands are deterministic given
their seed arguments (timing fields aside).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import phf as phf_mod
from .cuckoo import DEFAULT_INSERT_BUDGET, DEFAULT_MAX_BUCKET_SEEDS
from .cuckoo import incremental_load_experiment, summarize_loads
from .errors import SicHashError
from .hashing import hash_backend
from .phf import PhfConfig, SicHashPhf, injectivity_failure
from .thresholds import ClassMix, solve_threshold

#: class fractions of the named overload configurations (p1/p2/p3 as
#: percentages of keys with 2/4/8 candidate cells)
OVERLOAD_CONFIGS = {
    "A": (0.0, 1.0, 0.0),
    "B": (0.1, 0.8, 0.1),
    "C": (0.33, 0.34, 0.33),
    "D": (0.5, 0.0, 0.5),
    "binary": (1.0, 0.0, 0.0),
}


def generate_keys(count: int, seed: int) -> list[bytes]:
    """Distinct random keys: lengths uniform in [10, 50], bytes uniform
    over 1..255 excluding newline."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    alphabet = np.array([b for b in range(1, 256) if b != 0x0A], dtype=np.uint8)
    out: list[bytes] = []
    seen: set[bytes] = set()
    while len(out) < count:
        need = count - len(out)
        lengths = rng.integers(10, 51, size=need)
        symbols = alphabet[rng.integers(0, len(alphabet), size=int(lengths.sum()))]
        data = symbols.tobytes()
        ends = np.cumsum(lengths)
        starts = ends - lengths
        for a, z in zip(starts, ends):
            key = data[int(a) : int(z)]
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def read_keys(path: str) -> list[bytes]:
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if any(len(k) == 0 for k in lines):
        raise ValueError(f"{path}: empty key lines are not supported")
    return lines


def _config_from_args(args: argparse.Namespace) -> PhfConfig:
    return PhfConfig(
        alpha=args.alpha,
        beta=args.beta,
        x=args.x,
        bucket_size=args.bucket_size,
        global_seed=args.seed,
        minimal=args.minimal,
        compressed_metadata=args.compressed_meta,
    )


def cmd_keygen(args: argparse.Namespace) -> int:
    keys = generate_keys(args.count, args.seed)
    with open(args.out, "wb") as fh:
        fh.write(b"\n".join(keys) + b"\n")
    print(f"wrote {len(keys)} keys to {args.out}")
    return 0


def _time_queries(phf: SicHashPhf, keys: list[bytes], reps: int, seed: int) -> list[float]:
    """Seconds of each of ``reps`` passes of scalar ``evaluate`` over every
    key, in one seeded shuffled order."""
    idx = list(range(len(keys)))
    random.Random(seed).shuffle(idx)
    evaluate = phf.evaluate
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in idx:
            evaluate(keys[i])
        times.append(time.perf_counter() - t0)
    return times


def _time_batches(phf: SicHashPhf, keys: list[bytes], reps: int) -> list[float]:
    """Seconds of each of ``reps`` ``evaluate_many`` calls over every key."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        phf.evaluate_many(keys)
        times.append(time.perf_counter() - t0)
    return times


def _ns_per_key(times: list[float], count: int) -> dict:
    """Min, median and max over repetitions, in nanoseconds per key."""
    ns = sorted(t / count * 1e9 for t in times)
    return {"min": round(ns[0], 1), "median": round(float(np.median(ns)), 1),
            "max": round(ns[-1], 1)}


def cmd_build(args: argparse.Namespace) -> int:
    keys = read_keys(args.keys)
    config = _config_from_args(args)
    t0 = time.perf_counter()
    phf = phf_mod.build(keys, config, max_bucket_seeds=args.max_bucket_seeds)
    build_seconds = time.perf_counter() - t0

    blob = phf.to_bytes()
    Path(args.out).write_bytes(blob)
    sample = keys[:20000]
    seconds = _time_queries(phf, sample, reps=1, seed=0)[0]
    space = phf.space_breakdown()

    report = {
        "n": phf.n,
        "m": phf.m_total,
        "alpha": config.alpha,
        "beta": config.beta,
        "x": config.x,
        "bucket_size": config.bucket_size,
        "minimal": config.minimal,
        "build_seconds": round(build_seconds, 6),
        "queries_per_second": round(len(sample) / seconds if seconds > 0 else 0.0, 1),
        "bits_per_object": space.per_object,
        "breakdown": space.as_dict(),
        # the build checked its function and raised had it not been perfect
        "verified": True,
        "stages": {k: round(v, 6) for k, v in phf.build_stats.stages.items()},
        "retries": phf.build_stats.retries(),
        "workers": phf.build_stats.workers,
        "hash_backend": hash_backend(),
    }
    print(json.dumps(report))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    phf = SicHashPhf.from_bytes(Path(args.phf).read_bytes())
    keys = read_keys(args.keys)
    if not keys:
        raise ValueError(f"{args.keys}: no keys")
    failure = injectivity_failure(phf.evaluate_many(keys), phf.output_range)
    if failure:
        print(f"FAIL: {failure}")
        return 1
    print(f"PASS: {len(keys)} keys, {phf.output_range} values, injective")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    phf = SicHashPhf.from_bytes(Path(args.phf).read_bytes())
    keys = read_keys(args.keys)
    if not keys:
        raise ValueError(f"{args.keys}: no keys")
    scalar = _time_queries(phf, keys, args.reps, seed=1)
    batch = _time_batches(phf, keys, args.reps)
    total, dt = args.reps * len(keys), sum(scalar)
    print(
        json.dumps(
            {
                "queries": total,
                "seconds": round(dt, 6),
                "mqueries_per_second": round(total / dt / 1e6, 4) if dt else 0.0,
                "scalar_ns_per_key": _ns_per_key(scalar, len(keys)),
                "batch_ns_per_key": _ns_per_key(batch, len(keys)),
                "hash_backend": hash_backend(),
            }
        )
    )
    return 0


def cmd_overload(args: argparse.Namespace) -> int:
    fractions = OVERLOAD_CONFIGS[args.config]
    loads = incremental_load_experiment(
        args.m, fractions, args.trials, seed=args.seed, insert_budget=args.insert_budget
    )
    print("trial,achieved_load")
    for t, load in enumerate(loads):
        print(f"{t},{load:.6f}")
    s = summarize_loads(loads)
    print(
        "summary min={min:.4f} q1={q1:.4f} median={median:.4f} "
        "q3={q3:.4f} max={max:.4f}".format(**s),
        file=sys.stderr,
    )
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    mix = ClassMix.of(args.p1, args.p2)
    sol = solve_threshold(mix)
    lam = "" if sol.lam_star is None else f"{sol.lam_star:.9f}"
    print("p1,p2,p3,d_bar,lambda_star,c_star")
    print(f"{mix.p1},{mix.p2},{mix.p3:.12g},{mix.d_bar:.12g},{lam},{sol.c_star:.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sichash", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("keygen", help="generate random distinct keys")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_keygen)

    b = sub.add_parser("build", help="build a perfect hash function")
    b.add_argument("--keys", required=True)
    b.add_argument("--alpha", type=float, required=True)
    b.add_argument("--beta", type=float, default=PhfConfig.beta)
    b.add_argument("--x", type=float, default=PhfConfig.x)
    b.add_argument("--bucket-size", type=int, default=PhfConfig.bucket_size)
    b.add_argument("--minimal", action="store_true")
    b.add_argument("--compressed-meta", action="store_true")
    b.add_argument("--seed", type=int, default=PhfConfig.global_seed)
    b.add_argument("--max-bucket-seeds", type=int, default=DEFAULT_MAX_BUCKET_SEEDS)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="exhaustively verify a built function")
    v.add_argument("--phf", required=True)
    v.add_argument("--keys", required=True)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("bench", help="measure query throughput")
    e.add_argument("--phf", required=True)
    e.add_argument("--keys", required=True)
    e.add_argument("--reps", type=int, default=1)
    e.set_defaults(func=cmd_bench)

    o = sub.add_parser("overload", help="incremental cuckoo load experiment")
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--config", choices=sorted(OVERLOAD_CONFIGS), required=True)
    o.add_argument("--trials", type=int, required=True)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--insert-budget", type=int, default=DEFAULT_INSERT_BUDGET)
    o.set_defaults(func=cmd_overload)

    t = sub.add_parser("thresholds", help="load-threshold solver")
    t.add_argument("--p1", type=float, required=True)
    t.add_argument("--p2", type=float, required=True)
    t.set_defaults(func=cmd_thresholds)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SicHashError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
