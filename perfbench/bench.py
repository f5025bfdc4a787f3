"""Benchmark harness: runs one workload in this process and reports it.

A run builds a function over generated keys, serializes and reloads it,
times set-up, scalar and batch queries, and runs the incremental
overload experiment.  Every output is checked; every check is one
counted operation, and a failed one makes the run exit non-zero.

Repeatable stages run again until ``--seconds`` have passed, so a run
does a fixed kind of work for a fixed time; timings are reported as
medians and percentiles over everything measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import sichash
from sichash import cuckoo, phf
from sichash.cli import OVERLOAD_CONFIGS, generate_keys
from speed import SpeedSampler

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: table size and class mix of the incremental overload experiment
OVERLOAD_M = 5000
OVERLOAD_CONFIG = "C"
#: keys per evaluate_many call in the batch measurement
CHUNK = 10_000
#: keys whose single queries are timed; p99 then has 200 keys beyond it
SCALAR_SAMPLE = 20_000
#: queries timed with host-speed sampling paused
SCALAR_BLOCK = 5_000
#: passes per round over the scalar sample and over the batch chunks;
#: each key's and chunk's median timing counts
SCALAR_PASSES = 3
BATCH_PASSES = 2
#: keys in the one evaluate_many call that ends a set-up
SETUP_BATCH = 1_000
#: set-ups per round, reported as their median
SETUP_REPS = 21
#: block sizes of the stages that fill the rest of a run
FILL_SETUPS = 5
FILL_CHUNKS = 30
FILL_QUERIES = 15_000


@dataclasses.dataclass(frozen=True)
class Workload:
    keys: int
    config: dict
    overload_trials: int


# Why each workload exists is in BENCHMARK.json.  The build workloads
# also run a short overload experiment, and the overload workload a
# 100k-key build with config C's class mix, so that every workload
# reports every end-to-end metric.
WORKLOADS = {
    "plain-1m-a90": Workload(
        keys=1_000_000,
        config=dict(alpha=0.90, beta=2.0, x=0.5, bucket_size=5000),
        overload_trials=30,
    ),
    "minimal-1m-a97": Workload(
        keys=1_000_000,
        config=dict(alpha=0.97, beta=2.0, x=0.5, bucket_size=5000,
                    minimal=True, compressed_metadata=True),
        overload_trials=30,
    ),
    "overload-c-m5000": Workload(
        keys=100_000,
        config=dict(alpha=0.90, beta=2.0, x=0.66, bucket_size=5000),
        overload_trials=50,
    ),
}

TINY_KEYS = 3000

_perf = time.perf_counter


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def per_item_median(items: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The median of the values recorded for each distinct item."""
    order = np.lexsort((values, items))
    items, values = items[order], values[order]
    bounds = np.flatnonzero(np.diff(items)) + 1
    return np.array([np.median(v) for v in np.split(values, bounds)])


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


class Run:
    """State and results of one workload run."""

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        w = WORKLOADS[name]
        self.n = TINY_KEYS if tiny else w.keys
        self.trials = 2 if tiny else w.overload_trials
        self.setup_reps = 3 if tiny else SETUP_REPS
        self.config = phf.PhfConfig(global_seed=seed, **w.config)
        self.attempted = 0
        self.failed = 0
        # timed intervals per stage: (start_ns, end_ns, raw_ns, work units,
        # item such as a chunk's offset)
        self.events: dict[str, list[tuple[int, int, int, float]]] = defaultdict(list)
        # scalar timings per block: sample indices, start and duration ns
        self.query_blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.speed = SpeedSampler()
        self.fingerprints: dict[str, str] = {}
        self.tracer = None
        t0 = _perf()
        self.keys = generate_keys(self.n, seed)
        self.keygen_s = _perf() - t0
        rng = np.random.default_rng(seed)
        self.sample = rng.choice(self.n, size=min(SCALAR_SAMPLE, self.n), replace=False)
        self.fn = self.loaded = self.values = self.blob = self.loads = None
        self.batch_pos = self.scalar_pos = 0

    # -- bookkeeping -------------------------------------------------------

    def check(self, what: str, ok, count: int = 1, bad: int | None = None) -> bool:
        """Count ``count`` operations, ``bad`` of them failed (all if not ok)."""
        self.attempted += count
        if bad is None:
            bad = 0 if ok else count
        if bad:
            self.failed += bad
            print(f"# FAIL {self.name}: {what} ({bad} of {count})", file=sys.stderr)
        return not bad

    def guarded(self, what: str, fn):
        """Run ``fn``; None if it raised, which the caller counts as failed."""
        try:
            return fn()
        except Exception:  # a raised error is a counted failure, not a crash
            traceback.print_exc()
            print(f"# FAIL {self.name}: {what} raised", file=sys.stderr)
            return None

    def record(self, stage: str, mark, end, work: float = 1.0, item: int = 0) -> None:
        """Keep the interval between two marks, sampling time excluded."""
        (t0, h0), (t1, h1) = mark, end
        self.events[stage].append((t0, t1, t1 - t0 - (h1 - h0), work, item))

    def stage(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def fingerprint(self, key: str, data: bytes) -> None:
        digest = _sha(data)
        old = self.fingerprints.setdefault(key, digest)
        self.check(f"{key} fingerprint changed between repeats", old == digest)

    # -- stages ------------------------------------------------------------

    def build(self) -> bool:
        with self.stage("stage.build"):
            mark = self.speed.start()
            fn = self.guarded("build", lambda: phf.build(self.keys, self.config))
            end = self.speed.start()
        if not self.check("build", fn is not None):
            return False
        self.record("build", mark, end, self.n)
        with self.stage("stage.serialize"):
            blob = fn.to_bytes()
        self.fingerprint("blob", blob)
        with self.stage("stage.verify"):
            values = fn.evaluate_many(self.keys)
        self.fingerprint("values", values.astype("<u8").tobytes())
        out_range = fn.output_range
        distinct = np.unique(values).size == self.n
        in_range = len(values) == self.n and int(values.max()) < out_range
        self.check("values distinct and below output_range", distinct and in_range)
        if self.config.minimal:
            self.check("minimal range is [0, n)", out_range == self.n)
        self.fn, self.blob, self.values = fn, blob, values
        self.loaded = self.guarded("load", lambda: phf.SicHashPhf.from_bytes(blob))
        if not self.check("load", self.loaded is not None):
            return False
        self.check("reload re-serializes identically", self.loaded.to_bytes() == blob)
        return True

    def setup(self, reps: int) -> None:
        """Blob bytes to first answers: load, one evaluate, one evaluate_many."""
        keys, sample, blob = self.keys, self.sample, self.blob
        first = keys[int(sample[0])]
        batch = [keys[int(i)] for i in sample[:SETUP_BATCH]]
        want_one = int(self.values[sample[0]])
        want_batch = self.values[sample[:SETUP_BATCH]]

        def once():
            mark = self.speed.start()
            f = phf.SicHashPhf.from_bytes(blob)
            one = f.evaluate(first)
            many = f.evaluate_many(batch)
            return mark, self.speed.start(), one == want_one and np.array_equal(many, want_batch)

        with self.stage("stage.setup"):
            for _ in range(reps):
                got = self.guarded("set-up", once)
                if self.check("set-up answers", got is not None and got[2]):
                    self.record("setup", got[0], got[1])

    def batch(self, chunks: int) -> None:
        """``evaluate_many`` on the next ``chunks`` chunks of the key set."""
        f, keys, values = self.loaded, self.keys, self.values
        bad = 0
        with self.stage("stage.batch"):
            for _ in range(chunks):
                a = self.batch_pos
                self.batch_pos = 0 if a + CHUNK >= self.n else a + CHUNK
                chunk = keys[a : a + CHUNK]
                mark = self.speed.start()
                got = self.guarded("evaluate_many", lambda: f.evaluate_many(chunk))
                end = self.speed.start()
                if got is None:
                    bad += 1
                elif np.array_equal(got, values[a : a + CHUNK]):
                    self.record("batch", mark, end, len(chunk), item=a)
                else:
                    bad += 1
        self.check("reloaded evaluate_many equals build-time values", True, chunks, bad)

    def scalar(self, count: int) -> None:
        """Time single ``evaluate`` calls on the next ``count`` sample keys,
        in blocks of ``SCALAR_BLOCK`` with host-speed sampling paused."""
        for _ in range(-(-count // SCALAR_BLOCK)):
            a = self.scalar_pos
            self.scalar_pos = 0 if a + SCALAR_BLOCK >= len(self.sample) else a + SCALAR_BLOCK
            self.scalar_block(self.sample[a : a + SCALAR_BLOCK])

    def scalar_block(self, idx: np.ndarray) -> None:
        f, keys = self.loaded, self.keys
        block = idx.tolist()
        now = time.perf_counter_ns
        starts, times, got = [], [], []

        def timed_block():
            evaluate = f.evaluate
            for i in block:
                key = keys[i]
                t0 = now()
                v = evaluate(key)
                t1 = now()
                starts.append(t0)
                times.append(t1 - t0)
                got.append(v)
            return True

        with self.stage("stage.scalar"), self.speed.paused():
            ran = self.guarded("evaluate", timed_block)
        if not ran:
            self.check("evaluate", False, len(block))
            return
        bad = int(np.count_nonzero(np.array(got, dtype=np.uint64) != self.values[idx]))
        if self.check("evaluate equals evaluate_many", True, len(block), bad):
            self.query_blocks.append((idx, np.array(starts), np.array(times, dtype=np.float64)))

    def overload(self) -> None:
        m, trials = OVERLOAD_M, self.trials
        fractions = OVERLOAD_CONFIGS[OVERLOAD_CONFIG]
        with self.stage("stage.overload"):
            mark = self.speed.start()
            loads = self.guarded(
                "overload",
                lambda: cuckoo.incremental_load_experiment(m, fractions, trials, seed=self.seed),
            )
            end = self.speed.start()
        if loads is None:
            self.check("overload", False, trials)
            return
        bad = int(np.count_nonzero((loads <= 0) | (loads > 1)))
        if self.loads is not None:
            bad = max(bad, int(np.count_nonzero(loads != self.loads)))
        if self.check("overload loads in (0, 1] and repeatable", True, trials, bad):
            self.loads = loads
            self.fingerprints.setdefault("loads", _sha(loads.astype("<f8").tobytes()))
            self.record("overload", mark, end, float(np.round(loads * m).sum()))

    def one_round(self) -> bool:
        """Build, then every query stage once over the whole key set."""
        if not self.build():
            return False
        self.batch_pos = self.scalar_pos = 0
        self.setup(self.setup_reps)
        self.batch(BATCH_PASSES * -(-self.n // CHUNK))
        self.scalar(SCALAR_PASSES * len(self.sample))
        self.overload()
        return True

    # -- measurement loops -------------------------------------------------

    def measure(self) -> None:
        """Whole rounds while another fits, then short blocks of the query
        stages in turn until time is up, so that their samples spread over
        the run and a slow spell of the host touches few of them."""
        deadline = _perf() + self.seconds
        while True:
            t0 = _perf()
            if not self.one_round():
                return
            if _perf() + (_perf() - t0) > deadline:
                break
        while _perf() < deadline:
            self.setup(FILL_SETUPS)
            self.batch(FILL_CHUNKS)
            self.scalar(FILL_QUERIES)
            self.overload()

    def traced(self) -> dict:
        """One untraced and one traced round over the same keys.

        Host speed is sampled through both rounds, so that their
        difference, the tracing overhead, is not the host's drift; the
        per-layer times then include the sampling, about 2.5%."""
        from tracing import Tracer, instrument, layer_metrics

        with self.speed:
            mark = self.speed.start()
            if not self.one_round():
                return {}
            self.record("round", mark, self.speed.start())
            plain_prints = dict(self.fingerprints)
            self.fingerprints.clear()
            self.loads = None
            self.tracer = Tracer(f"{self.name}-seed{self.seed}")
            with instrument(self.tracer):
                mark = self.speed.start()
                with self.tracer.span("round", workload=self.name, seed=self.seed):
                    ok = self.one_round()
                self.record("round", mark, self.speed.start())
        self.check("traced fingerprints equal untraced ones",
                   ok and self.fingerprints == plain_prints)
        plain_s, traced_s = self.per_work("round", normalized=True)
        metrics = layer_metrics(self.tracer, self.fn)
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
        spans_path = RESULTS_DIR / f"{self.name}-seed{self.seed}.spans.json"
        spans_path.write_text(json.dumps(self.tracer.spans))
        return metrics

    def per_work(self, stage: str, normalized: bool) -> list[float]:
        """Seconds per work unit of each recorded interval of a stage."""
        scale = self.speed.scale if normalized else (lambda t0, t1: 1.0)
        return [raw * scale(t0, t1) / 1e9 / work for t0, t1, raw, work, _ in self.events[stage]]

    def end_to_end(self, normalized: bool = True) -> dict:
        med, pct = np.median, np.percentile
        out = {}
        if self.events["build"]:
            out["build_keys_per_s"] = (1 / med(self.per_work("build", normalized)), "keys/s")
        # Percentiles are over keys (or chunks), of each one's median
        # timing: they then describe the keys, such as the remapped ones in
        # minimal mode, and not how often the host interrupted a call.
        if self.query_blocks:
            idx, t, q = (np.concatenate(a) for a in zip(*self.query_blocks))
            q = per_item_median(idx, q * self.speed.scales_at(t) if normalized else q)
            out["query_ns_p50"] = (pct(q, 50), "ns")
            out["query_ns_p99"] = (pct(q, 99), "ns")
        if self.events["batch"]:
            chunks = np.array([e[4] for e in self.events["batch"]])
            b = per_item_median(chunks, np.array(self.per_work("batch", normalized)) * 1e9)
            out["batch_ns_per_key_p50"] = (pct(b, 50), "ns/key")
            out["batch_ns_per_key_p90"] = (pct(b, 90), "ns/key")
        if self.blob is not None:
            out["bits_per_key"] = (len(self.blob) * 8 / self.n, "bits/key")
        if self.events["setup"]:
            out["setup_s"] = (med(self.per_work("setup", normalized)), "s")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        if self.events["overload"]:
            out["overload_inserts_per_s"] = (
                1 / med(self.per_work("overload", normalized)), "inserts/s")
        return {k: (float(v), u) for k, (v, u) in out.items()}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    RESULTS_DIR.mkdir(exist_ok=True)
    r = Run(name, seed, seconds, tiny)
    start = _perf()
    raw = {}
    if trace:
        metrics = r.traced()
    else:
        with r.speed:
            r.measure()
        metrics = r.end_to_end()
        raw = r.end_to_end(normalized=False)
    wall = _perf() - start
    failed_share = r.failed / max(r.attempted, 1)
    settings = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "keys": r.n,
        "config": dataclasses.asdict(r.config),
        "overload": {"m": OVERLOAD_M, "config": OVERLOAD_CONFIG, "trials": r.trials},
        "chunk": CHUNK,
        "scalar_sample": len(r.sample),
        "setup_batch": SETUP_BATCH,
        "sichash": sichash.__file__,
    }
    counts = {k: len(v) for k, v in r.events.items()}
    counts["query"] = sum(len(q) for _, _, q in r.query_blocks)
    counts["speed"] = len(r.speed.costs)
    kernel = float(np.median(r.speed.costs)) if r.speed.costs else None
    machine = machine_info()
    print(f"# machine {json.dumps(machine)}")
    print(f"# settings {json.dumps(settings)}")
    print(f"# samples {json.dumps(counts)} keygen_s={r.keygen_s:.3f} wall_s={wall:.3f} "
          f"speed_kernel_ns_median={kernel}")
    print(f"# fingerprints {json.dumps(r.fingerprints)}")
    for key, (value, unit) in metrics.items():
        extra = f" (raw {raw[key][0]:.6g})" if key in raw else ""
        print(f"{name} {key} {value:.6g} {unit}{extra}")
    print(f"{name} failed_share {failed_share:.6g} ratio ({r.failed} of {r.attempted})")
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, failed_share=failed_share, machine=machine, settings=settings,
                  samples=counts, fingerprints=r.fingerprints, wall_s=wall,
                  raw_metrics=raw, speed_kernel_ns_median=kernel)
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if r.failed == 0 else 1
