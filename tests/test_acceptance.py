"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import binom

from sichash.cli import generate_keys, main
from sichash.cuckoo import (
    BucketInput,
    RattleTable,
    build_bucket,
    incremental_load_experiment,
)
from sichash.hashing import (
    MasterHash,
    class_of_many,
    class_thresholds,
    fold_hash,
    master_hash_many,
)
from sichash.phf import PhfConfig, SicHashPhf, build
from sichash.retrieval import EPSILON, RetrievalStore
from sichash.succinct import BitVector, EliasFanoSeq, GolombRiceSeq
from sichash.thresholds import ClassMix, solve_threshold
from tests.matching import matching_oracle


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_perfection_at_scale(million_keys):
    alphas = (0.8, 0.85, 0.9, 0.95, 0.97)
    details = []
    ok = True
    for alpha in alphas:
        t0 = time.perf_counter()
        phf = build(million_keys, PhfConfig(alpha=alpha, beta=2.0, bucket_size=5000))
        values = phf.evaluate_many(million_keys)
        elapsed = time.perf_counter() - t0
        perfect = (
            int(values.max()) < phf.m_total
            and len(np.unique(values)) == len(million_keys)
        )
        ok = ok and perfect and elapsed <= 60.0
        details.append(f"a={alpha}: {'ok' if perfect else 'BROKEN'} {elapsed:.1f}s")
    _report(1, ok, "perfection on 1e6 keys across load factors", "; ".join(details))


def test_criterion_02_minimal_bijectivity(keys_100k):
    phf = build(keys_100k, PhfConfig(alpha=0.95, minimal=True))
    values = np.sort(phf.evaluate_many(keys_100k))
    ok = np.array_equal(values, np.arange(len(keys_100k), dtype=values.dtype))
    _report(2, ok, "minimal mode is a bijection onto [0, n) at 1e5 keys")


def test_criterion_03_threshold_anchors():
    t0 = time.perf_counter()
    c2 = solve_threshold(ClassMix.of(1.0, 0.0)).c_star
    c4 = solve_threshold(ClassMix.of(0.0, 1.0)).c_star
    elapsed = time.perf_counter() - t0
    ok = abs(c2 - 0.500) <= 0.001 and abs(c4 - 0.9768) <= 0.0005 and elapsed < 1.0
    _report(
        3,
        ok,
        "threshold solver anchors",
        f"c*(1,0,0)={c2:.6f}, c*(0,1,0)={c4:.6f}, {elapsed:.2f}s",
    )


def test_criterion_04_binary_overload_median():
    t0 = time.perf_counter()
    loads = incremental_load_experiment(500, (1.0, 0.0, 0.0), trials=199, seed=100)
    elapsed = time.perf_counter() - t0
    median = float(np.median(loads))
    ok = 0.54 <= median <= 0.58 and elapsed < 30.0
    _report(4, ok, "binary cuckoo m=500 overload median", f"median={median:.4f}, {elapsed:.1f}s")


def test_criterion_05_config_ordering():
    configs = {
        "A": (0.0, 1.0, 0.0),
        "B": (0.1, 0.8, 0.1),
        "C": (0.33, 0.34, 0.33),
        "D": (0.5, 0.0, 0.5),
    }
    trials = 99
    loads = {
        name: incremental_load_experiment(5000, fr, trials=trials, seed=200 + i)
        for i, (name, fr) in enumerate(configs.items())
    }
    medians = {name: float(np.median(v)) for name, v in loads.items()}
    monotone = medians["A"] <= medians["B"] <= medians["C"] <= medians["D"]
    diffs = loads["D"] - loads["A"]
    wins = int((diffs > 0).sum())
    ties = int((diffs == 0).sum())
    n_eff = trials - ties
    p_value = float(binom.sf(wins - 1, n_eff, 0.5))
    strict = p_value < 0.01
    detail = (
        "medians "
        + " ".join(f"{k}={medians[k]:.4f}" for k in "ABCD")
        + f"; sign test D>A: {wins}/{n_eff}, p={p_value:.2e}"
    )
    _report(5, monotone and strict, "equal-budget config ordering A<=B<=C<=D", detail)


def test_criterion_06_space_accounting(million_keys):
    # fractions (0.49, 0.22, 0.29): budget 1.80 bits/key
    config = PhfConfig(alpha=0.9768, beta=1.80, x=0.725, bucket_size=5000)
    assert config.fractions[0] == pytest.approx(0.49, abs=1e-12)
    assert config.fractions[1] == pytest.approx(0.22, abs=1e-12)
    phf = build(million_keys, config)
    values = phf.evaluate_many(million_keys)
    perfect = (
        int(values.max()) < phf.m_total
        and len(np.unique(values)) == len(million_keys)
    )

    hi, lo = master_hash_many(million_keys, config.global_seed)
    t1, t2 = class_thresholds(*config.fractions[:2])
    degrees = class_of_many(lo, t1, t2)
    n = len(million_keys)
    info = (
        int((degrees == 2).sum()) * 1
        + int((degrees == 4).sum()) * 2
        + int((degrees == 8).sum()) * 3
    ) / n
    total = phf.space_breakdown().per_object
    bound = 1.80 * (1 + EPSILON) + 0.05
    ok = perfect and abs(info - 1.80) <= 0.01 and total <= bound
    _report(
        6,
        ok,
        "space accounting at alpha=0.9768 (p1=49%, p2=22%)",
        f"info={info:.4f} b/obj, serialized={total:.4f} <= {bound:.3f}",
    )


def test_criterion_07_small_case_probability():
    # exact reference over all 81 hash outcomes, via an independent
    # enumeration of the insertion rule: success = 1 - 3*(1/3)^4 = 26/27.
    # (An often-quoted "~88%" decimal for this quantity mis-evaluates
    # that same expression; the enumeration settles it.)
    from tests.test_cuckoo import _enumerate_two_in_three_success

    exact = _enumerate_two_in_three_success()
    assert exact == pytest.approx(1 - 3 * (1 / 3) ** 4, abs=1e-12)

    t0 = time.perf_counter()
    trials = 100_000
    rng = np.random.default_rng(7777)
    words = rng.integers(0, 2**64, size=(trials, 4), dtype=np.uint64).tolist()
    wins = 0
    for row in words:
        table = RattleTable(3, seed=0)
        placed = True
        for j in range(2):
            idx = table.add_entry(fold_hash(MasterHash(row[2 * j], row[2 * j + 1])), 2)
            placed = table.insert(idx, budget=200)
            if not placed:
                break
        wins += placed
    elapsed = time.perf_counter() - t0
    rate = wins / trials
    ok = abs(rate - exact) <= 0.01 and elapsed < 5.0
    _report(
        7,
        ok,
        "two-entry three-cell seed-0 success probability",
        f"empirical={rate:.4f} vs exact={exact:.4f} (=1-3*(1/3)^4), {elapsed:.1f}s",
    )


def test_criterion_08_oracle_implication():
    rng = np.random.default_rng(888)
    t1, t2 = class_thresholds(0.25, 0.5)
    violations = 0
    for _ in range(1000):
        n = 200
        hi = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        lo = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        degrees = class_of_many(lo, t1, t2)
        inp = BucketInput(hi, lo, degrees, max(n, round(n / 0.9)))
        result = build_bucket(inp)
        feasible, _ = matching_oracle(inp, result.seed)
        violations += not feasible
    _report(
        8,
        violations == 0,
        "rattle success implies matching feasibility on 1000 buckets",
        f"violations={violations}",
    )


def test_criterion_09_codec_roundtrips():
    rng = np.random.default_rng(909)
    cases = {}

    # bit vector positions against the positions oracle
    count = 0
    for trial in range(120):
        nbits = 50_000 if trial < 2 else int(rng.integers(1, 3000))
        bits = (rng.random(nbits) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        ones = np.flatnonzero(bits)
        assert np.array_equal(bv.all_positions(), ones)
        count += len(ones)
    cases["all_positions"] = count

    # Elias-Fano: every element of every sequence decodes exactly
    count = 0
    big = np.sort(rng.integers(0, 10**7, size=10_000))
    seq = EliasFanoSeq.encode(big)
    assert np.array_equal(seq.to_array(), big.astype(np.uint64))
    for i in (0, 1, 4999, len(big) - 1):
        assert seq.access(i) == big[i]
    count += len(big)
    n, u = len(big), int(big[-1])
    # the payload is the blob less its fixed 592-bit header
    payload_bits = 8 * len(seq.to_bytes()) - 592
    space_ok = payload_bits <= 2 * n + n * int(np.ceil(np.log2(u / n))) + 192
    for _ in range(60):
        vals = np.sort(rng.integers(0, 2**40, size=int(rng.integers(0, 300))))
        s = EliasFanoSeq.encode(vals)
        assert np.array_equal(s.to_array(), vals.astype(np.uint64))
        count += len(vals)
    cases["elias_fano"] = count

    # Golomb-Rice
    count = 0
    geo = (rng.geometric(0.4, size=10_000) - 1).astype(np.uint64)
    gseq = GolombRiceSeq.encode(geo, 1)
    assert np.array_equal(gseq.to_array(), geo)
    count += len(geo)
    for _ in range(60):
        vals = rng.integers(0, 5000, size=int(rng.integers(0, 300)))
        k = int(rng.integers(0, 10))
        s = GolombRiceSeq.encode(vals, k)
        assert np.array_equal(s.to_array(), vals.astype(np.uint64))
        count += len(vals)
    cases["golomb_rice"] = count

    # retrieval query-back across all widths, plus reload
    count = 0
    for r in (1, 2, 3):
        m = 4000
        hi = rng.integers(0, 2**64, size=m, dtype=np.uint64)
        lo = rng.integers(0, 2**64, size=m, dtype=np.uint64)
        vals = rng.integers(0, 2**r, size=m, dtype=np.uint64)
        store = RetrievalStore.build((hi, lo), vals, r=r)
        assert np.array_equal(store.query_many(hi, lo).astype(np.uint64), vals)
        reloaded = RetrievalStore.from_bytes(store.to_bytes())
        assert np.array_equal(reloaded.query_many(hi, lo).astype(np.uint64), vals)
        count += 2 * m
    cases["retrieval"] = count

    # full-function serialize/deserialize
    count = 0
    keys = generate_keys(12_000, seed=909)
    for minimal in (False, True):
        phf = build(keys, PhfConfig(alpha=0.92, minimal=minimal, global_seed=3))
        restored = SicHashPhf.from_bytes(phf.to_bytes())
        assert np.array_equal(restored.evaluate_many(keys), phf.evaluate_many(keys))
        count += len(keys)
    cases["phf_serde"] = count

    ok = space_ok and all(v >= 10_000 for v in cases.values())
    detail = ", ".join(f"{k}={v}" for k, v in cases.items()) + f", ef_space_ok={space_ok}"
    _report(9, ok, "codec roundtrips at 1e4+ cases each", detail)


def test_criterion_10_bench_informational(tmp_path, capsys):
    keys_path = tmp_path / "keys.txt"
    phf_path = tmp_path / "f.phf"
    assert main(["keygen", "--count", "5000", "--seed", "10", "--out", str(keys_path)]) == 0
    assert main(["build", "--keys", str(keys_path), "--alpha", "0.9", "--out", str(phf_path)]) == 0
    capsys.readouterr()
    rc = main(["bench", "--phf", str(phf_path), "--keys", str(keys_path), "--reps", "2"])
    report = json.loads(capsys.readouterr().out)
    ok = rc == 0 and report["mqueries_per_second"] > 0
    with capsys.disabled():
        _report(
            10,
            ok,
            "throughput reporting is informational, not gated",
            f"{report['mqueries_per_second']} MQueries/s on this machine",
        )
