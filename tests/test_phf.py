import dataclasses
import functools
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sichash.cli import generate_keys
from sichash.cuckoo import BucketInput, build_bucket
from sichash.errors import ConstructionError, DeserializationError
from sichash.hashing import class_of_many, class_thresholds
from sichash.phf import (
    BucketMetaArray,
    PhfConfig,
    SicHashPhf,
    build,
    build_from_hashes,
    class_fractions,
    minimize,
)
from sichash.succinct import EliasFanoSeq
from sichash.thresholds import ClassMix, solve_threshold


@pytest.fixture(scope="module")
def keys_20k():
    return generate_keys(20_000, seed=99)


@pytest.fixture(scope="module")
def phf_20k(keys_20k):
    return build(keys_20k, PhfConfig(alpha=0.9, beta=2.0, x=0.5, global_seed=5))


class TestClassFractions:
    def test_budget_identity_on_grid(self):
        betas = np.linspace(1.0, 3.0, 101)
        xs = np.linspace(0.0, 1.0, 101)
        for beta in betas:
            for x in xs:
                p1, p2, p3 = class_fractions(float(beta), float(x))
                assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0 and 0.0 <= p3 <= 1.0
                assert p1 + p2 + p3 == pytest.approx(1.0, abs=1e-9)
                assert p1 + 2 * p2 + 3 * p3 == pytest.approx(beta, abs=1e-9)

    @given(st.floats(1.0, 3.0), st.floats(0.0, 1.0))
    def test_budget_identity_property(self, beta, x):
        p1, p2, p3 = class_fractions(beta, x)
        assert p1 + 2 * p2 + 3 * p3 == pytest.approx(beta, abs=1e-9)

    def test_extremes(self):
        assert class_fractions(1.0, 0.0) == pytest.approx((1.0, 0.0, 0.0))
        assert class_fractions(3.0, 1.0) == pytest.approx((0.0, 0.0, 1.0))
        assert class_fractions(2.0, 0.0) == pytest.approx((0.0, 1.0, 0.0))
        assert class_fractions(2.0, 1.0) == pytest.approx((0.5, 0.0, 0.5))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            class_fractions(0.9, 0.5)
        with pytest.raises(ValueError):
            class_fractions(3.1, 0.5)
        with pytest.raises(ValueError):
            class_fractions(2.0, 1.5)


class TestPhfConfig:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            PhfConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PhfConfig(alpha=1.2)

    def test_fraction_properties(self):
        cfg = PhfConfig(alpha=0.9, beta=1.8, x=0.725)
        assert cfg.p1 == pytest.approx(0.49)
        assert cfg.p2 == pytest.approx(0.22)
        assert cfg.p3 == pytest.approx(0.29)


class TestBuild:
    def test_single_key_alpha_one(self):
        phf = build([b"only key"], PhfConfig(alpha=1.0))
        assert phf.m_total == 1
        assert phf.evaluate(b"only key") == 0

    def test_perfect_on_construction_keys(self, keys_20k, phf_20k):
        values = phf_20k.evaluate_many(keys_20k)
        assert int(values.max()) < phf_20k.m_total
        assert len(np.unique(values)) == len(keys_20k)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            build([], PhfConfig(alpha=0.9))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate keys"):
            build([b"k1", b"k2", b"k1"], PhfConfig(alpha=0.9))

    def test_scalar_matches_batch(self, keys_20k, phf_20k):
        values = phf_20k.evaluate_many(keys_20k[:100])
        for k, v in zip(keys_20k[:100], values):
            assert phf_20k.evaluate(k) == int(v)

    def test_unseen_keys_in_range_and_deterministic(self, phf_20k):
        probe = [b"never seen %d" % i for i in range(500)]
        a = phf_20k.evaluate_many(probe)
        b = phf_20k.evaluate_many(probe)
        assert np.array_equal(a, b)
        assert int(a.max()) < phf_20k.m_total

    def test_deterministic_blob(self, keys_20k):
        cfg = PhfConfig(alpha=0.9, beta=2.0, x=0.3, global_seed=11)
        assert build(keys_20k, cfg).to_bytes() == build(keys_20k, cfg).to_bytes()

    def test_offsets_consistent(self, phf_20k):
        offs = phf_20k.meta.offsets.astype(np.int64)
        sizes = np.diff(offs)
        assert offs[0] == 0
        assert (sizes >= 0).all()
        assert offs[-1] == phf_20k.m_total

    def test_alpha_too_aggressive(self):
        keys = generate_keys(120, seed=4)
        with pytest.raises(ConstructionError, match="alpha too aggressive"):
            build(keys, PhfConfig(alpha=0.999, beta=1.0), max_bucket_seeds=32)

    @pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
    def test_non_member_in_empty_last_bucket(self, minimal):
        phf = build(
            generate_keys(6, 0), PhfConfig(alpha=0.9, bucket_size=1, minimal=minimal)
        )
        offs = phf.meta.offsets.tolist()
        assert offs[-2] == offs[-1] == phf.m_total  # the last bucket is empty
        probes = [b"probe %d" % i for i in range(2000)]
        got = [phf.evaluate(k) for k in probes]
        assert all(type(v) is int and 0 <= v < phf.output_range for v in got)
        assert got == phf.evaluate_many(probes).tolist()

    def test_global_seed_changes_function(self, keys_20k):
        a = build(keys_20k[:3000], PhfConfig(alpha=0.9, global_seed=1))
        b = build(keys_20k[:3000], PhfConfig(alpha=0.9, global_seed=2))
        assert a.to_bytes() != b.to_bytes()


_STAGES = ["hash", "partition", "cuckoo", "retrieval_r1", "retrieval_r2", "retrieval_r3"]


class TestBuildStats:
    def test_plain_build(self, phf_20k):
        stats = phf_20k.build_stats
        assert list(stats.stages) == _STAGES
        assert all(t >= 0 for t in stats.stages.values())
        seeds = phf_20k.meta.seeds
        assert stats.bucket_seeds == {
            int(k): int(v) for k, v in zip(*np.unique(seeds, return_counts=True))
        }
        assert sum(stats.bucket_seeds.values()) == phf_20k.meta.num_buckets
        assert stats.displacements > 0
        assert set(stats.stores) == {1, 2, 3}
        for store in phf_20k.stores.values():
            assert stats.stores[store.r] == {
                "seed": store.seed,
                "seed_retries": store.seed - 5,
                "epsilon": 0.10,
            }

    def test_retries_report_is_json(self, phf_20k):
        report = json.loads(json.dumps(phf_20k.build_stats.retries()))
        assert set(report) == {"displacements", "bucket_seeds", "retrieval"}
        assert set(report["retrieval"]) == {"r1", "r2", "r3"}

    def test_minimal_build_times_the_remap(self, keys_20k):
        phf = build(keys_20k[:3000], PhfConfig(alpha=0.97, minimal=True))
        assert list(phf.build_stats.stages) == _STAGES + ["remap"]

    def test_from_hashes_has_no_hash_stage(self):
        rng = np.random.default_rng(3)
        hi = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        lo = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        config = PhfConfig(alpha=0.9)
        phf = build_from_hashes(hi, lo, config)
        assert list(phf.build_stats.stages) == _STAGES[1:]
        # 3000 keys make one bucket: its placement is the whole count
        degrees = class_of_many(lo, *class_thresholds(config.p1, config.p2))
        placed = build_bucket(BucketInput(hi, lo, degrees, round(3000 / 0.9)))
        assert phf.build_stats.displacements == placed.displacements > 0

    def test_seed_retries_counted(self):
        # tiny buckets near load 1 need bucket seeds above 0
        keys = generate_keys(2000, seed=8)
        phf = build(keys, PhfConfig(alpha=1.0, beta=2.0, bucket_size=8))
        hist = phf.build_stats.bucket_seeds
        assert max(hist) > 0
        assert max(hist) == int(phf.meta.seeds.max())

    def test_not_serialized(self, phf_20k):
        assert SicHashPhf.from_bytes(phf_20k.to_bytes()).build_stats is None


class TestSerialization:
    def test_roundtrip_values(self, keys_20k, phf_20k):
        restored = SicHashPhf.from_bytes(phf_20k.to_bytes())
        assert np.array_equal(
            restored.evaluate_many(keys_20k), phf_20k.evaluate_many(keys_20k)
        )

    def test_corrupted_byte_detected(self, phf_20k):
        blob = bytearray(phf_20k.to_bytes())
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(DeserializationError, match="checksum"):
            SicHashPhf.from_bytes(bytes(blob))

    def test_truncation_detected(self, phf_20k):
        blob = phf_20k.to_bytes()
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(b"")

    def test_bad_magic(self, phf_20k):
        blob = bytearray(phf_20k.to_bytes())
        blob[0:8] = b"NOTSICPH"
        import zlib

        body = bytes(blob[:-4])
        fixed = body + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(DeserializationError, match="magic"):
            SicHashPhf.from_bytes(fixed)

    def test_container_overhead_constant(self, keys_20k):
        a = build(keys_20k[:2000], PhfConfig(alpha=0.9))
        b = build(keys_20k[:11000], PhfConfig(alpha=0.9))
        overhead_a = len(a.to_bytes()) * 8 - a.space_breakdown().total_bits
        overhead_b = len(b.to_bytes()) * 8 - b.space_breakdown().total_bits
        assert overhead_a == overhead_b

    def test_compressed_metadata_same_values(self, keys_20k):
        plain = build(keys_20k, PhfConfig(alpha=0.9, global_seed=5))
        comp = build(
            keys_20k, PhfConfig(alpha=0.9, global_seed=5, compressed_metadata=True)
        )
        assert np.array_equal(
            plain.evaluate_many(keys_20k), comp.evaluate_many(keys_20k)
        )
        restored = SicHashPhf.from_bytes(comp.to_bytes())
        assert np.array_equal(
            restored.evaluate_many(keys_20k), plain.evaluate_many(keys_20k)
        )
        assert restored.config.compressed_metadata


class TestMinimal:
    def test_alpha_one_identity(self, keys_20k):
        # exact fit: every table cell used, so minimal mode has no work.
        # beta=3 keeps the load-1.0 per-bucket searches cheap (8 choices
        # per key); degree-2-heavy mixes are hopeless at exact fit.
        keys = keys_20k[:192]
        phf = build(keys, PhfConfig(alpha=1.0, beta=3.0, x=0.0, bucket_size=48))
        raw = phf.evaluate_many(keys)
        mphf = minimize(phf, keys)
        assert mphf.m_total == len(keys)
        assert np.array_equal(mphf.evaluate_many(keys), raw)
        assert mphf.space_breakdown().remap_bits <= 1024  # empty sequence, headers only

    def test_bijectivity(self, keys_20k):
        phf = build(keys_20k, PhfConfig(alpha=0.95))
        mphf = minimize(phf, keys_20k)
        values = np.sort(mphf.evaluate_many(keys_20k))
        assert np.array_equal(values, np.arange(len(keys_20k), dtype=values.dtype))

    def test_build_flag_equivalent(self, keys_20k):
        direct = build(keys_20k, PhfConfig(alpha=0.95, minimal=True))
        values = np.sort(direct.evaluate_many(keys_20k))
        assert np.array_equal(values, np.arange(len(keys_20k), dtype=values.dtype))

    def test_overflow_keys_land_in_holes(self, keys_20k):
        keys = keys_20k[:9000]
        phf = build(keys, PhfConfig(alpha=0.9))
        raw = phf.evaluate_many(keys)
        mphf = minimize(phf, keys)
        mapped = mphf.evaluate_many(keys)
        n = len(keys)
        over = raw >= n
        assert np.array_equal(mapped[~over], raw[~over])
        holes = np.setdiff1d(np.arange(n), raw[raw < n])
        assert set(mapped[over].tolist()) == set(holes.tolist())

    def test_remap_size_formula(self):
        keys = generate_keys(100_000, seed=12)
        phf = build(keys, PhfConfig(alpha=0.95))
        mphf = minimize(phf, keys)
        m, n = phf.m_total, len(keys)
        formula = (m - n) * (2 + np.ceil(np.log2(n / (m - n))))
        breakdown = mphf.space_breakdown()
        assert breakdown.remap_bits <= formula + mphf.remap.aux_bits() + 512

    def test_serialization_roundtrip(self, keys_20k):
        mphf = build(keys_20k, PhfConfig(alpha=0.95, minimal=True))
        restored = SicHashPhf.from_bytes(mphf.to_bytes())
        assert restored.config.minimal
        assert np.array_equal(
            restored.evaluate_many(keys_20k), mphf.evaluate_many(keys_20k)
        )


class TestSpaceAccounting:
    def test_breakdown_sums(self, phf_20k):
        b = phf_20k.space_breakdown()
        assert b.total_bits == b.retrieval_bits + b.metadata_bits + b.remap_bits
        assert phf_20k.bits_per_object() == pytest.approx(b.per_object)

    def test_metadata_under_budget_at_scale(self, keys_100k):
        phf = build(keys_100k, PhfConfig(alpha=0.9))
        assert phf.space_breakdown().metadata_bits / len(keys_100k) <= 0.04

    def test_retrieval_component_within_slack(self, keys_100k):
        cfg = PhfConfig(alpha=0.9, beta=2.0, x=0.5)
        phf = build(keys_100k, cfg)
        per_obj = phf.space_breakdown().retrieval_bits / len(keys_100k)
        assert 2.0 <= per_obj <= 2.0 * (1 + cfg.epsilon_r) + 0.05


class TestBucketMetaArray:
    def test_validation(self):
        with pytest.raises(ValueError):
            BucketMetaArray(np.array([1]), np.array([0, 5, 3]))
        with pytest.raises(ValueError):
            BucketMetaArray(np.array([1]), np.array([1, 5]))

    def test_plain_roundtrip(self):
        meta = BucketMetaArray(np.array([0, 3, 1]), np.array([0, 10, 25, 30]))
        back = BucketMetaArray.from_bytes(meta.to_bytes())
        assert np.array_equal(back.seeds, meta.seeds)
        assert np.array_equal(back.offsets, meta.offsets)

    def test_compressed_roundtrip(self):
        meta = BucketMetaArray(
            np.array([0, 3, 1, 7]), np.array([0, 10, 25, 30, 44]), compressed=True
        )
        back = BucketMetaArray.from_bytes(meta.to_bytes())
        assert back.compressed
        assert np.array_equal(back.seeds, meta.seeds)
        assert np.array_equal(back.offsets, meta.offsets)


class TestScalarPlan:
    # The three golden configs, then beta=1 (only degree-2 keys) and
    # beta=3 (only degree-8 keys), where two retrieval stores are empty.
    @pytest.mark.parametrize(
        "config",
        [
            PhfConfig(alpha=0.90),
            PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
            PhfConfig(alpha=0.90, x=0.66),
            PhfConfig(alpha=0.40, beta=1.0),
            PhfConfig(alpha=0.90, beta=3.0),
        ],
        ids=["plain-a90", "minimal-compressed-a97", "plain-x066", "beta1", "beta3"],
    )
    def test_scalar_equals_batch(self, keys_20k, config):
        built = build(keys_20k, config)
        loaded = SicHashPhf.from_bytes(built.to_bytes())
        if config.minimal:
            assert built.m_total > built.n  # some keys go through the remap
        if config.beta in (1.0, 3.0):
            assert sum(s.num_slots == 0 for s in built.stores.values()) == 2
        keys = keys_20k + [b"not a key %d" % i for i in range(2000)]
        want = built.evaluate_many(keys)
        assert np.array_equal(loaded.evaluate_many(keys), want)
        for phf in (built, loaded):
            got = [phf.evaluate(k) for k in keys]
            assert all(type(v) is int for v in got)
            assert np.array_equal(np.array(got, dtype=np.uint64), want)


def _reseal(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


def _small(minimal: bool = False) -> SicHashPhf:
    return build(generate_keys(2000, seed=3), PhfConfig(alpha=0.9, minimal=minimal))


class TestLoadChecks:
    """Blobs with a valid checksum whose parts do not fit together."""

    def test_missing_store_rejected(self):
        phf = _small()
        del phf.stores[4]
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(phf.to_bytes())

    def test_duplicate_store_rejected(self):
        phf = _small()
        phf.stores[16] = phf.stores[4]  # written as a second store with r=2
        with pytest.raises(DeserializationError, match="two retrieval stores"):
            SicHashPhf.from_bytes(phf.to_bytes())

    def test_store_key_counts_must_sum_to_n(self):
        phf = _small()
        phf.stores[4] = dataclasses.replace(
            phf.stores[4], num_keys=phf.stores[4].num_keys + 1
        )
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(phf.to_bytes())

    def test_empty_bucket_table_rejected(self):
        phf = _small()
        phf.meta = BucketMetaArray(np.empty(0), np.zeros(1))
        with pytest.raises(DeserializationError, match="bucket"):
            SicHashPhf.from_bytes(phf.to_bytes())

    # byte offsets after the 8-byte magic and the flags byte
    @pytest.mark.parametrize(
        "offset, fmt, value",
        [
            (9, "<d", 0.0),
            (9, "<d", 1.5),
            (17, "<d", 0.5),
            (25, "<d", 1.5),
            (33, "<Q", 0),
            (49, "<d", -0.1),
        ],
        ids=["alpha0", "alpha1.5", "beta0.5", "x1.5", "bucket_size0", "epsilon_neg"],
    )
    def test_config_out_of_range_rejected(self, offset, fmt, value):
        body = bytearray(_small().to_bytes()[:-4])
        struct.pack_into(fmt, body, offset, value)
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(_reseal(bytes(body)))

    def test_remap_of_wrong_length_rejected(self):
        phf = _small(minimal=True)
        phf.remap = EliasFanoSeq.encode(phf.remap.to_array()[:-1].astype(np.int64))
        with pytest.raises(DeserializationError, match="remap"):
            SicHashPhf.from_bytes(phf.to_bytes())

    def test_remap_value_out_of_range_rejected(self):
        phf = _small(minimal=True)
        values = phf.remap.to_array().astype(np.int64)
        values[-1] = phf.n  # still monotone: every other value is below n
        phf.remap = EliasFanoSeq.encode(values)
        with pytest.raises(DeserializationError, match="remap"):
            SicHashPhf.from_bytes(phf.to_bytes())

    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal-none", "plain-some"])
    def test_remap_presence_must_match_mode(self, minimal):
        phf = _small(minimal)
        phf.remap = None if minimal else EliasFanoSeq.encode(np.arange(3))
        with pytest.raises(DeserializationError, match="remap"):
            SicHashPhf.from_bytes(phf.to_bytes())


FUZZ_KEYS = generate_keys(400, seed=12)
FUZZ_PROBES = FUZZ_KEYS[:200] + [b"stranger %d" % i for i in range(200)]
FUZZ_BLOBS = {
    "plain": (FUZZ_KEYS, PhfConfig(alpha=0.9, bucket_size=100)),
    "minimal-compressed": (
        FUZZ_KEYS,
        PhfConfig(alpha=0.97, bucket_size=100, minimal=True, compressed_metadata=True),
    ),
    "empty-last-bucket": (generate_keys(6, 0), PhfConfig(alpha=0.9, bucket_size=1)),
}


@functools.cache
def _fuzz_body(name: str) -> bytes:
    keys, config = FUZZ_BLOBS[name]
    return build(keys, config).to_bytes()[:-4]


@pytest.mark.parametrize("name", list(FUZZ_BLOBS))
@settings(max_examples=800, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_blob_rejected_or_total(name, data):
    # 1-3 bytes changed under a fresh checksum: loading either raises
    # DeserializationError or gives a function defined on every key
    body = bytearray(_fuzz_body(name))
    for _ in range(data.draw(st.integers(1, 3))):
        body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
    try:
        phf = SicHashPhf.from_bytes(_reseal(bytes(body)))
    except DeserializationError:
        return
    got = [phf.evaluate(k) for k in FUZZ_PROBES]
    assert all(type(v) is int and 0 <= v < phf.output_range for v in got)
    assert got == phf.evaluate_many(FUZZ_PROBES).tolist()


# -- end-to-end property ----------------------------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 3000),
    load=st.floats(0.5, 0.97),
    beta=st.floats(1.0, 3.0),
    x=st.floats(0.0, 1.0),
    bucket_size=st.integers(1, 3000),
    minimal=st.booleans(),
    compressed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_config_end_to_end(n, load, beta, x, bucket_size, minimal, compressed, seed):
    # alpha is a share of the mix's load threshold, so every build succeeds
    c_star = solve_threshold(ClassMix(*class_fractions(beta, x))).c_star
    config = PhfConfig(
        alpha=min(1.0, load * c_star),
        beta=beta,
        x=x,
        bucket_size=bucket_size,
        global_seed=seed,
        minimal=minimal,
        compressed_metadata=compressed,
    )
    keys = generate_keys(n + 300, seed=seed)
    members, strangers = keys[:n], keys[n:]
    phf = build(members, config)

    values = phf.evaluate_many(members)
    if minimal:
        assert np.array_equal(np.sort(values), np.arange(n, dtype=np.uint64))
    else:
        assert len(np.unique(values)) == n and values.max() < phf.output_range
    batch = phf.evaluate_many(keys)
    assert np.array_equal(batch[:n], values)
    assert batch[n:].max() < phf.output_range
    assert [phf.evaluate(k) for k in keys] == batch.tolist()
    loaded = SicHashPhf.from_bytes(phf.to_bytes())
    assert np.array_equal(loaded.evaluate_many(keys), batch)
    assert [loaded.evaluate(k) for k in keys] == batch.tolist()
