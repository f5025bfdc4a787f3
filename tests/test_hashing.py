import array
import hashlib
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2

import tests.test_golden as golden
from sichash import _native, hashing
from sichash.cli import generate_keys
from sichash.hashing import (
    MasterHash,
    bucket_of,
    bucket_of_many,
    cell_key,
    cell_of,
    cell_of_many,
    check_distinct,
    class_of_many,
    class_thresholds,
    fold_hash,
    master_hash,
    master_hash_many,
    mix64,
    umulhi,
)
from tests.conftest import MILLION_KEY_SEED

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_master_hash_deterministic():
    a = master_hash(b"some key", 1234)
    b = master_hash(b"some key", 1234)
    assert a == b


def test_master_hash_seed_sensitivity():
    a = master_hash(b"some key", 1)
    b = master_hash(b"some key", 2)
    assert a != b


def test_master_hash_empty_key_allowed():
    h = master_hash(b"", 7)
    assert isinstance(h.hi, int) and isinstance(h.lo, int)


def test_master_hash_no_collisions_million(million_keys):
    hi, lo = master_hash_many(million_keys, MILLION_KEY_SEED)
    pairs = np.stack([lo, hi])
    order = np.lexsort(pairs)
    dup = (hi[order][1:] == hi[order][:-1]) & (lo[order][1:] == lo[order][:-1])
    assert int(dup.sum()) == 0


@given(st.binary(max_size=300), U64)
def test_master_hash_scalar_matches_batch(key, seed):
    h = master_hash(key, seed)
    hi, lo = master_hash_many([key], seed)
    assert (h.hi, h.lo) == (int(hi[0]), int(lo[0]))


#: keys per block of the native batch hash, which holds a block's keys
#: and then hashes the block without the GIL
KEY_BLOCK = 256


def test_master_hash_many_across_chunks():
    # more keys than one block, passed as a list and as an iterator
    keys = [b"key %d" % i for i in range(512 * KEY_BLOCK + 5)]
    hi, lo = master_hash_many(keys, 17)
    assert hi.dtype == lo.dtype == np.uint64 and len(hi) == len(keys)
    for i in (0, KEY_BLOCK - 1, KEY_BLOCK, 2 * KEY_BLOCK, len(keys) - 1):
        assert master_hash(keys[i], 17) == (int(hi[i]), int(lo[i]))
    hi2, lo2 = master_hash_many(iter(keys), 17)
    assert np.array_equal(hi, hi2) and np.array_equal(lo, lo2)
    empty_hi, empty_lo = master_hash_many([], 17)
    assert len(empty_hi) == len(empty_lo) == 0 and empty_hi.dtype == np.uint64


class BytesKey(bytes):
    """A bytes subclass: a key that is bytes but not exact bytes, so the
    kernel reads it through its buffer and not by pointer."""


@pytest.mark.parametrize("form", [BytesKey, bytearray, memoryview],
                         ids=["bytes-subclass", "bytearray", "memoryview"])
def test_master_hash_many_mixes_key_forms_in_a_block(form):
    # exact bytes keys with another form at each end of a block
    keys = [b"key %d" % i + bytes(i % 40) for i in range(3 * KEY_BLOCK + 5)]
    for i in (0, KEY_BLOCK - 1, KEY_BLOCK, len(keys) - 1):
        keys[i] = form(keys[i])
    hi, lo = master_hash_many(keys, 11)
    assert [master_hash(k, 11) for k in keys] == list(zip(hi.tolist(), lo.tolist()))


# ---------------------------------------------------------------------------
# quality: the build and the queries take the master hash for a random
# function of the key, so distinct keys must not collide, buckets and
# classes must come out uniform, and every key bit must reach every
# output bit


def _split(blob: bytes, width: int) -> list[bytes]:
    """``blob`` cut into keys of ``width`` bytes."""
    return [blob[i : i + width] for i in range(0, len(blob), width)]


def _counters(count: int) -> list[bytes]:
    """The 8-byte little-endian counters 0 .. count - 1."""
    return _split(np.arange(count, dtype="<u8").tobytes(), 8)


def _assert_no_collision(keys_in_chunks, seed=0):
    his, los = zip(*(master_hash_many(keys, seed) for keys in keys_in_chunks))
    check_distinct(np.concatenate(his), np.concatenate(los))  # raises on a collision


def test_no_collision_among_two_million_random_keys():
    # lengths 8 to 40, so that two keys are equal with probability < 2**-60;
    # hashed in chunks, so that no more than 250k keys are held at once
    def chunk(seed):
        rng = np.random.default_rng(seed)
        ends = np.cumsum(rng.integers(8, 41, 250_000))
        blob = rng.integers(0, 256, int(ends[-1]), dtype=np.uint8).tobytes()
        return [blob[a:z] for a, z in zip((ends - ends[0]).tolist(), ends.tolist())]

    _assert_no_collision(chunk(seed) for seed in range(8))


@pytest.mark.parametrize("kind", ["counters", "shared-prefix", "trailing-zeros"])
def test_no_collision_among_structured_keys(kind):
    if kind == "counters":
        keys = _counters(1_000_000)
    elif kind == "shared-prefix":
        prefix = np.random.default_rng(1).integers(0, 256, 100, dtype=np.uint8).tobytes()
        keys = [prefix + k for k in _counters(200_000)]
    else:
        # keys that differ only by 0 to 40 trailing zero bytes: distinct
        # bases that end in a non-zero byte, and the all-zero keys
        bases = {bytes(k).rstrip(b"\0") for k in _split(np.random.default_rng(2).integers(
            0, 256, 5000 * 12, dtype=np.uint8).tobytes(), 12)} - {b""}
        keys = [base + bytes(j) for base in bases for j in range(41)]
        keys += [bytes(j) for j in range(301)]
    assert len(set(keys)) == len(keys)
    _assert_no_collision([keys])


@pytest.mark.parametrize("kind", ["generated", "counters"])
def test_buckets_and_classes_uniform(million_keys, kind):
    keys = million_keys if kind == "generated" else _counters(1_000_000)
    hi, lo = master_hash_many(keys, 0)
    counts = np.bincount(bucket_of_many(hi, 1000).astype(np.int64), minlength=1000)
    expected = len(keys) / 1000
    assert float(((counts - expected) ** 2 / expected).sum()) < chi2.ppf(1 - 1e-4, df=999)
    degs = class_of_many(lo, *class_thresholds(0.3, 0.5))
    for deg, p in ((2, 0.3), (4, 0.5), (8, 0.2)):
        frac = (degs == deg).sum() / len(keys)
        assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / len(keys))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("length", [16, 40])
def test_one_bit_flips_flip_each_output_bit_half_the_time(length, seed):
    trials = 50_000
    rng = np.random.default_rng(length)
    keys = rng.integers(0, 256, (trials, length), dtype=np.uint8)
    bit = rng.integers(0, 8 * length, trials)
    flipped = keys.copy()
    flipped[np.arange(trials), bit // 8] ^= (1 << (bit % 8)).astype(np.uint8)
    a = master_hash_many(_split(keys.tobytes(), length), seed)
    b = master_hash_many(_split(flipped.tobytes(), length), seed)
    diff = np.unpackbits(np.stack([a[0] ^ b[0], a[1] ^ b[1]], axis=1).view(np.uint8), axis=1)
    # each of the 128 output bits, over all trials
    assert np.all(np.abs(diff.mean(axis=0) - 0.5) <= 0.02)
    # each input bit, over the ~156 trials that flip it and all output bits
    per_input = np.bincount(bit, weights=diff.sum(axis=1)) / (128 * np.bincount(bit))
    assert np.all(np.abs(per_input - 0.5) <= 0.02)


# ---------------------------------------------------------------------------
# the native kernel against the pure-Python loop, its reference

native = pytest.mark.skipif(_native.lib is None, reason="native kernel not loaded")

#: around the 8-byte word and 16-byte block boundaries, plus the empty and
#: a long key
KEY_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 10_000)


def _reference(keys, seed):
    """master_hash_many by the pure-Python loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "lib", None)
        return master_hash_many(keys, seed)


def _assert_same(got, want):
    assert got[0].dtype == got[1].dtype == np.uint64
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("lib", ["loaded", None])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_raises(monkeypatch, lib, seed):
    # no seed wraps onto another: -1 is not 2**64 - 1
    if lib is None:
        monkeypatch.setattr(_native, "lib", None)
    with pytest.raises(OverflowError):
        master_hash(b"a", seed)
    with pytest.raises(OverflowError):
        master_hash_many([b"a"], seed)


@native
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_kernel_matches_python_at_every_length(seed):
    rng = np.random.default_rng(seed % 997)
    lengths = [*range(301), 10_000]
    keys = [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in lengths]
    keys += [bytes(n) for n in lengths]
    _assert_same(master_hash_many(keys, seed), _reference(keys, seed))
    for key in keys[:: len(lengths) // 3]:  # a few keys alone, the empty one too
        _assert_same(master_hash_many([key], seed), _reference([key], seed))


@native
def test_kernel_matches_python_on_every_input_form():
    keys = [b"key %d" % i + bytes(i % 300) for i in range(256 * KEY_BLOCK + 7)]
    want = _reference(keys, 5)
    _assert_same(master_hash_many(keys, 5), want)
    _assert_same(master_hash_many(iter(keys), 5), want)
    _assert_same(master_hash_many(map(bytearray, keys), 5), want)
    _assert_same(master_hash_many(map(memoryview, keys), 5), want)
    _assert_same(master_hash_many([], 5), _reference([], 5))
    # len() of a memoryview of 4-byte items is not its byte count
    wide = [memoryview(array.array("I", range(i))) for i in range(40)]
    _assert_same(master_hash_many(wide, 5), _reference([bytes(w) for w in wide], 5))


@native
def test_keys_replaced_while_hashed():
    # a block of keys is hashed without the GIL; the kernel holds each key
    # of the block, so a key that another thread replaces meanwhile is
    # still read whole, and its hash is of the old key or of the new one
    count = 20_000

    def key(i, tag):  # a fresh object on each call
        return b"%s key %d" % (tag, i)

    keys = [key(i, b"old") for i in range(count)]
    old = _reference(keys, 7)
    new = _reference([key(i, b"new") for i in range(count)], 7)
    done = threading.Event()

    def replace(seed):
        rng = random.Random(seed)
        while not done.is_set():
            i = rng.randrange(count)
            keys[i] = key(i, rng.choice((b"old", b"new")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    replacers = [threading.Thread(target=replace, args=(seed,)) for seed in (3, 4)]
    for replacer in replacers:
        replacer.start()
    try:
        for _ in range(300):
            hi, lo = master_hash_many(keys, 7)
            is_old = (hi == old[0]) & (lo == old[1])
            is_new = (hi == new[0]) & (lo == new[1])
            assert np.all(is_old | is_new)
    finally:
        done.set()
        for replacer in replacers:
            replacer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(replacer.is_alive() for replacer in replacers)


#: the two paths of master_hash_many and of a function's queries
PATHS = pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "python"])
#: bytes-like forms of a key; the wide memoryview's len() is not its byte count
KEY_FORMS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "wide-memoryview": lambda key: memoryview(key).cast("I"),
}
#: keys whose lengths are multiples of 4, so each has every form
FORM_KEYS = [bytes(i % 256 for i in range(n)) for n in (0, 4, 128, 132, 256, 1000)]
#: what hashlib refuses to hash, with the error it raises; both paths
#: refuse it alike
BAD_KEYS = pytest.mark.parametrize("bad, error", [
    (memoryview(bytes(16))[::2], BufferError),  # not contiguous
    ("a key", TypeError),
    (12345, TypeError),
    (None, TypeError),
], ids=["strided-memoryview", "str", "int", "None"])
#: buffers that are not flat, which both paths refuse with a BufferError:
#: a key is a C-contiguous buffer of at most one dimension (hashlib takes
#: the 2-d ones, and refuses the strided array with a ValueError)
NOT_FLAT_KEYS = pytest.mark.parametrize("bad", [
    np.zeros(16, dtype=np.uint8)[::2],
    memoryview(bytes(16)).cast("B", (4, 4)),
    np.zeros((4, 4), dtype=np.uint8),
], ids=["strided-array", "2d-memoryview", "2d-array"])


@PATHS
@pytest.mark.parametrize("form", KEY_FORMS.values(), ids=KEY_FORMS)
def test_master_hash_many_key_forms(monkeypatch, lib, form):
    want = _reference(FORM_KEYS, 3)
    monkeypatch.setattr(_native, "lib", lib)
    _assert_same(master_hash_many([form(k) for k in FORM_KEYS], 3), want)
    _assert_same(master_hash_many((form(k) for k in FORM_KEYS), 3), want)


@PATHS
@BAD_KEYS
def test_master_hash_many_rejects_what_hashlib_rejects(monkeypatch, lib, bad, error):
    with pytest.raises(error):
        hashlib.blake2b(bad)
    monkeypatch.setattr(_native, "lib", lib)
    with pytest.raises(error):
        master_hash_many([b"a key"] * (KEY_BLOCK + 3) + [bad], 3)


@PATHS
@NOT_FLAT_KEYS
def test_master_hash_many_rejects_keys_not_flat(monkeypatch, lib, bad):
    monkeypatch.setattr(_native, "lib", lib)
    with pytest.raises(BufferError):
        master_hash_many([b"a key"] * (KEY_BLOCK + 3) + [bad], 3)


@PATHS
def test_master_hash_many_of_no_keys(monkeypatch, lib):
    monkeypatch.setattr(_native, "lib", lib)
    for keys in ([], (), iter([]), (k for k in [])):
        hi, lo = master_hash_many(keys, 3)
        assert hi.dtype == lo.dtype == np.uint64 and len(hi) == len(lo) == 0


@pytest.mark.parametrize("config, blob_sha, values_sha", golden.GOLDEN,
                         ids=["plain-a90", "minimal-compressed-a97", "plain-x066"])
def test_pure_python_fallback_keeps_golden_outputs(monkeypatch, config, blob_sha, values_sha):
    # the native library switched off: the Python hash loop, the Python
    # retrieval solve and the Python placement loop
    monkeypatch.setattr(_native, "lib", None)
    assert hashing.hash_backend() == "python"
    keys = generate_keys(20_000, seed=golden.GOLDEN_KEY_SEED)
    golden.test_outputs_pinned(keys, config, blob_sha, values_sha)


EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


@native
class TestBatchHashArguments:
    """The batch kernel checks its output arrays before it writes them."""

    def test_wrong_dtype(self):
        hi = np.empty(2, dtype=np.uint64)
        with pytest.raises(TypeError, match="hi: need items of 8 bytes"):
            _native.lib.master_hash_batch([b"a", b"b"], 0, 0, hi.view(np.uint32), hi)

    def test_short_output(self):
        hi = np.empty(2, dtype=np.uint64)
        with pytest.raises(ValueError, match="lo: need 2 items, got 1"):
            _native.lib.master_hash_batch([b"a", b"b"], 0, 0, hi, hi[:1].copy())

    def test_read_only_output(self):
        hi = np.empty(1, dtype=np.uint64)
        with pytest.raises(TypeError):
            _native.lib.master_hash_batch([b"a"], 0, 0, hi, bytes(8))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits(self, seed):
        # the seed's lanes are 64-bit words
        hi = np.empty(1, dtype=np.uint64)
        for args in ((seed, 0), (0, seed)):
            with pytest.raises(OverflowError):
                _native.lib.master_hash_batch([b"a"], *args, hi, hi.copy())


needs_cc = pytest.mark.skipif(shutil.which(_native._CC[0]) is None, reason="no C compiler")
needs_header = pytest.mark.skipif(not (_native._INCLUDE / "Python.h").is_file(),
                                  reason="no Python.h")


def _macros() -> str:
    """hashing.QUERY_CONSTANTS as the loader's -D flags, as its cache name
    hashes them."""
    return " ".join(f"-DSICHASH_{name.upper()}={value:#x}ULL"
                    for name, value in hashing.QUERY_CONSTANTS.items())


class TestLoadKernel:
    @needs_cc
    def test_compiles_once_into_the_cache(self, tmp_path, monkeypatch):
        fn = _native._load_kernel(tmp_path)
        assert fn is not None
        # named for the digest of the source, the compiler's flags and the
        # constants' flags, and for this interpreter's extension ABI
        flags = " ".join([*_native._CC[1:], _macros()]).encode()
        digest = hashlib.sha256(_native._SOURCE.read_bytes() + flags).hexdigest()
        (cached,) = tmp_path.iterdir()
        assert cached.name == f"_native-{digest}-{sysconfig.get_platform()}{EXT_SUFFIX}"
        # a second call loads the cached file and runs nothing
        runs = []
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: runs.append(a))
        assert _native._load_kernel(tmp_path) is not None and runs == []
        # the cached library loads without the compiler or Python.h: the
        # compiler's path is not in the name
        monkeypatch.setattr(_native, "_CC", (str(tmp_path / "missing-cc"), *_native._CC[1:]))
        monkeypatch.setattr(_native, "_INCLUDE", tmp_path / "no-include")
        monkeypatch.setattr(_native, "lib", _native._load_kernel(tmp_path))
        assert hashing.hash_backend() == "native"
        keys = [bytes(range(n % 256)) * (1 + n // 256) for n in range(300)]
        _assert_same(master_hash_many(keys, 9), _reference(keys, 9))

    @needs_cc
    @needs_header
    def test_patched_constant_names_another_library(self, tmp_path, monkeypatch):
        assert _native._load_kernel(tmp_path / "a") is not None
        constants = hashing.QUERY_CONSTANTS
        monkeypatch.setattr(_native, "QUERY_CONSTANTS",
                            {**constants, "cell_salt": constants["cell_salt"] ^ 1})
        assert _native._load_kernel(tmp_path / "b") is not None
        (a,), (b,) = (tmp_path / "a").iterdir(), (tmp_path / "b").iterdir()
        assert a.name != b.name

    @needs_cc
    @needs_header
    def test_patched_compiler_flag_names_another_library(self, tmp_path, monkeypatch):
        assert _native._load_kernel(tmp_path / "a") is not None
        flags = ["-O2" if flag == "-O3" else flag for flag in _native._CC]
        assert flags != list(_native._CC)
        monkeypatch.setattr(_native, "_CC", tuple(flags))
        assert _native._load_kernel(tmp_path / "b") is not None
        (a,), (b,) = (tmp_path / "a").iterdir(), (tmp_path / "b").iterdir()
        assert a.name != b.name

    @needs_cc
    @needs_header
    def test_source_compiles_without_warnings(self, tmp_path):
        # -Wno-unused-parameter: module functions take an unused ``self``;
        # -Wno-missing-field-initializers: the module definition leaves its
        # trailing fields unset
        out = subprocess.run(
            _native._command(tmp_path / "lib.so", "-Wall", "-Wextra", "-Wshadow", "-Werror",
                             "-Wno-unused-parameter", "-Wno-missing-field-initializers"),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr

    @needs_cc
    @needs_header
    def test_source_needs_the_constants(self, tmp_path):
        # without a constant's macro the source stops with its #error
        command = [f for f in _native._command(tmp_path / "lib.so")
                   if not f.startswith("-DSICHASH_FOLD=")]
        out = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0 and "#error" in out.stderr

    def test_no_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_native, "_CC", (str(tmp_path / "missing-cc"),))
        assert _native._load_kernel(tmp_path / "cache") is None
        assert list((tmp_path / "cache").iterdir()) == []

    def test_no_python_header(self, tmp_path, monkeypatch):
        (tmp_path / "include").mkdir()
        monkeypatch.setattr(_native, "_INCLUDE", tmp_path / "include")
        assert _native._load_kernel(tmp_path / "cache") is None
        assert not (tmp_path / "cache").exists()

    def test_compile_error(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(_native, "_SOURCE", bad)
        assert _native._load_kernel(tmp_path / "cache") is None
        assert list((tmp_path / "cache").iterdir()) == []

    def test_unwritable_cache(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_bytes(b"")
        assert _native._load_kernel(not_a_dir) is None

    @needs_cc
    def test_library_that_fails_to_load(self, tmp_path):
        assert _native._load_kernel(tmp_path / "a") is not None
        (lib,) = (tmp_path / "a").iterdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / lib.name).write_bytes(b"not a shared library")
        assert _native._load_kernel(tmp_path / "b") is None

    @needs_cc
    def test_removes_stale_libraries(self, tmp_path):
        platform = sysconfig.get_platform()
        # an older source's module
        stale = [f"_native-{'0' * 64}-{platform}{EXT_SUFFIX}"]
        # another interpreter's build is kept, as are other platforms' files
        kept = [f"_native-{'2' * 64}-{platform}{EXT_SUFFIX}.123.tmp", "other.so",
                f"_native-{'3' * 64}-another-platform{EXT_SUFFIX}",
                f"_native-{'5' * 64}-{platform}.cpython-399-other.so"]
        for name in stale + kept:
            (tmp_path / name).write_bytes(b"")
        assert _native._load_kernel(tmp_path) is not None
        current = [p.name for p in tmp_path.glob(f"_native-*-{platform}{EXT_SUFFIX}")]
        assert len(current) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(current + kept)
        # a cached library is loaded as it is, and removes nothing
        (tmp_path / stale[0]).write_bytes(b"")
        assert _native._load_kernel(tmp_path) is not None
        assert (tmp_path / stale[0]).exists()

    def test_big_endian_host(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "byteorder", "big")
        assert _native._load_kernel(tmp_path) is None
        assert list(tmp_path.iterdir()) == []


#: run by test_kernels_run_clean_under_sanitizers with the module built at
#: argv[1]: each build, load and query path, once on that module and once
#: on the regular one, which must agree byte for byte
_SANITIZED_ROUND = """
import importlib.util, sys
import numpy as np
from sichash import _native
from sichash.cli import generate_keys
from sichash.cuckoo import BucketInput, build_bucket
from sichash.hashing import class_of_many, class_thresholds, master_hash_many, row_keys
from sichash.phf import PhfConfig, SicHashPhf, build

spec = importlib.util.spec_from_file_location(_native._NAME, sys.argv[1])
sanitized = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sanitized)
regular = _native.lib
keys = generate_keys(20_000, seed=5)
configs = [PhfConfig(alpha=0.9), PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True)]
for config in configs:
    outputs = []
    for lib in (sanitized, regular):
        _native.lib = lib
        phf = SicHashPhf.from_bytes(build(keys, config).to_bytes())
        values = phf.evaluate_many(keys)
        assert [phf.evaluate(k) for k in keys[:500]] == values[:500].tolist()
        assert np.array_equal(phf.evaluate_hashes(*master_hash_many(keys, 0)), values)
        outputs.append((phf.to_bytes(), values.tobytes()))
    assert outputs[0] == outputs[1]

# a bucket that seeds 0, 1 and 2 fail, a placement whose budget runs out
# partway, and a store solve of one-byte values
rng = np.random.default_rng(35)
hi, lo = (rng.integers(0, 2**64, size=12, dtype=np.uint64) for _ in range(2))
bucket = BucketInput(hi, lo, class_of_many(lo, *class_thresholds(0.3, 0.4)), 12)
rng = np.random.default_rng(13)
hi, lo = (rng.integers(0, 2**64, size=400, dtype=np.uint64) for _ in range(2))
mask = class_of_many(lo, *class_thresholds(0.25, 0.5)) - np.uint8(1)
values = (lo[:300] & np.uint64(7)).astype(np.uint8)
outputs = []
for lib in (sanitized, regular):
    _native.lib = lib
    placed = build_bucket(bucket)
    assignments = np.full(400, 255, dtype=np.uint8)
    spent = lib.rattle_place(hi, lo, mask, 0, 50, 421, assignments)
    planes = np.empty((3, 330 // 64 + 2), dtype=np.uint64)
    dependent = lib.ribbon_build(hi[:300], lo[:300], values, 330, 3, *row_keys(0), planes)
    outputs.append((placed.seed, placed.assignments.tobytes(), spent, assignments.tobytes(),
                    dependent, planes.tobytes()))
assert outputs[0] == outputs[1]
assert outputs[0][0] == 3 and outputs[0][2] == -1 and outputs[0][4] == 0
assert set(outputs[0][3]) == {255}
print("clean")
"""


@needs_cc
@needs_header
def test_kernels_run_clean_under_sanitizers(tmp_path):
    # the module built with ASan and UBSan, any report fatal, runs a plain
    # and a minimal build, a reload and every query path in a subprocess,
    # then a bucket's failed seeds, a budget that runs out and a store solve
    found = subprocess.run([_native._CC[0], "-print-file-name=libasan.so"],
                           capture_output=True, text=True, timeout=60)
    runtime = found.stdout.strip()
    if found.returncode or not (os.path.isabs(runtime) and os.path.isfile(runtime)):
        pytest.skip("no AddressSanitizer runtime")
    lib = tmp_path / f"_native-sanitized{EXT_SUFFIX}"
    command = _native._command(lib, "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
    built = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr
    package = Path(hashing.__file__).resolve().parent.parent
    env = {**os.environ, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join([str(package), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _SANITIZED_ROUND, str(lib)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0 and run.stdout.strip() == "clean", run.stderr[-4000:]


@given(U64, U64)
def test_mix64_scalar_matches_batch(x, y):
    # mix64, fold_hash and cell_key serve Python ints and uint64 arrays alike
    a, b = np.array([x], dtype=np.uint64), np.array([y], dtype=np.uint64)
    assert mix64(x) == int(mix64(a)[0])
    assert a[0] == x  # the array argument is left as it was
    assert fold_hash((x, y)) == int(fold_hash((a, b))[0])
    assert cell_key(x, y) == int(cell_key(a, b)[0])


@given(U64, U64)
def test_umulhi_matches_bigint(a, b):
    got = int(umulhi(np.array([a], dtype=np.uint64), np.uint64(b))[0])
    assert got == (a * b) >> 64


@pytest.mark.parametrize("b_max", [1, 5556, 2**32 - 1, 2**32, 2**64 - 1])
def test_umulhi_array_matches_bigint(b_max):
    # table sizes below 2**32 take the two-product path; larger ones the
    # full 64x64 product
    rng = np.random.default_rng(b_max % 1000)
    a = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
    a[:2] = [0, 2**64 - 1]
    b = rng.integers(0, b_max, size=2000, dtype=np.uint64, endpoint=True)
    b[:2] = b_max
    for bb in (b, np.uint64(b_max)):
        got = umulhi(a, bb).tolist()
        bl = np.broadcast_to(bb, a.shape).tolist()
        assert got == [(x * y) >> 64 for x, y in zip(a.tolist(), bl)]


class TestBucketOf:
    def test_single_bucket_always_zero(self):
        for k in (b"a", b"b", b"c"):
            assert bucket_of(master_hash(k, 0), 1) == 0

    def test_deterministic(self):
        h = master_hash(b"key", 3)
        assert bucket_of(h, 17) == bucket_of(h, 17)

    def test_binomial_concentration(self, uniform_hashes):
        hi, _ = uniform_hashes
        counts = np.bincount(bucket_of_many(hi, 100).astype(np.int64), minlength=100)
        expected = len(hi) / 100
        band = 5 * np.sqrt(expected)
        assert counts.min() >= expected - band and counts.max() <= expected + band

    @given(U64, U64, st.integers(min_value=1, max_value=10**9))
    def test_scalar_matches_batch(self, hi, lo, nb):
        h = MasterHash(hi, lo)
        assert bucket_of(h, nb) == int(
            bucket_of_many(np.array([hi], dtype=np.uint64), nb)[0]
        )

    def test_in_range(self, uniform_hashes):
        hi, _ = uniform_hashes
        b = bucket_of_many(hi[:10000], 7)
        assert int(b.max()) < 7


def _class_of_three_pass(lo, t1, t2):
    """class_of_many's earlier body, the reference: a fill and two masked writes."""
    deg = np.full(len(lo), 8, dtype=np.uint8)
    deg[lo < np.uint64(t2)] = 4
    deg[lo < np.uint64(t1)] = 2
    return deg


class TestClassOf:
    # (0.5, 0) gives t1 == t2 mid-range, (0, 0) at 0 and (1, 0) at 2**64 - 1
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.5), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.0)])
    def test_matches_three_pass_form_at_boundaries(self, p1, p2):
        t1, t2 = class_thresholds(p1, p2)
        edges = [0, t1 - 1, t1, t2 - 1, t2, 2**64 - 1]
        lo = np.array([v for v in edges if 0 <= v < 2**64], dtype=np.uint64)
        degs = class_of_many(lo, t1, t2)
        assert degs.dtype == np.uint8
        assert np.array_equal(degs, _class_of_three_pass(lo, t1, t2))

    @given(st.lists(U64, min_size=1, max_size=50), U64, U64)
    def test_matches_three_pass_form_property(self, lo, a, b):
        t1, t2 = min(a, b), max(a, b)
        lo = np.array(lo, dtype=np.uint64)
        degs = class_of_many(lo, t1, t2)
        assert degs.dtype == np.uint8
        assert np.array_equal(degs, _class_of_three_pass(lo, t1, t2))

    def test_all_c4(self, uniform_hashes):
        _, lo = uniform_hashes
        t1, t2 = class_thresholds(0.0, 1.0)
        degs = class_of_many(lo, t1, t2)
        assert np.all(degs == 4)

    def test_half_split_c2_c8(self, uniform_hashes):
        _, lo = uniform_hashes
        t1, t2 = class_thresholds(0.5, 0.0)
        degs = class_of_many(lo, t1, t2)
        n = len(lo)
        n2 = int((degs == 2).sum())
        assert int((degs == 4).sum()) == 0
        sigma = np.sqrt(n * 0.25)
        assert abs(n2 - n / 2) <= 3 * sigma

    def test_all_c2(self):
        _, lo = master_hash_many([b"%d" % k for k in range(50)], 0)
        assert np.all(class_of_many(lo, *class_thresholds(1.0, 0.0)) == 2)

    def test_fraction_quantization(self, uniform_hashes):
        _, lo = uniform_hashes
        t1, t2 = class_thresholds(0.3, 0.5)
        degs = class_of_many(lo, t1, t2)
        n = len(lo)
        for deg, p in ((2, 0.3), (4, 0.5), (8, 0.2)):
            frac = (degs == deg).sum() / n
            assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / n)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            class_thresholds(0.7, 0.7)


class TestCellOf:
    def test_m_one_always_zero(self):
        h = master_hash(b"x", 0)
        for seed in range(5):
            for t in range(8):
                assert cell_of(h, seed, t, 1) == 0

    def test_deterministic(self):
        h = master_hash(b"y", 0)
        assert cell_of(h, 3, 2, 97) == cell_of(h, 3, 2, 97)

    def test_chi2_uniformity_m97(self, uniform_hashes):
        hi, lo = uniform_hashes
        cells = cell_of_many(hi, lo, 0, 0, 97).astype(np.int64)
        counts = np.bincount(cells, minlength=97)
        expected = len(hi) / 97
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, df=96)

    def test_distinct_fn_indices_differ(self):
        h = master_hash(b"z", 0)
        cells = {cell_of(h, 0, t, 1 << 40) for t in range(8)}
        assert len(cells) == 8  # 40-bit range makes collisions negligible

    @given(U64, U64, st.integers(0, 2**16), st.integers(0, 7), st.integers(1, 2**40))
    def test_scalar_matches_batch(self, hi, lo, seed, fidx, m):
        h = MasterHash(hi, lo)
        got = cell_of_many(
            np.array([hi], dtype=np.uint64), np.array([lo], dtype=np.uint64),
            seed, fidx, m,
        )
        assert cell_of(h, seed, fidx, m) == int(got[0])


def test_bucket_class_joint_independence(uniform_hashes):
    # contingency of (bucket mod 16) x class over one million hashes
    hi, lo = uniform_hashes
    b16 = (bucket_of_many(hi, 160).astype(np.int64)) % 16
    t1, t2 = class_thresholds(0.3, 0.4)
    degs = class_of_many(lo, t1, t2).astype(np.int64)
    table = np.zeros((16, 3))
    for j, deg in enumerate((2, 4, 8)):
        table[:, j] = np.bincount(b16[degs == deg], minlength=16)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, df=(16 - 1) * (3 - 1))
