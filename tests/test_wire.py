import random
import zlib

import numpy as np
import pytest

from sichash import _native
from sichash._wire import crc32

native = pytest.mark.skipif(_native.lib is None, reason="native library not loaded")
#: the kernel, then zlib
LIBRARIES = pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "zlib"])

#: random bytes whose slices are the inputs; a fold reads 16-byte words at
#: any alignment
DATA = np.random.default_rng(31).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()


@native
def test_fold_covers_the_16_byte_blocks_of_inputs_of_64_bytes_or_more():
    # the fold takes what it takes of every input, or nothing: where it
    # runs, every input of 64 bytes or more to its last 16-byte block
    fold = _native.lib.crc32_fold
    runs = fold(DATA[:64])[0] == 64
    for n in range(301):
        folded, crc = fold(DATA[:n])
        assert folded == (n & ~15 if runs and n >= 64 else 0), n
        assert crc == zlib.crc32(DATA[:folded]), n


@native
def test_helper_matches_zlib_at_every_short_length_and_offset():
    # under 64 bytes zlib takes all; above, the folds take 64-byte blocks,
    # then 16-byte ones, and zlib the tail
    bad = [(offset, n) for offset in range(16) for n in range(301)
           if crc32(DATA[offset : offset + n]) != zlib.crc32(DATA[offset : offset + n])]
    assert bad == []


@native
def test_helper_matches_zlib_at_random_lengths():
    rng = random.Random(32)
    view = memoryview(DATA)
    for _ in range(200):
        n = rng.randrange(len(DATA) - 64)
        offset = rng.randrange(64)
        data = view[offset : offset + n]
        assert crc32(data) == zlib.crc32(data), (offset, n)
        folded, crc = _native.lib.crc32_fold(data)
        assert crc == zlib.crc32(data[:folded]), (offset, n)


@native
@pytest.mark.parametrize("form", [bytes, bytearray, memoryview], ids=["bytes", "bytearray",
                                                                       "memoryview"])
def test_helper_reads_every_buffer_form(form):
    for n in (0, 1, 63, 64, 65, 1000, 4099):
        data = form(DATA[:n])
        assert crc32(data) == zlib.crc32(data)
        assert crc32(memoryview(data)[3:]) == zlib.crc32(DATA[3:n])


@native
def test_helper_counts_bytes_of_a_wide_buffer():
    data = np.frombuffer(DATA[:4099 * 8], dtype=np.uint64)
    assert crc32(data) == zlib.crc32(data)


@LIBRARIES
@pytest.mark.parametrize("bad, error", [
    ("a blob", TypeError),
    (None, TypeError),
    (memoryview(DATA[:128])[::2], BufferError),
], ids=["str", "None", "strided-memoryview"])
def test_helper_rejects_what_zlib_rejects(monkeypatch, lib, bad, error):
    monkeypatch.setattr(_native, "lib", lib)
    with pytest.raises(error):
        zlib.crc32(bad)
    with pytest.raises(error):
        crc32(bad)


@LIBRARIES
def test_helper_equals_zlib_on_each_path(monkeypatch, lib):
    monkeypatch.setattr(_native, "lib", lib)
    for n in (0, 5, 64, 278_481):
        assert crc32(DATA[:n]) == zlib.crc32(DATA[:n])
        assert crc32(memoryview(DATA)[1 : n + 1]) == zlib.crc32(DATA[1 : n + 1])
