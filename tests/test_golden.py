"""Pinned outputs: the serialized blob and the batch evaluation of a fixed
key set must stay byte-identical.

A change that alters outputs on purpose re-pins these digests and says
so in CHANGES.md.  The per-section digests show which part of the blob
moved: the header (magic, flags, config), the bucket
metadata, each retrieval store and, in minimal mode, the remap.
"""

import hashlib

import numpy as np
import pytest

from sichash._wire import Reader
from sichash.cli import generate_keys
from sichash.phf import PhfConfig, build

GOLDEN_KEY_SEED = 2024

# (config, sha256 of to_bytes(), sha256 of evaluate_many as <u8)
GOLDEN = [
    (
        PhfConfig(alpha=0.90),
        "bb431a712714c64c7dec16e7095db61ffa0979cce66dad41ca6968b42b10bb16",
        "7e898209c77532bee68654ba417160980d1737a4adebfb2154c6513e734e6957",
    ),
    (
        PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
        "6914727554ae0d5e92b6e5e179cb831d4700add6b3b4e95c0a4bd46828e4cd56",
        "9eb598251ed288eb62df74198550f356dbf3d1c3013772151d942c13947a2b45",
    ),
    (
        PhfConfig(alpha=0.90, x=0.66),
        "86e55587e17010c3ca82d06a9dea3c3eb6c3438ebeaf188daeff63c577847669",
        "8b96b6a20fb0e52ef1a6204db93b2926630ca391358c91a21a30623b1de5848f",
    ),
]

# sha256 of each blob section, in the order of GOLDEN
SECTIONS = [
    {
        "header": "2a27e5d2bbddb3bd71caf915ba5e978349a45eda194139f956659cac0ae93f03",
        "metadata": "2db28c9b8cccf99a7382d21533fc659be9e3186c6670537628b77291eedf7991",
        "r1": "89411a1f217fa55f3b46d9c613ac17d119c6af141e6f91f624553a7c701ee6fd",
        "r2": "fbed3e5d96de569d126fa7e67242b94a308ee56c184fe05f7e405cb834f1b935",
        "r3": "d571d1b82156879c0d5222c169569c321a62c537d0861611b6fdacf551cd1e43",
    },
    {
        "header": "7227491220331fa0ab820899e8528ec97c054562d70c444b87f6f6a61cb2725d",
        "metadata": "5bb86b2c8a30fe2f4a1ee3354548e2b32d098b7faf8a95354cedd74380dab608",
        "r1": "6138611fb220809b63bfdcc9d36788198eb581f37395cc0351b3e6a20c91c798",
        "r2": "c2c00be78b9499778a37e64009d49f8b0e47ac1d5f3fdb883ca5d539d6c3de10",
        "r3": "36b9ea723c081b293fa4480918baaafcf549cf78cd12aa31da1630e338027cd0",
        "remap": "5383c828c460550ad9a5b3e159a1fc1b92403db5f78b096155935e70604f505d",
    },
    {
        "header": "6df398d71d9385b19da6eaa6db614193f3fd6118faa1ae6194da6411d2cff29b",
        "metadata": "2db28c9b8cccf99a7382d21533fc659be9e3186c6670537628b77291eedf7991",
        "r1": "8060c520123ebb38142313e80590a93e3961e8fff1aa8af8def6c74d4c4ad97e",
        "r2": "108328bcf4a90e5280cd240322a448ec395259e0a3a82abc43282b9e5ee42bfa",
        "r3": "cedcf9aa9c8b79e7cd3e938192202ae2bb3426d75657cdbafcd2a7c9d9f88376",
    },
]

# magic, flags, alpha, beta, x, bucket_size, global_seed
HEADER_BYTES = 8 + 1 + 5 * 8


def _sections(blob: bytes) -> dict[str, bytes]:
    """Split a blob into its sections, following the layout in sichash.phf."""
    out = {"header": blob[:HEADER_BYTES]}
    r = Reader(blob[HEADER_BYTES:-4])  # the crc32 trailer is pinned with the blob
    out["metadata"] = r.blob()
    for name in ("r1", "r2", "r3"):
        out[name] = r.blob()
    if blob[8] & 1:  # the minimal flag
        out["remap"] = r.blob()
    r.expect_end()
    return out


@pytest.fixture(scope="module")
def golden_keys() -> list[bytes]:
    return generate_keys(20_000, seed=GOLDEN_KEY_SEED)


@pytest.mark.parametrize(
    "config, blob_sha, values_sha",
    GOLDEN,
    ids=["plain-a90", "minimal-compressed-a97", "plain-x066"],
)
def test_outputs_pinned(golden_keys, config, blob_sha, values_sha):
    phf = build(golden_keys, config)
    assert hashlib.sha256(phf.to_bytes()).hexdigest() == blob_sha
    values = np.asarray(phf.evaluate_many(golden_keys), dtype="<u8")
    assert hashlib.sha256(values.tobytes()).hexdigest() == values_sha


@pytest.mark.parametrize(
    "config, sections",
    [(g[0], s) for g, s in zip(GOLDEN, SECTIONS)],
    ids=["plain-a90", "minimal-compressed-a97", "plain-x066"],
)
def test_sections_pinned(golden_keys, config, sections):
    got = _sections(build(golden_keys, config).to_bytes())
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == sections
