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
        "45e940359ae04a2bc8e6776c4ccf2477c466378ea19491bb1cc7be16d9a98ece",
        "7e898209c77532bee68654ba417160980d1737a4adebfb2154c6513e734e6957",
    ),
    (
        PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
        "722cdee05d157df90a476d31ef082767648d6278a85cec29d4df2717f6c3e5d8",
        "9eb598251ed288eb62df74198550f356dbf3d1c3013772151d942c13947a2b45",
    ),
    (
        PhfConfig(alpha=0.90, x=0.66),
        "70218e2aecc9216cf0d4c3805666b9f60c22567e6d3376e5f35a5f4052525f08",
        "8b96b6a20fb0e52ef1a6204db93b2926630ca391358c91a21a30623b1de5848f",
    ),
]

# sha256 of each blob section, in the order of GOLDEN
SECTIONS = [
    {
        "header": "2814198ef53c9169f2a131b6259c39351d5001771e7baaa105feafe311765662",
        "metadata": "2db28c9b8cccf99a7382d21533fc659be9e3186c6670537628b77291eedf7991",
        "r1": "710b0732e74c4fca2c38eafdbbc4db131118c2d2057dfa843c4155f21cd8269b",
        "r2": "e6503c4d4599ec9d1584de8672b252fa22e8936e6281292c7526bd6b47175e4d",
        "r3": "e54cea581f259a93eb7ae3fbcc3a1d7f42ca8502d24b9a3a68195f29793e410b",
    },
    {
        "header": "2d87ceb7c8defd95354eaac0c49524e7a2b088a39a37bd284384a926c5272979",
        "metadata": "73870b39d2d4f0508332f514fd2b63fbc3f5548d87fee93727716e258d88c6a2",
        "r1": "3d55005c94a7539d6d66a8881de1b7f74bd3e431629ba58d0a84c960ec7c4114",
        "r2": "d01a4f4d8cce7fcf3e290be9de03c073060d8c4ab475a3d81656675984589c1d",
        "r3": "a065da001717a8e0237288402c81adbfa9caa2e3af7dde1ecff8e9631d2798f2",
        "remap": "e9aa3c50721c2a3616533c3aa475f5ff81151e1eb7996a925c0a256765f42387",
    },
    {
        "header": "faef8111eeb267220c85a36a8bf60fbab5d47af20f82577b0e35dff4e12a9b07",
        "metadata": "2db28c9b8cccf99a7382d21533fc659be9e3186c6670537628b77291eedf7991",
        "r1": "35f93234536ad9530d21c14a33cb9a3d0a9c64cdab53f4b38b54a2d3ffc6599f",
        "r2": "a169364022a0a19702872c66432f601b522f8d8770f882dbdec654e404dc3924",
        "r3": "3c4172ffcb16b3c2eab9d02b5dca52497aad154eb8451075f3ddab5ef70e9423",
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
