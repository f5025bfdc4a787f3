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
        "766af30e4e8ddebed0a8a6a2bc234dd2e3dd06ce832f411b0e7185dbb3e42fc4",
        "b81b1227432636eeaef7af265935910b501924305983c39bb091901b30c9afe6",
    ),
    (
        PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
        "d5b8eba91cc0d57324f856bd0a50a6326aca7e6208d1ea7aee43c3be9d2bacb4",
        "29ef4b560a7754f88da439a3592c2c94007988f5e66ade196c2b17a6295d6358",
    ),
    (
        PhfConfig(alpha=0.90, x=0.66),
        "5079f76afec6b7a706ab1ece928f98e91e03b19b138ce3692544c5cae869e37b",
        "cbd3d520494f5c09f623ba6f6cec072eba6c8881fba150af8b56c57e3fa8756d",
    ),
]

# sha256 of each blob section, in the order of GOLDEN
SECTIONS = [
    {
        "header": "2a27e5d2bbddb3bd71caf915ba5e978349a45eda194139f956659cac0ae93f03",
        "metadata": "2db28c9b8cccf99a7382d21533fc659be9e3186c6670537628b77291eedf7991",
        "r1": "0ea280c5e68fa0516090c8af995acd8558554c7ab7aba998c2591ac4b5c46f9d",
        "r2": "b333aee43366950b2129feca3cd1f740c7c5b0e0104591c2f05efc6df1b4d27d",
        "r3": "c83acb141b29d1c2c5a69314c5845fe5bb0fc7626b6b1908cd16ad74c6620dfd",
    },
    {
        "header": "7227491220331fa0ab820899e8528ec97c054562d70c444b87f6f6a61cb2725d",
        "metadata": "5bb86b2c8a30fe2f4a1ee3354548e2b32d098b7faf8a95354cedd74380dab608",
        "r1": "0072181d3eab8356224af38a3c917e59fb8d8f2772d83a79e3635abaf2930295",
        "r2": "94327bbc7f9ad96531d1c433c3a583fb458f0ba59bf4a036f5afd1d3e6c0b3dd",
        "r3": "2423165be2c0befe3b34d332b03ed560a7537d1b0e54ad02b4231148080b4cb5",
        "remap": "4cc67e8fea3fb55c66c67c2c07ae5f2bc3644f1ef57df607962045a2e697109b",
    },
    {
        "header": "6df398d71d9385b19da6eaa6db614193f3fd6118faa1ae6194da6411d2cff29b",
        "metadata": "2db28c9b8cccf99a7382d21533fc659be9e3186c6670537628b77291eedf7991",
        "r1": "25fef677799757415ced52cc408ee5d755a2d977e1caf9d49ca9bb167f7c7dda",
        "r2": "deaf83f2dd4f65dd78c6cc7f495cfe5a7948d2d1a3ccbb66bcac9eae17c6a1d6",
        "r3": "0f50caa99cd74fdaca78454641566ac7e3e678d659d6dd52ba7997d09d756281",
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
