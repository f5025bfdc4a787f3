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
        "f2878a170b9e12c5b8782c765fe824456e8c6aca13853fd37805fbfda09ce5de",
        "c75e6ed21e12449ecb1a09c4669bad72c3accd8efa831ffbe5a516e3e3bfeb20",
    ),
    (
        PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
        "7d7423a8ee04d1b9a163a72771a511949eb729ca0292696face279dd7a710133",
        "31aa6bb53952f821d85ce443de4defeb56ea12f6e5c717f1defd4637fcae43f3",
    ),
    (
        PhfConfig(alpha=0.90, x=0.66),
        "9bd990fb3e1bbe3a1e42314999b2a773cfa6ed877d11550deb7e4865322b45c1",
        "9155b3e690a5e1b8b8d6f94032b5ab7e54edf8ef14f243fdbf49381ef45e4cc3",
    ),
]

# sha256 of each blob section, in the order of GOLDEN
SECTIONS = [
    {
        "header": "73b565cf856427cde6dda57edfdcfb620a0600986ca01bfece8c0488b0357463",
        "metadata": "c703ba4dc14e6ca2f1177d074758ac2e7aed0a1ab10a3f919896a991316dbfe5",
        "r1": "139d78933bc55c9031774f32c7309c7fd98bb1bd4951567011fbdd3d7e7e5115",
        "r2": "b621fec7c78bdf59848a5a73cf1cf020bf920c83ee4fa9e00af88a73a6511cee",
        "r3": "e539c24f1b4c5e1c01e9c4ebe48fdc0dd3cf71ae4095b8c7acff79261284c95d",
    },
    {
        "header": "dbe00e787e96fd3c86ba003b203bc703879fcffad9c0a6485a8804a3098f96c0",
        "metadata": "c36a315ae872e2bfb0eb27e9e039dad3a54dbcef7be69dffaa1c2d46c7c28a5b",
        "r1": "caad9fb1b3939676b38833d4521e510e777afe6993ade7b371a9e2293e37e191",
        "r2": "c8f89457f5dc005f8c2cdce26d50a15330e21634942398c0f795e5d4ad0947f3",
        "r3": "1baed2e15a29cc8e717f92c0fd524ee200c9a60ece363ef94c9301bc3272d0f6",
        "remap": "d119c60aa4e5793c201b4a4e84c13a6ade195356fd8af73d5f449c6854fc295e",
    },
    {
        "header": "1f8edbbb8eaf798476e330d0e872fd412b01db47dfbb3f0d6438d625de8097b1",
        "metadata": "c703ba4dc14e6ca2f1177d074758ac2e7aed0a1ab10a3f919896a991316dbfe5",
        "r1": "84a64663caec4a03f24486515fa0703de517d85ebd98be55716e40fa0847039c",
        "r2": "d7879c73b6181201d0eececf24ebbdc107289844597b25b06e12969f91607cd3",
        "r3": "3b511ebf46e1ee8c196982dd940aa2e807fa9c3ffb52bc35f79b09b8d9ff4fd3",
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
