"""Pinned outputs: the serialized blob and the batch evaluation of a fixed
key set must stay byte-identical.

A change that alters outputs on purpose re-pins these digests and says
so in CHANGES.md.  The per-section digests show which part of the blob
moved: the header (magic, flags, config, n, m_total), the bucket
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
        "6ca699124f1100ddf3afab886ab09ee7b22c124730addf8202da49fe254653a8",
        "c75e6ed21e12449ecb1a09c4669bad72c3accd8efa831ffbe5a516e3e3bfeb20",
    ),
    (
        PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
        "e4a1216c841d1835828cca39a04ecfff8d94e45d1d26002f5ca6b5d6733931f5",
        "31aa6bb53952f821d85ce443de4defeb56ea12f6e5c717f1defd4637fcae43f3",
    ),
    (
        PhfConfig(alpha=0.90, x=0.66),
        "5b9bcb4b58fb893c531c678a5e4277df23a380e85b9a46359362b2e1ac947336",
        "9155b3e690a5e1b8b8d6f94032b5ab7e54edf8ef14f243fdbf49381ef45e4cc3",
    ),
]

# sha256 of each blob section, in the order of GOLDEN
SECTIONS = [
    {
        "header": "5961b055a4abc451f982c05efe336bc319ceeb68149f702bd4ad373963456875",
        "metadata": "c703ba4dc14e6ca2f1177d074758ac2e7aed0a1ab10a3f919896a991316dbfe5",
        "r1": "139d78933bc55c9031774f32c7309c7fd98bb1bd4951567011fbdd3d7e7e5115",
        "r2": "b621fec7c78bdf59848a5a73cf1cf020bf920c83ee4fa9e00af88a73a6511cee",
        "r3": "e539c24f1b4c5e1c01e9c4ebe48fdc0dd3cf71ae4095b8c7acff79261284c95d",
    },
    {
        "header": "be4167f618cabee766627df2f1dfc9cdcef242b8e42df59aeb76fd93158819af",
        "metadata": "c36a315ae872e2bfb0eb27e9e039dad3a54dbcef7be69dffaa1c2d46c7c28a5b",
        "r1": "caad9fb1b3939676b38833d4521e510e777afe6993ade7b371a9e2293e37e191",
        "r2": "c8f89457f5dc005f8c2cdce26d50a15330e21634942398c0f795e5d4ad0947f3",
        "r3": "1baed2e15a29cc8e717f92c0fd524ee200c9a60ece363ef94c9301bc3272d0f6",
        "remap": "d119c60aa4e5793c201b4a4e84c13a6ade195356fd8af73d5f449c6854fc295e",
    },
    {
        "header": "49eca4fbe1ca61b886509c909d29462c792a5fc037c8f3a95d285219f2d31c77",
        "metadata": "c703ba4dc14e6ca2f1177d074758ac2e7aed0a1ab10a3f919896a991316dbfe5",
        "r1": "84a64663caec4a03f24486515fa0703de517d85ebd98be55716e40fa0847039c",
        "r2": "d7879c73b6181201d0eececf24ebbdc107289844597b25b06e12969f91607cd3",
        "r3": "3b511ebf46e1ee8c196982dd940aa2e807fa9c3ffb52bc35f79b09b8d9ff4fd3",
    },
]

# magic, flags, alpha, beta, x, bucket_size, global_seed, epsilon_r, n, m_total
HEADER_BYTES = 8 + 1 + 8 * 8


def _sections(blob: bytes) -> dict[str, bytes]:
    """Split a blob into its sections, following the layout in sichash.phf."""
    out = {"header": blob[:HEADER_BYTES]}
    r = Reader(blob[HEADER_BYTES:-4])  # the crc32 trailer is pinned with the blob
    out["metadata"] = r.blob()
    for _ in range(r.u8()):
        store = r.blob()
        out[f"r{store[8]}"] = store  # the store's u8 r follows its magic
    if r.u8():
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
