"""Pinned outputs: the serialized blob and the batch evaluation of a fixed
key set must stay byte-identical.

A change that alters outputs on purpose re-pins these digests and says
so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

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
