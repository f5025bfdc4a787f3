"""SicHash: perfect hashing via small overloaded irregular cuckoo
tables whose per-key hash-function choice lives in compact retrieval
stores, plus a load-threshold solver and overloading experiments."""

from .cuckoo import (
    BucketInput,
    PlacementResult,
    RattleTable,
    build_bucket,
    incremental_load_experiment,
)
from .errors import ConstructionError, DeserializationError, SicHashError
from .hashing import MasterHash, bucket_of, cell_of, master_hash
from .phf import (
    BucketMetaArray,
    BuildStats,
    PhfConfig,
    SicHashPhf,
    SpaceBreakdown,
    build,
    class_fractions,
)
from .retrieval import RetrievalStore
from .succinct import BitVector, EliasFanoSeq, GolombRiceSeq
from .thresholds import ClassMix, ThresholdSolution, g_A, F_of_lambda, solve_threshold

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "BucketInput",
    "BucketMetaArray",
    "BuildStats",
    "ClassMix",
    "ConstructionError",
    "DeserializationError",
    "EliasFanoSeq",
    "F_of_lambda",
    "GolombRiceSeq",
    "MasterHash",
    "PhfConfig",
    "PlacementResult",
    "RattleTable",
    "RetrievalStore",
    "SicHashError",
    "SicHashPhf",
    "SpaceBreakdown",
    "ThresholdSolution",
    "bucket_of",
    "build",
    "build_bucket",
    "cell_of",
    "class_fractions",
    "g_A",
    "incremental_load_experiment",
    "master_hash",
]
