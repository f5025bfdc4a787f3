"""The package's one native library, compiled from ``_native.c``.

It holds four kernels: the batch BLAKE2b of
:func:`~sichash.hashing.master_hash_many`, the retrieval solve of
:func:`~sichash.retrieval._solve`, the rattle-kicking placement of
:func:`~sichash.cuckoo.build_bucket` and the scalar and batch query of
:class:`~sichash.phf.SicHashPhf`, which runs from a :class:`QueryPlan`.
Each caller reads :data:`lib` when it is called and runs its pure-Python
reference when :data:`lib` is None, so setting it to None switches every
kernel off at once.  No kernel holds a derivation constant: the query
kernel gets them from :mod:`sichash.hashing` through the plan.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.c")
#: compiler command; the flags avoid -march=native so a cached library
#: also runs on another CPU of the same platform
_CC = (*shlex.split(sysconfig.get_config_var("CC") or "cc"), "-O3", "-shared", "-fPIC")
_P, _I64, _U64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64


class QueryPlan(ctypes.Structure):
    """The query kernel's plan, field for field the ``sichash_plan`` of
    ``_native.c``; the pointers address uint64 arrays that its owner keeps."""

    _fields_ = [
        ("keyed", _U64 * 8),
        ("empty", _U64 * 8),
        ("m1", _U64),
        ("m2", _U64),
        ("golden", _U64),
        ("fold", _U64),
        ("cell_salt", _U64),
        ("t1", _U64),
        ("t2", _U64),
        ("num_buckets", _U64),
        ("limit", _U64),
        ("starts", _P),
        ("sizes", _P),
        ("seeds", _P),
        ("remap", _P),
        ("row_keys", (_U64 * 2) * 3),
        ("spans", _U64 * 3),
        ("planes", (_P * 3) * 3),
    ]


_PLAN = ctypes.POINTER(QueryPlan)
#: the library's functions, with their argument and result types
_SIGNATURES = {
    "sichash_blake2b128_batch": ([ctypes.c_char_p, _P, _I64, _U64, _P, _P], None),
    "sichash_ribbon_solve": ([_P, _P, _P, _I64, _I64, ctypes.c_int, _P, _P, _P, _I64],
                             ctypes.c_int),
    "sichash_rattle_place": ([_P, _P, _P, _I64, _I64, _P, _P], _I64),
    "sichash_query_init": ([_PLAN, _U64], None),
    "sichash_query_key": ([_PLAN, ctypes.c_char_p, _I64], _U64),
    "sichash_query_hashes": ([_PLAN, _P, _P, _I64, _P], None),
}


def _load_kernel(cache: Path):
    """The native library, compiled into ``cache`` if not there yet, or
    None when it cannot be had: a big-endian host, no compiler, an
    unwritable cache or a library that fails to load.

    A fresh compile deletes the libraries that older sources left in
    ``cache`` for the same platform.
    """
    if sys.byteorder != "little":
        return None
    try:
        digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()
        platform = sysconfig.get_platform()
        lib = cache / f"_native-{digest}-{platform}.so"
        if not lib.exists():
            cache.mkdir(exist_ok=True)
            # concurrent imports each compile to their own name; the
            # rename is atomic, so none loads a half-written file
            tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
            try:
                subprocess.run([*_CC, "-o", str(tmp), str(_SOURCE)],
                               check=True, capture_output=True, timeout=120)
                os.replace(tmp, lib)
            finally:
                tmp.unlink(missing_ok=True)
            # ``_blake2b`` is the library's name from before it held the solve
            for stem in ("_native", "_blake2b"):
                for old in cache.glob(f"{stem}-*-{platform}.so"):
                    if old != lib:
                        with contextlib.suppress(OSError):
                            old.unlink()
        native = ctypes.CDLL(str(lib))
    except (OSError, subprocess.SubprocessError):
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(native, name)
        fn.argtypes, fn.restype = argtypes, restype
    return native


#: the native library, compiled once, here at import, so that no timed
#: call pays for it; None switches every caller to its Python path
lib = _load_kernel(Path(__file__).with_name("__pycache__"))
