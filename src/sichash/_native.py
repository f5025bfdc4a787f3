"""The package's native kernels, one CPython extension module compiled
from ``_native.c``.

It holds seven kernels, each called with Python objects: the batch
master hash of :func:`~sichash.hashing.master_hash_many`, the retrieval
store attempt of :func:`~sichash.retrieval._solve` (rows derived, sorted
by start, eliminated and written as plane words in one call), the
counting sort of a build's master hashes by bucket and by class of
:func:`~sichash.phf._partition`, the cell derivation and rattle-kicking
placement of :func:`~sichash.cuckoo.build_bucket`, the scalar and batch
query of :class:`~sichash.phf.SicHashPhf`, which runs from a
``lib.Plan``, the Elias-Fano decode of
:meth:`~sichash.succinct.EliasFanoSeq.to_array`, and the CRC-32 of a
function's blob, :func:`sichash._wire.crc32`.  ``plan.query_keys``, which
answers :meth:`~sichash.phf.SicHashPhf.evaluate_many`, hashes and answers
each block of keys in one call, with the block gather of the batch hash.
``crc32_fold`` folds 64-byte blocks with carry-less multiplies where the
module's init finds PCLMULQDQ and SSE4.1 (``__builtin_cpu_supports`` on
x86-64), and :func:`zlib.crc32` finishes the last 15 bytes or fewer; on
every other CPU and host, and for inputs under 64 bytes, zlib takes the
whole input.  Each entry point checks the item sizes and lengths of the
arrays it is given, and takes every argument by position.  Each caller
reads :data:`lib` when it is called and runs its pure-Python, numpy or
zlib reference when :data:`lib` is None, so setting it to None switches
every kernel off at once.  The C source holds no derivation constant:
:func:`_command` compiles each entry of
:data:`sichash.hashing.QUERY_CONSTANTS` into it as a macro,
``SICHASH_<NAME>``, so every kernel takes only its data.  The batch hash
and the plan share one C copy of the master hash and take the seed's
lanes from :func:`sichash.hashing.seed_lanes`; the plan and the
placement share one C cell derivation, and the plan and the store build
one C row derivation, under the row keys of
:func:`sichash.hashing.row_keys`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

from .hashing import QUERY_CONSTANTS

_SOURCE = Path(__file__).with_name("_native.c")
#: where ``Python.h`` is; without it nothing is compiled
_INCLUDE = Path(sysconfig.get_paths()["include"])
#: compiler command; the flags avoid -march=native so a cached library
#: also runs on another CPU of the same platform (the CRC's PCLMULQDQ fold
#: is chosen at run time)
_CC = (*shlex.split(sysconfig.get_config_var("CC") or "cc"), "-O3", "-shared", "-fPIC")
#: the extension module's name; its init function is ``PyInit_lib``
_NAME = "sichash._native.lib"


def _command(out: Path, *flags: str) -> list[str]:
    """The command that compiles the source into ``out``: :data:`_CC`, any
    extra ``flags``, then each entry of :data:`~sichash.hashing.QUERY_CONSTANTS`
    as ``-DSICHASH_<NAME>=<value>ULL``."""
    macros = [f"-DSICHASH_{name.upper()}={value:#x}ULL" for name, value in QUERY_CONSTANTS.items()]
    return [*_CC, *flags, *macros, f"-I{_INCLUDE}", "-o", str(out), str(_SOURCE)]


def _load_kernel(cache: Path):
    """The extension module, compiled into ``cache`` if not there yet, or
    None when it cannot be had: a big-endian host, no ``Python.h``, no
    compiler, an unwritable cache or a file that fails to import.

    The cached file is named after the SHA-256 of the source and of the
    constants' ``-D`` flags, the platform and the interpreter's extension
    suffix, so another interpreter, or another set of constants, never
    loads this one's build.  A fresh compile deletes the files that older
    sources left in ``cache`` for the same platform and suffix.
    """
    if sys.byteorder != "little":
        return None
    try:
        macros = [flag for flag in _command(Path()) if flag.startswith("-DSICHASH_")]
        digest = hashlib.sha256(_SOURCE.read_bytes() + " ".join(macros).encode()).hexdigest()
        platform = sysconfig.get_platform()
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        lib = cache / f"_native-{digest}-{platform}{suffix}"
        if not lib.exists():
            if not (_INCLUDE / "Python.h").is_file():
                return None
            cache.mkdir(exist_ok=True)
            # concurrent imports each compile to their own name; the
            # rename is atomic, so none loads a half-written file
            tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
            try:
                subprocess.run(_command(tmp), check=True, capture_output=True, timeout=120)
                os.replace(tmp, lib)
            finally:
                tmp.unlink(missing_ok=True)
            for old in cache.glob(f"_native-*-{platform}{suffix}"):
                if old != lib:
                    with contextlib.suppress(OSError):
                        old.unlink()
        # the suffix selects importlib's ExtensionFileLoader
        spec = importlib.util.spec_from_file_location(_NAME, lib)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError, subprocess.SubprocessError):
        return None
    return module


#: the extension module, compiled once, here at import, so that no timed
#: call pays for it; None switches every caller to its Python path
lib = _load_kernel(Path(__file__).with_name("__pycache__"))
