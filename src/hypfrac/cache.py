"""Content-addressed disk cache for the assembled nonlocal form.

Keys are hashes of the defining data (dimension, order, grid nodes), so a
stale entry can never be served for a different configuration.  The key
also hashes the code that built the entry (_code_digest, read once per
process: the bytes of the modules behind the forms and numpy's version),
so a change to the numerics, even one that moves only the last digits or
none, changes every key, and no entry outlives the numerics that produced
it.  Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from functools import lru_cache
from pathlib import Path

import numpy as np

CACHE_ENV = "HYPFRAC_CACHE"
# the modules whose code builds a cached form
_NUMERICS = ("kernel.py", "specfun.py", "funcspace.py", "pipeline.py", "cache.py")


@lru_cache(maxsize=1)
def _code_digest() -> bytes:
    """sha256 of numpy's version and the bytes of the _NUMERICS modules, read
    at the first key of the process, not at import."""
    return hashlib.sha256(np.__version__.encode() + b"".join(
        (Path(__file__).parent / name).read_bytes() for name in _NUMERICS)).digest()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "hypfrac"


def content_key(*parts) -> str:
    h = hashlib.sha256(_code_digest())
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:24]


def atomic_write_npz(path: Path, **arrays):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_npz(path: Path) -> dict | None:
    """Arrays of an npz entry by name; None if it is missing or unreadable.

    The arrays are read before the file is closed.
    """
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None
