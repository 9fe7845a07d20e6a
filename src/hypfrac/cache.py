"""Content-addressed disk cache for the assembled nonlocal form.

Keys are hashes of the defining data (dimension, order, grid nodes), so a
stale entry can never be served for a different configuration.  The key
also hashes _FORMAT_VERSION, which stands for the numerics that produced
the entry: bump it whenever a change moves the weight matrix W or the
forms, even in the last digits, so that no entry outlives its numerics.
Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

CACHE_ENV = "HYPFRAC_CACHE"
# 2: the even-N kernel is a fixed Gauss rule (moves even-N W at 1e-13)
# 3: entries hold only the nonlocal form, moved at 2e-16 by array assembly
# 4: W's angular rule is graded per pair (W entries move by <= 2.0e-11
#    relative, the nonlocal form by <= 1.1e-15 x max)
# 5: the table interpolant is evaluated by direct index and Horner, the
#    diagonal prefactor's Beta function by lgamma (W entries move by
#    <= 6.9e-15 relative, the nonlocal form by <= 7.0e-16 x max)
# 6: the even-N near-part substitution splits its square root (even-N
#    kernel values move by <= 5.6e-14 relative, N=4 W entries by
#    <= 7.3e-15 relative, the nonlocal form by <= 4.6e-16 x max)
# 7: log K_nu by numpy's Temme series / CF2 instead of scipy's kve (at
#    N = 3, 4, 5 kernel values move by <= 1.4e-14, 3.5e-15, 2.9e-14
#    relative, W entries by <= 7.4e-15, 7.5e-15, 8.1e-15 relative, the
#    nonlocal form by <= 3.3e-17, 5.9e-17, 6.2e-16 x max)
# 8: per-row node sums in W (entries move by <= 6.7e-16 relative)
_FORMAT_VERSION = 8


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "hypfrac"


def content_key(*parts) -> str:
    h = hashlib.sha256()
    h.update(str(_FORMAT_VERSION).encode())
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
