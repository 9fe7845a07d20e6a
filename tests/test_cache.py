import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypfrac.cache
from hypfrac.cache import atomic_write_npz, content_key, default_cache_dir, load_npz
from hypfrac.pipeline import build_forms


def test_env_var_overrides_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("HYPFRAC_CACHE", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("HYPFRAC_CACHE")
    assert "hypfrac" in str(default_cache_dir())


def test_content_key_distinguishes_grids():
    a = content_key("forms", 3, "0.5", np.linspace(0, 1, 10))
    b = content_key("forms", 3, "0.5", np.linspace(0, 1, 11))
    c = content_key("forms", 3, "0.25", np.linspace(0, 1, 10))
    assert len({a, b, c}) == 3


def _key_of(root):
    """content_key of one fixed entry in a fresh process on the package
    under root."""
    code = ("import numpy as np; from hypfrac.cache import content_key; "
            "print(content_key('forms', 3, '0.5', np.linspace(0, 1, 10)))")
    return subprocess.run([sys.executable, "-c", code], check=True,
                          env={**os.environ, "PYTHONPATH": str(root)},
                          capture_output=True, text=True).stdout


def test_content_key_covers_the_code_of_the_numerics(tmp_path):
    # an entry is keyed by the code that built it: a byte-identical copy of
    # the package keys it alike, one comment byte added to kernel.py does not
    package = Path(hypfrac.cache.__file__).parent
    shutil.copytree(package, tmp_path / "hypfrac",
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = _key_of(tmp_path)
    assert before == _key_of(package.parent)
    with open(tmp_path / "hypfrac" / "kernel.py", "a") as fh:
        fh.write("#")
    assert _key_of(tmp_path) != before


def test_atomic_write_roundtrip(tmp_path):
    path = tmp_path / "nested" / "entry.npz"
    atomic_write_npz(path, x=np.arange(4.0))
    data = load_npz(path)
    assert np.array_equal(data["x"], np.arange(4.0))
    assert load_npz(tmp_path / "missing.npz") is None


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open files")
def test_load_npz_closes_its_file(tmp_path):
    path = tmp_path / "entry.npz"
    atomic_write_npz(path, x=np.arange(4.0))
    before = len(os.listdir("/proc/self/fd"))
    data = load_npz(path)
    assert len(os.listdir("/proc/self/fd")) == before
    assert np.array_equal(data["x"], np.arange(4.0))


def test_pipeline_cache_hit_reproduces(tmp_path):
    _, built = build_forms(3, 0.25, r_max=8.0, n=64, cache_dir=tmp_path)
    _, hit = build_forms(3, 0.25, r_max=8.0, n=64, cache_dir=tmp_path)
    for name in ("stiffness", "nonlocal_mat"):
        assert np.array_equal(getattr(hit, name), getattr(built, name)), name
    entries = list(tmp_path.glob("forms_*.npz"))
    assert len(entries) == 1
    # the stiffness is rebuilt from the grid on a hit, never stored
    assert tuple(load_npz(entries[0])) == ("nonlocal_mat",)


def test_pipeline_recovers_from_corrupt_entry(tmp_path):
    _, built = build_forms(3, 0.25, r_max=8.0, n=64, cache_dir=tmp_path)
    entry = next(tmp_path.glob("forms_*.npz"))
    entry.write_bytes(b"garbage")
    _, rebuilt = build_forms(3, 0.25, r_max=8.0, n=64, cache_dir=tmp_path)
    for name in ("stiffness", "nonlocal_mat"):
        assert np.array_equal(getattr(rebuilt, name), getattr(built, name)), name
