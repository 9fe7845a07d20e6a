import os

import numpy as np
import pytest

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


def test_content_key_covers_format_version(monkeypatch):
    nodes = np.linspace(0, 1, 10)
    before = content_key("forms", 3, "0.5", nodes)
    monkeypatch.setattr("hypfrac.cache._FORMAT_VERSION", 99)
    assert content_key("forms", 3, "0.5", nodes) != before


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
