"""Binary container format and the preprocessing cache built on it."""

import hashlib
import struct

import numpy as np
import pytest

from meshpool.binio import (
    FORMAT_VERSION,
    ContainerDigestError,
    ContainerFormatError,
    ContainerVersionError,
    array_to_str,
    read_container,
    str_to_array,
    write_container,
)
from meshpool.cache import (
    CACHE_KIND,
    CacheMismatchError,
    FeatureCache,
    PreprocessParams,
    get_features,
    load_cache,
    preprocess_mesh,
    save_cache,
)


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

def test_container_roundtrip_many_dtypes(tmp_path):
    arrays = {
        "f64": np.random.default_rng(0).standard_normal((3, 4)),
        "i64": np.arange(-5, 5, dtype=np.int64),
        "u8": np.array([0, 255], dtype=np.uint8),
        "scalar": np.float64(3.5),
        "empty": np.zeros((0, 3)),
        "threed": np.arange(24, dtype=np.int32).reshape(2, 3, 4),
    }
    path = tmp_path / "c.bin"
    write_container(path, arrays)
    back = read_container(path)
    assert set(back) == set(arrays)
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)


def test_container_bytes_are_pinned(tmp_path):
    # the file format is fixed: these bytes must not change, whatever the
    # layout of the arrays handed in
    base = np.arange(24, dtype=np.float64).reshape(4, 6)
    arrays = {
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3), dtype=np.int32),
        "fortran": np.asfortranarray(base),
        "strided": base[::2, ::3],
        "flags": np.array([True, False, True]),
        "text": str_to_array("h\u00e9llo"),
        "int64": np.array([-7], dtype=np.int64),
    }
    path = tmp_path / "c.bin"
    write_container(path, arrays)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2ed31d3c63ee85bf054c59e1877ded22130d3bf350b4a253c09fb355337088a1")
    back = read_container(path)
    assert all(back[name].dtype == arr.dtype and np.array_equal(back[name], arr)
               for name, arr in arrays.items())
    assert array_to_str(back["text"]) == "h\u00e9llo"


def test_container_rejects_wrong_magic(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"a": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerFormatError, match="not a container"):
        read_container(path)


def test_container_rejects_future_version(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"a": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerVersionError):
        read_container(path)


def test_container_detects_single_flipped_payload_byte(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"a": np.arange(16, dtype=np.float64)})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01  # interior of the last array's raw bytes
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerDigestError, match="digest"):
        read_container(path)


def test_container_detects_truncation(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"a": np.arange(16, dtype=np.float64)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises((ContainerFormatError, ContainerDigestError)):
        read_container(path)
    path.write_bytes(blob[:30])  # shorter than the fixed header
    with pytest.raises(ContainerFormatError):
        read_container(path)


def test_container_rejects_trailing_bytes(tmp_path):
    import hashlib
    path = tmp_path / "c.bin"
    write_container(path, {"a": np.zeros(1)})
    blob = path.read_bytes()
    payload = blob[40:] + b"junk"  # keep the digest honest so parsing runs
    path.write_bytes(blob[:8] + hashlib.sha256(payload).digest() + payload)
    with pytest.raises(ContainerFormatError, match="trailing"):
        read_container(path)


def _write_payload(path, payload: bytes) -> None:
    """A container file holding ``payload`` under an honest digest."""
    path.write_bytes(b"MPC1" + struct.pack("<I", FORMAT_VERSION)
                     + hashlib.sha256(payload).digest() + payload)


def _packed(s: str) -> bytes:
    return struct.pack("<I", len(s)) + s.encode()


@pytest.mark.parametrize("section,message", [
    (_packed("a") + _packed("<f8") + struct.pack("<IQQ", 1, 2**59, 2**62), "container truncated"),
    (struct.pack("<I", 2**31) + b"a", "container truncated"),
    (_packed("a") + _packed("<f8") + struct.pack("<I", 2**31), "container truncated"),
    (_packed("a") + _packed("<f8") + struct.pack("<IQQ", 1, 3, 16) + bytes(16),
     "section 'a' has wrong byte count"),
    (_packed("a") + _packed("<f8") + struct.pack("<IQQ", 1, 1, 8) + bytes(4),
     "container truncated"),
], ids=["array-length", "name-length", "ndim", "byte-count", "short-array"])
def test_container_bounds_declared_lengths_by_the_file(tmp_path, section, message):
    # a length that the digest vouches for but the file cannot hold is a
    # ContainerFormatError before anything of that length is allocated
    path = tmp_path / "c.bin"
    _write_payload(path, struct.pack("<I", 1) + section)
    with pytest.raises(ContainerFormatError, match=message):
        read_container(path)


def test_container_write_is_atomic(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"a": np.zeros(4)})
    write_container(path, {"a": np.ones(4)})  # replaces, never truncates in place
    assert np.array_equal(read_container(path)["a"], np.ones(4))
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


# ---------------------------------------------------------------------------
# preprocessing cache
# ---------------------------------------------------------------------------

def test_params_fingerprint_tracks_every_field():
    base = PreprocessParams()
    variants = [
        PreprocessParams(n_eigenvectors=8),
        PreprocessParams(cluster_counts=(8, 4)),
    ]
    prints = {p.fingerprint() for p in variants}
    assert base.fingerprint() not in prints
    assert len(prints) == len(variants)
    assert PreprocessParams(cluster_counts=[16, 8]).fingerprint() == base.fingerprint()


@pytest.fixture(scope="module")
def small_params():
    return PreprocessParams(n_eigenvectors=8, cluster_counts=(6, 3))


@pytest.fixture(scope="module")
def bumpy_cache(bumpy, small_params):
    return preprocess_mesh(bumpy, small_params)


def test_preprocess_mesh_output(bumpy, small_params, bumpy_cache):
    cache = bumpy_cache
    assert cache.features.shape == (bumpy.n_vertices, 6 + 8)
    assert cache.eigenvalues.shape == (9,)
    assert cache.cluster_counts == (6, 3)
    assert [m.max() + 1 for m in cache.level_masks] == [6, 3]
    assert cache.mesh_hash == bumpy.content_hash()
    assert cache.params_fingerprint == small_params.fingerprint()
    assert cache.n_vertices == bumpy.n_vertices


def test_preprocess_is_deterministic(bumpy, small_params, bumpy_cache):
    again = preprocess_mesh(bumpy, small_params)
    assert np.array_equal(again.features, bumpy_cache.features)
    assert np.array_equal(again.eigenvalues, bumpy_cache.eigenvalues)
    for a, b in zip(again.level_masks, bumpy_cache.level_masks):
        assert np.array_equal(a, b)


def test_cache_save_load_roundtrip(tmp_path, bumpy, small_params, bumpy_cache):
    path = tmp_path / "mesh.cache"
    save_cache(path, bumpy_cache)
    back = load_cache(path, mesh=bumpy, params=small_params)
    assert np.array_equal(back.features, bumpy_cache.features)
    assert np.array_equal(back.eigenvalues, bumpy_cache.eigenvalues)
    assert back.cluster_counts == bumpy_cache.cluster_counts
    for a, b in zip(back.level_masks, bumpy_cache.level_masks):
        assert np.array_equal(a, b)
    assert back.mesh_hash == bumpy_cache.mesh_hash
    assert back.params_fingerprint == bumpy_cache.params_fingerprint


def test_cache_rejects_wrong_mesh_or_params(tmp_path, bumpy, sphere2, small_params,
                                            bumpy_cache):
    path = tmp_path / "mesh.cache"
    save_cache(path, bumpy_cache)
    with pytest.raises(CacheMismatchError, match="different mesh"):
        load_cache(path, mesh=sphere2, params=small_params)
    with pytest.raises(CacheMismatchError, match="parameters"):
        load_cache(path, mesh=bumpy, params=PreprocessParams(n_eigenvectors=4))


def test_get_features_computes_then_reuses(tmp_path, bumpy, small_params):
    path = tmp_path / "mesh.cache"
    first = get_features(bumpy, small_params, cache_path=path)
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    second = get_features(bumpy, small_params, cache_path=path)
    assert path.stat().st_mtime_ns == stamp  # untouched on a clean hit
    assert np.array_equal(first.features, second.features)


def test_get_features_recomputes_corrupted_cache(tmp_path, bumpy, small_params):
    path = tmp_path / "mesh.cache"
    reference = get_features(bumpy, small_params, cache_path=path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF  # one corrupt payload byte
    path.write_bytes(bytes(blob))
    healed = get_features(bumpy, small_params, cache_path=path)
    assert np.array_equal(healed.features, reference.features)
    # and the file on disk is valid again
    load_cache(path, mesh=bumpy, params=small_params)


def test_get_features_rebuilds_a_cache_of_the_earlier_solver(tmp_path, bumpy, small_params,
                                                            bumpy_cache):
    # the generalized solver's caches carried kind "meshpool-cache" and
    # features that differ from today's in the last bits
    path = tmp_path / "mesh.cache"
    save_cache(path, bumpy_cache)
    arrays = read_container(path)
    write_container(path, dict(arrays, kind=str_to_array("meshpool-cache"),
                               features=arrays["features"] + 1e-13))
    with pytest.raises(CacheMismatchError, match="not a feature cache"):
        load_cache(path, mesh=bumpy, params=small_params)
    rebuilt = get_features(bumpy, small_params, cache_path=path)
    assert np.array_equal(rebuilt.features, bumpy_cache.features)
    stored = read_container(path)
    assert array_to_str(stored["kind"]) == CACHE_KIND != "meshpool-cache"
    assert np.array_equal(stored["features"], bumpy_cache.features)


def test_get_features_recomputes_on_params_change(tmp_path, bumpy, small_params):
    path = tmp_path / "mesh.cache"
    get_features(bumpy, small_params, cache_path=path)
    other = PreprocessParams(n_eigenvectors=4, cluster_counts=(4, 2))
    refreshed = get_features(bumpy, other, cache_path=path)
    assert refreshed.features.shape[1] == 6 + 4
    assert load_cache(path).params_fingerprint == other.fingerprint()


def test_get_features_without_cache_path(bumpy, small_params):
    cache = get_features(bumpy, small_params)
    assert isinstance(cache, FeatureCache)
    assert cache.features.shape[1] == 14


def test_load_cache_rejects_other_kinds_and_missing_sections(tmp_path, bumpy, small_params,
                                                             bumpy_cache):
    path = tmp_path / "c.mpc"
    save_cache(path, bumpy_cache)
    arrays = read_container(path)
    for drop in ("kind", "features", "mask_1"):
        broken = {k: v for k, v in arrays.items() if k != drop}
        write_container(path, broken)
        with pytest.raises(CacheMismatchError):
            load_cache(path)
    write_container(path, dict(arrays, kind=str_to_array("meshpool-checkpoint")))
    with pytest.raises(CacheMismatchError, match="not a feature cache"):
        load_cache(path)
    not_utf8 = np.array([0xFF, 0xFE], dtype=np.uint8)
    for name, bad, message in (
            ("kind", not_utf8, "section kind is not UTF-8 text"),
            ("mesh_hash", not_utf8, "section mesh_hash is not UTF-8 text"),
            ("mask_0", arrays["mask_0"].astype(np.float64), "section mask_0 holds float64"),
            ("cluster_counts", arrays["cluster_counts"].astype(np.float64),
             "section cluster_counts holds float64")):
        write_container(path, dict(arrays, **{name: bad}))
        with pytest.raises(CacheMismatchError, match=message):
            load_cache(path)
        # the typed error makes get_features rebuild the cache in place
        rebuilt = get_features(bumpy, small_params, cache_path=path)
        assert np.array_equal(rebuilt.features, bumpy_cache.features)
        assert np.array_equal(load_cache(path).level_masks[0], bumpy_cache.level_masks[0])
