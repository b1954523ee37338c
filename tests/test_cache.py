"""Binary container format and the preprocessing cache built on it."""

import hashlib
import math
import random
import struct

import numpy as np
import pytest

from meshpool.binio import (
    FORMAT_VERSION,
    ContainerDigestError,
    ContainerError,
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
from meshpool.model import ModelConfig, init_params
from meshpool.training import CheckpointError, load_checkpoint, save_checkpoint


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


def _packed(s) -> bytes:
    raw = s.encode() if isinstance(s, str) else s
    return struct.pack("<I", len(raw)) + raw


@pytest.mark.parametrize("section,message", [
    (_packed("a") + _packed("<f8") + struct.pack("<IQQ", 1, 2**59, 2**62), "container truncated"),
    (struct.pack("<I", 2**31) + b"a", "container truncated"),
    (_packed("a") + _packed("<f8") + struct.pack("<I", 2**31), "container truncated"),
    (_packed("a") + _packed("<f8") + struct.pack("<IQQ", 1, 3, 16) + bytes(16),
     "section 'a' has wrong byte count"),
    (_packed("a") + _packed("<f8") + struct.pack("<IQQ", 1, 1, 8) + bytes(4),
     "container truncated"),
    (_packed("a") + _packed("<zz") + struct.pack("<IQQ", 1, 1, 8) + bytes(8),
     "section 'a' has unknown dtype '<zz'"),
    (_packed("a") + _packed("V0") + struct.pack("<IQQ", 1, 3, 0),
     "section 'a' has dtype 'V0', which cannot hold array data"),
    (_packed("a") + _packed("S0") + struct.pack("<IQQ", 1, 2**40, 0),
     "section 'a' has dtype 'S0', which cannot hold array data"),
    (_packed("a") + _packed("|O") + struct.pack("<IQQ", 1, 1, 8) + bytes(8),
     "section 'a' has dtype '|O', which cannot hold array data"),
    (struct.pack("<I", 2) + b"\xff\xfe" + _packed("<f8") + struct.pack("<IQQ", 1, 1, 8)
     + bytes(8), "the name of section 0 is not UTF-8"),
    (_packed("a") + struct.pack("<I", 1) + b"\xff" + struct.pack("<IQQ", 1, 1, 8) + bytes(8),
     "the dtype of section 'a' is not UTF-8"),
    (_packed("a") + _packed("<f8") + struct.pack("<I65Q", 65, *[1] * 65) + struct.pack("<Q", 8)
     + bytes(8), r"section 'a' has shape \(1, 1,"),
    (_packed("a") + _packed("<f8") + struct.pack("<IQQQ", 2, 0, 2**63, 0),
     r"section 'a' has shape \(0, 9223372036854775808\)"),
], ids=["array-length", "name-length", "ndim", "byte-count", "short-array", "unknown-dtype",
        "void-0", "bytes-0", "object", "name-not-utf8", "dtype-not-utf8", "ndim-65",
        "huge-dimension"])
def test_container_bounds_declared_lengths_by_the_file(tmp_path, section, message):
    # a length that the digest vouches for but the file cannot hold, or a
    # section header that numpy cannot turn into an array, is a
    # ContainerFormatError naming the file, raised before anything of that
    # length is allocated
    path = tmp_path / "c.bin"
    _write_payload(path, struct.pack("<I", 1) + section)
    with pytest.raises(ContainerFormatError, match=message) as caught:
        read_container(path)
    assert str(caught.value).startswith(f"{path}: ")


def _sections(payload: bytes) -> list:
    """A valid payload as [name, dtype, ndim, shape, byte count, data] per
    section."""
    sections, at = [], 4
    for _ in range(struct.unpack_from("<I", payload)[0]):
        strings = []
        for _ in range(2):
            size = struct.unpack_from("<I", payload, at)[0]
            strings.append(payload[at + 4:at + 4 + size])
            at += 4 + size
        ndim = struct.unpack_from("<I", payload, at)[0]
        shape = list(struct.unpack_from(f"<{ndim}Q", payload, at + 4))
        nbytes = struct.unpack_from("<Q", payload, at + 4 + 8 * ndim)[0]
        at += 12 + 8 * ndim
        sections.append([*strings, ndim, shape, nbytes, payload[at:at + nbytes]])
        at += nbytes
    return sections


def _payload(count: int, sections) -> bytes:
    """The inverse of ``_sections``, declaring ``count`` sections; a section's
    ndim and byte count are written as given, whatever its shape and data,
    and every number wraps to the width of its field."""
    u32, u64 = (1 << 32) - 1, (1 << 64) - 1
    parts = [struct.pack("<I", count & u32)]
    for name, code, ndim, shape, nbytes, data in sections:
        parts += [_packed(name), _packed(code),
                  struct.pack(f"<I{len(shape)}QQ", ndim & u32, *(d & u64 for d in shape),
                              nbytes & u64), data]
    return b"".join(parts)


_FUZZ_ITEMSIZES = {code: np.dtype(code.decode()).itemsize for code in (
    b"<f8", b">f8", b"<f4", b"<i8", b"<i4", b"<u8", b"|u1", b"|b1", b"<c16", b"<M8[s]", b"|V8",
    b"|S8", b"<U2", b"i4,f4", b"(2,)<f4")}
_FUZZ_CODES = [*_FUZZ_ITEMSIZES, b"|V0", b"|S0", b"<U0", b"|O", b"f8,O", b"(2147483648,)f8",
               b"<zz", b"i4,", b"(", b"\xff", b""]
_FUZZ_COUNTS = [0, 1, 2, 7, 8, 9, 64, 65, 2**31, 2**32 - 1]  # u32 fields
_FUZZ_LENGTHS = [0, 1, 2, 8, 2**31, 2**32, 2**40, 2**62, 2**63, 2**64 - 1]  # u64 fields


def _mutate(rng: random.Random, count: int, sections) -> int:
    """Change one header field of one section in place, or the section
    count; returns the count to declare."""
    section = rng.choice(sections)
    name, code, ndim, shape, nbytes, data = section
    what = rng.randrange(8)
    if what == 0:
        return rng.choice(_FUZZ_COUNTS + [count - 1, count + 1])
    if what == 1:
        section[0] = rng.choice([b"", b"\xff\xfe", b"kind", b"features", b"value",
                                 rng.choice(sections)[0], name + b"\x80"])
    elif what == 2:
        section[1] = rng.choice(_FUZZ_CODES)
    elif what == 3:
        section[2] = rng.choice(_FUZZ_COUNTS + [ndim - 1, ndim + 1])
    elif what == 4:
        value = rng.choice(_FUZZ_LENGTHS)
        if shape:
            i = rng.randrange(len(shape))
            shape[i] = rng.choice([value, max(shape[i] - 1, 0), shape[i] + 1])
        else:
            shape.append(value)
    elif what == 5:
        section[4] = rng.choice(_FUZZ_LENGTHS + [max(nbytes - 1, 0), nbytes + 1])
    elif what == 6:  # the same bytes under a dtype of the same itemsize
        size = _FUZZ_ITEMSIZES.get(code)
        section[1] = rng.choice([c for c, s in _FUZZ_ITEMSIZES.items() if s == size] or [code])
    else:  # the same elements under another shape
        elements = math.prod(shape)
        section[3] = rng.choice([[elements], [1, elements], [elements, 1], []
                                 if elements == 1 else [elements]])
        section[2] = len(section[3])
    return count


def _fuzz_bases(tmp_path):
    """(name, valid container path, loader): a small container, a feature
    cache and a checkpoint, each with the loader its files go through."""
    small = tmp_path / "small.bin"
    write_container(small, {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(3, dtype=np.int32),
                            "s": np.float64(1.5)})
    cache = tmp_path / "cache.mpc"
    rng = np.random.default_rng(3)
    save_cache(cache, FeatureCache(rng.standard_normal((5, 7)), rng.standard_normal(2),
                                   [np.array([0, 0, 1, 1, 1])], (2,), "mesh", "params"))
    checkpoint = tmp_path / "model.ckpt"
    config = ModelConfig(in_dim=7, cluster_counts=(2,), update_widths=(3,), corr_width=2,
                         head_hidden=(3,), head_final=3)
    save_checkpoint(checkpoint, init_params(config, 0), config, 0, 0)
    return [("container", small, read_container), ("cache", cache, load_cache),
            ("checkpoint", checkpoint, load_checkpoint)]


FUZZ_SEED, FUZZ_CASES = 17, 600  # cases per base container


def _outcome(load, path) -> str:
    """"loaded", the class name of the typed error ``load(path)`` raised, or
    "crash: <exception>" for any other exception."""
    try:
        load(path)
        return "loaded"
    except (ContainerError, CacheMismatchError, CheckpointError) as exc:
        return type(exc).__name__
    except Exception as exc:  # any other exception is a crash
        return f"crash: {exc!r}"


def test_fuzzed_container_headers_load_or_raise_typed_errors(tmp_path):
    # every case recomputes the digest, so the mutation reaches the parser;
    # a crash is reported as (base, case, exception) and never re-seeded away
    rng = random.Random(FUZZ_SEED)
    path = tmp_path / "fuzzed.bin"
    crashes, outcomes = [], set()
    for base, valid, load in _fuzz_bases(tmp_path):
        payload = valid.read_bytes()[40:]
        for case in range(FUZZ_CASES):
            sections = _sections(payload)
            count = len(sections)
            for _ in range(rng.randint(1, 3)):
                count = _mutate(rng, count, sections)
            _write_payload(path, _payload(count, sections))
            outcome = _outcome(load, path)
            if outcome.startswith("crash"):
                crashes.append((base, case, outcome))
            outcomes.add(outcome)
    assert crashes == []
    assert {"loaded", "ContainerFormatError", "CacheMismatchError",
            "CheckpointError"} <= outcomes


FUZZ_DATA_CASES = 200  # truncations and byte flips per base container


def test_fuzzed_array_data_loads_or_raises_typed_errors(tmp_path):
    # each case cuts the file inside one section's array data or inverts one
    # byte of it, under a recomputed digest; a truncation never loads, an
    # inverted mask byte is an id outside its level, and a crash is reported
    # as (base, case, exception) and never re-seeded away
    rng = random.Random(FUZZ_SEED)
    path = tmp_path / "fuzzed.bin"
    crashes, outcomes = [], set()
    for base, valid, load in _fuzz_bases(tmp_path):
        payload = valid.read_bytes()[40:]
        for case in range(FUZZ_DATA_CASES):
            sections = _sections(payload)
            count = len(sections)
            i = rng.choice([j for j, section in enumerate(sections) if section[5]])
            name, data = sections[i][0], sections[i][5]
            at, truncate = rng.randrange(len(data)), rng.random() < 0.5
            if truncate:
                sections[i][5] = data[:at]
                sections = sections[:i + 1]
            else:
                sections[i][5] = data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
            _write_payload(path, _payload(count, sections))
            outcome = _outcome(load, path)
            if outcome.startswith("crash"):
                crashes.append((base, case, outcome))
            outcomes.add(outcome)
            if truncate:
                expected = "CheckpointError" if base == "checkpoint" else "ContainerFormatError"
                assert outcome == expected, (base, case, name)
            elif base == "cache" and name.startswith(b"mask_"):
                assert outcome == "CacheMismatchError", (base, case, name)
    assert crashes == []
    assert {"loaded", "ContainerFormatError", "CacheMismatchError",
            "CheckpointError"} <= outcomes


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


def test_params_store_python_ints_and_keep_the_default_fingerprint():
    assert PreprocessParams().fingerprint().startswith("01f525351603")  # caches stay valid
    given = PreprocessParams(n_eigenvectors=np.int64(8), cluster_counts=np.array([6, 3]))
    assert type(given.n_eigenvectors) is int and type(given.cluster_counts[0]) is int
    assert given.fingerprint() == PreprocessParams(8, (6, 3)).fingerprint()
    assert PreprocessParams(n_eigenvectors=0).n_eigenvectors == 0


@pytest.mark.parametrize("settings,message", [
    # silently truncated to (6, 3) and (1, 1)
    (dict(cluster_counts=(6.7, 3)),
     "cluster_counts must be a non-empty list of integers of at least 1, got (6.7, 3)"),
    (dict(cluster_counts=(True, 1)),
     "cluster_counts must be a non-empty list of integers of at least 1, got (True, 1)"),
    (dict(cluster_counts=()),
     "cluster_counts must be a non-empty list of integers of at least 1, got ()"),
    (dict(cluster_counts=(4, 0)),
     "cluster_counts must be a non-empty list of integers of at least 1, got (4, 0)"),
    (dict(cluster_counts=8),
     "cluster_counts must be a non-empty list of integers of at least 1, got 8"),
    # a raw ARPACK SystemError in preprocess_mesh
    (dict(n_eigenvectors=8.0), "n_eigenvectors must be an integer, got 8.0"),
    (dict(n_eigenvectors=-1), "n_eigenvectors must be at least 0, got -1"),
    (dict(n_eigenvectors=True), "n_eigenvectors must be an integer, got True"),
], ids=["float-count", "bool-count", "no-counts", "zero-count", "bare-count",
        "float-eigs", "negative-eigs", "bool-eigs"])
def test_params_reject_settings_that_are_not_counts(settings, message):
    with pytest.raises(ValueError) as info:
        PreprocessParams(**settings)
    assert str(info.value) == message


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


def test_load_cache_rejects_other_kinds_and_missing_sections(tmp_path, bumpy, small_params,
                                                             bumpy_cache):
    path = tmp_path / "c.mpc"
    save_cache(path, bumpy_cache)
    arrays = read_container(path)
    for drop, message in (("kind", "not a feature cache"),
                          ("features", "missing section features"),
                          ("mask_1", "missing section mask_1")):
        broken = {k: v for k, v in arrays.items() if k != drop}
        write_container(path, broken)
        with pytest.raises(CacheMismatchError, match=message):
            load_cache(path)
    write_container(path, dict(arrays, kind=str_to_array("meshpool-checkpoint")))
    with pytest.raises(CacheMismatchError, match="not a feature cache"):
        load_cache(path)
    not_utf8 = np.array([0xFF, 0xFE], dtype=np.uint8)
    n = len(arrays["features"])
    for name, bad, message in (
            ("kind", not_utf8, "section kind is not UTF-8 text"),
            ("mesh_hash", not_utf8, "section mesh_hash is not UTF-8 text"),
            ("mask_0", arrays["mask_0"].astype(np.float64), "section mask_0 holds float64"),
            ("cluster_counts", arrays["cluster_counts"].astype(np.float64),
             "section cluster_counts holds float64"),
            ("features", arrays["features"].astype(np.float32),
             f"section features holds float32 \\({n}, 14\\), expected float64 \\(\\*, \\*\\)"),
            ("mask_0", arrays["mask_0"][:-5],
             f"section mask_0 holds int64 \\({n - 5},\\), expected int64 \\({n},\\)"),
            ("eigenvalues", arrays["eigenvalues"][None],
             "section eigenvalues holds float64 \\(1, 9\\), expected float64 \\(\\*,\\)"),
            ("mask_0", np.where(np.arange(n) == 5, 99, arrays["mask_0"]),
             "section mask_0 ids are not \\[0, 6\\)"),
            ("mask_1", np.maximum(arrays["mask_1"], 1),  # id 0 unused
             "section mask_1 ids are not \\[0, 3\\)"),
            ("cluster_counts", np.array([6]),
             "section cluster_counts is not \\(6, 3\\)")):
        write_container(path, dict(arrays, **{name: bad}))
        with pytest.raises(CacheMismatchError, match=message):
            load_cache(path, params=small_params)
        # the typed error makes get_features rebuild the cache in place
        rebuilt = get_features(bumpy, small_params, cache_path=path)
        assert np.array_equal(rebuilt.features, bumpy_cache.features)
        healed = read_container(path)
        for key in (name, "mask_0", "mask_1"):
            assert healed[key].dtype == arrays[key].dtype
            assert np.array_equal(healed[key], arrays[key])
