"""Per-mesh preprocessing pipeline and its on-disk cache.

Preprocessing (Laplacian assembly, eigensolve, clustering) dominates the
cost of working with a mesh, so the result is cached in one container file
per mesh. A cache is keyed by the mesh content hash and a fingerprint of
the preprocessing parameters; loading verifies both so a stale file can
never be silently reused after the mesh or the settings change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict, field

import numpy as np

from .binio import Sections, read_container, str_to_array, write_container
from .mesh import Mesh, assemble_laplacian, compute_vertex_normals
from .spectral import build_hierarchy, build_input_features, normalize_positions, solve_eigs


# Changes whenever the features a mesh yields change, so caches written by an
# earlier version are rebuilt rather than reused.
CACHE_KIND = "meshpool-cache-3"


class CacheMismatchError(ValueError):
    """Cached preprocessing does not match the requested mesh or settings,
    or the file is not a complete feature cache."""


@dataclass(frozen=True)
class PreprocessParams:
    """Everything that influences the preprocessed features and masks."""

    n_eigenvectors: int = 16
    cluster_counts: tuple = (16, 8)

    def __post_init__(self):
        object.__setattr__(self, "cluster_counts", tuple(int(c) for c in self.cluster_counts))

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class FeatureCache:
    """Preprocessed network inputs for one mesh."""

    features: np.ndarray          # (N, 6 + n_eigenvectors)
    eigenvalues: np.ndarray       # (n_eigenvectors + 1,)
    level_masks: list = field(default_factory=list)  # [(N,) int64] per level
    cluster_counts: tuple = ()
    mesh_hash: str = ""
    params_fingerprint: str = ""

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]


def preprocess_mesh(mesh: Mesh, params: PreprocessParams) -> FeatureCache:
    """Run the full pipeline: Laplacian, normals, eigenpairs, clustering.

    The Laplacian comes first so a vertex that belongs to no face is
    rejected before the normals warn about it.
    """
    op = assemble_laplacian(mesh)
    normals = compute_vertex_normals(mesh)
    basis = solve_eigs(op, params.n_eigenvectors)
    positions = normalize_positions(mesh.vertices)
    return FeatureCache(
        features=build_input_features(positions, normals, basis, params.n_eigenvectors),
        eigenvalues=basis.eigenvalues.copy(),
        level_masks=build_hierarchy(positions, params.cluster_counts, areas=op.areas),
        cluster_counts=params.cluster_counts,
        mesh_hash=mesh.content_hash(),
        params_fingerprint=params.fingerprint(),
    )


def save_cache(path, cache: FeatureCache) -> None:
    arrays = {
        "kind": str_to_array(CACHE_KIND),
        "features": cache.features,
        "eigenvalues": cache.eigenvalues,
        "cluster_counts": np.asarray(cache.cluster_counts, dtype=np.int64),
        "mesh_hash": str_to_array(cache.mesh_hash),
        "params_fingerprint": str_to_array(cache.params_fingerprint),
    }
    for i, mask in enumerate(cache.level_masks):
        arrays[f"mask_{i}"] = np.asarray(mask, dtype=np.int64)
    write_container(path, arrays)


def load_cache(path, mesh: Mesh = None, params: PreprocessParams = None) -> FeatureCache:
    """Load a cache, checking it against ``mesh`` and ``params`` when given.

    Raises CacheMismatchError if the container is not a feature cache, lacks
    a section, holds text that is not UTF-8, features that are not float64
    (N, d), eigenvalues that are not float64 1-D or cluster counts and
    masks that are not int64 1-D (each mask N long, with the ids [0, p) of
    its level's count p), or its stored mesh hash, cluster counts or
    parameter fingerprint disagree with what the caller expects.
    """
    sections = Sections(path, read_container(path), CacheMismatchError)
    if "kind" not in sections.arrays or sections.text("kind") != CACHE_KIND:
        raise CacheMismatchError(f"{path}: not a feature cache")
    counts = tuple(int(c) for c in sections.array("cluster_counts", np.int64, (None,)))
    features = sections.array("features", np.float64, (None, None))
    cache = FeatureCache(
        features=features,
        eigenvalues=sections.array("eigenvalues", np.float64, (None,)),
        level_masks=[sections.array(f"mask_{i}", np.int64, (len(features),))
                     for i in range(len(counts))],
        cluster_counts=counts,
        mesh_hash=sections.text("mesh_hash"),
        params_fingerprint=sections.text("params_fingerprint"),
    )
    for i, (mask, count) in enumerate(zip(cache.level_masks, counts)):
        # count <= N first, so that bincount allocates at most N entries
        if not (0 < count <= len(mask) and mask.min() == 0 and mask.max() == count - 1
                and np.bincount(mask).all()):
            raise CacheMismatchError(f"{path}: section mask_{i} ids are not [0, {count})")
    if mesh is not None and cache.mesh_hash != mesh.content_hash():
        raise CacheMismatchError(f"{path}: cached features belong to a different mesh")
    if params is not None and cache.params_fingerprint != params.fingerprint():
        raise CacheMismatchError(f"{path}: cache built with different preprocessing parameters")
    if params is not None and counts != params.cluster_counts:
        raise CacheMismatchError(f"{path}: section cluster_counts is not {params.cluster_counts}")
    return cache


def get_features(mesh: Mesh, params: PreprocessParams, cache_path=None) -> FeatureCache:
    """Load the cache when present and valid, otherwise compute and save it."""
    if cache_path is not None:
        try:
            return load_cache(cache_path, mesh=mesh, params=params)
        except (FileNotFoundError, ValueError):
            pass  # recompute below; ValueError covers container + mismatch errors
    cache = preprocess_mesh(mesh, params)
    if cache_path is not None:
        save_cache(cache_path, cache)
    return cache
