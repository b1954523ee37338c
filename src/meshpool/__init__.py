"""Spectral features and cluster-pooling networks for triangle meshes.

The pipeline: assemble the cotangent Laplacian of a mesh, solve its
smallest generalized eigenpairs, build per-vertex spectral features and a
multi-level cluster hierarchy from them, and train a pooling network on
the result for vertex labeling or shape classification.
"""

from .mesh import (Mesh, MeshError, MeshLoadError, LaplacianOperator,
                   assemble_laplacian, compute_vertex_areas,
                   compute_vertex_normals, load_obj, write_obj)
from .spectral import (EigensolverError, SpectralBasis,
                       build_hierarchy, build_input_features, solve_eigs)
from .cache import (CacheMismatchError, FeatureCache, PreprocessParams,
                    get_features, load_cache, preprocess_mesh, save_cache)
from .model import ModelConfig, init_params, model_forward
from .training import (CheckpointError, SampleRecord, TrainConfig,
                       TrainingError, evaluate_classification,
                       evaluate_segmentation, load_checkpoint,
                       record_from_cache, save_checkpoint, split_dataset,
                       train)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshError", "MeshLoadError", "LaplacianOperator",
    "assemble_laplacian", "compute_vertex_areas", "compute_vertex_normals",
    "load_obj", "write_obj",
    "EigensolverError", "SpectralBasis",
    "build_hierarchy", "build_input_features", "solve_eigs",
    "CacheMismatchError", "FeatureCache", "PreprocessParams", "get_features",
    "load_cache", "preprocess_mesh", "save_cache",
    "ModelConfig", "init_params", "model_forward",
    "CheckpointError", "SampleRecord", "TrainConfig", "TrainingError",
    "evaluate_classification", "evaluate_segmentation", "load_checkpoint",
    "record_from_cache", "save_checkpoint", "split_dataset", "train",
]
