"""ASCII PLY export with per-vertex colors for labels or cluster ids."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

# 20 visually distinct colors; ids beyond that wrap around
PALETTE = np.array([
    [230, 25, 75], [60, 180, 75], [255, 225, 25], [0, 130, 200],
    [245, 130, 48], [145, 30, 180], [70, 240, 240], [240, 50, 230],
    [210, 245, 60], [250, 190, 212], [0, 128, 128], [220, 190, 255],
    [170, 110, 40], [255, 250, 200], [128, 0, 0], [170, 255, 195],
    [128, 128, 0], [255, 215, 180], [0, 0, 128], [128, 128, 128],
], dtype=np.uint8)


def label_colors(labels) -> np.ndarray:
    """Map integer ids to palette rows (wrapping past 20 entries)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        raise ValueError("ids must be nonnegative")
    return PALETTE[labels % len(PALETTE)]


def write_ply(path, mesh: Mesh, colors) -> None:
    """ASCII PLY with a color per vertex; ``colors`` is an (N, 3) uint8
    array, such as ``label_colors`` gives."""
    colors = np.asarray(colors)
    if colors.shape != (mesh.n_vertices, 3):
        raise ValueError(f"colors must be ({mesh.n_vertices}, 3)")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for (x, y, z), (r, g, b) in zip(mesh.vertices, colors):
        lines.append(f"{x:.9g} {y:.9g} {z:.9g} {r} {g} {b}")
    for a, b, c in mesh.faces:
        lines.append(f"3 {a} {b} {c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
