"""Triangle meshes and their cotangent Laplace operator.

A mesh is a vertex array plus counter-clockwise triangle indices. ``Mesh``
is the one place that checks them (finite coordinates of at most
``MAX_COORDINATE`` in magnitude; face indices in range, three distinct
vertices, area above tolerance, no face repeating another's vertex set, at
most two faces per edge, no edge traversed twice in the same direction);
``load_obj`` only parses ASCII OBJ and maps a rejected face back to its
line. This module also computes per-vertex normals and one-third
barycentric vertex areas, and assembles the sparse cotangent weight matrix
together with its degree and area diagonals, rejecting a mesh of more than
one connected component.
The weighted Laplacian acting on vertex functions is ``inv(A) @ (D - W)``;
downstream code solves the equivalent generalized symmetric problem
``(D - W) x = lam * A x``, in the standard form that the diagonal ``A``
allows.

Import rule: loading, checking and writing a mesh use numpy only, so the
commands that work from cached features never load scipy. ``scipy.sparse``
is imported inside the functions that assemble a sparse matrix
(``assemble_laplacian`` and ``LaplacianOperator.stiffness``).
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

# Each cotangent term is clamped to +-cot(1 degree) before assembly to guard
# near-degenerate triangles.
COT_CLAMP = 1.0 / np.tan(np.radians(1.0))

# Faces with area at or below this fraction of the squared bounding-box
# diagonal are rejected as degenerate (so are all faces of a mesh whose
# vertices coincide).
DEGENERATE_AREA_FACTOR = 1e-12

# A face area takes the norm of a cross product, a fourth power of the
# coordinates; beyond this magnitude it could overflow float64.
MAX_COORDINATE = 1e75


class MeshError(ValueError):
    """Invalid mesh data; ``face`` is the index of the rejected face when a
    single face is at fault, else None."""

    def __init__(self, message, face=None):
        super().__init__(message)
        self.face = face


class MeshLoadError(MeshError):
    """OBJ parsing or validation failure; message names file and line."""


@dataclass
class Mesh:
    """Triangle mesh with validated connectivity.

    Parameters
    ----------
    vertices : ndarray (n, 3) float64
        Vertex positions in model units.
    faces : ndarray (m, 3) int64
        Vertex-index triples, counter-clockwise orientation.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        self.faces = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) array")
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(nonfinite):
            raise MeshError(f"vertex {int(nonfinite[0])} has a non-finite coordinate")
        huge = np.flatnonzero((np.abs(self.vertices) > MAX_COORDINATE).any(axis=1))
        if len(huge):
            raise MeshError(f"vertex {int(huge[0])} has a coordinate beyond "
                            f"{MAX_COORDINATE:.0e} in magnitude")
        n = self.vertices.shape[0]
        f = self.faces
        if f.size:
            _reject_first((f < 0).any(axis=1) | (f >= n).any(axis=1),
                          f"face index out of range (mesh has {n} vertices)")
            _reject_first((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2]),
                          "face {face} repeats a vertex")
            _reject_first(face_areas(self) <= self.degenerate_area_threshold(),
                          "face {face} is degenerate (area not above tolerance)")
            corners = np.sort(f, axis=1)
            _reject_first(_earlier_repeats(corners[:, 0] * n + corners[:, 1], corners[:, 2]) > 0,
                          "face {face} repeats the vertices of an earlier face")
            # undirected edge (lo, hi) as the key lo * n + hi, three per face
            lo = np.minimum(f, f[:, [1, 2, 0]]).ravel()
            hi = np.maximum(f, f[:, [1, 2, 0]]).ravel()
            third = np.flatnonzero(_earlier_repeats(lo * n + hi) > 1)
            if len(third):
                face = int(third[0]) // 3
                raise MeshError(f"face {face} is a third face on edge ({lo[third[0]]}, "
                                f"{hi[third[0]]}) (non-manifold edge)", face=face)
            # directed edge (a, b) as the key a * n + b: two faces that share
            # an edge must traverse it in opposite directions
            tail = f.ravel()
            head = f[:, [1, 2, 0]].ravel()
            again = np.flatnonzero(_earlier_repeats(tail * n + head) > 0)
            if len(again):
                face = int(again[0]) // 3
                raise MeshError(f"face {face} traverses edge ({tail[again[0]]}, {head[again[0]]}) "
                                "in the same direction as an earlier face (inconsistent "
                                "orientation)", face=face)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def degenerate_area_threshold(self) -> float:
        return DEGENERATE_AREA_FACTOR * bounding_box_diagonal(self.vertices) ** 2

    def content_hash(self) -> str:
        """sha256 over the raw vertex and face data."""
        h = hashlib.sha256()
        h.update(self.vertices.tobytes())
        h.update(self.faces.tobytes())
        return h.hexdigest()


def _reject_first(bad: np.ndarray, message: str) -> None:
    """Raise MeshError for the first face flagged in ``bad``; ``message`` may
    name it as ``{face}``."""
    if bad.any():
        face = int(np.flatnonzero(bad)[0])
        raise MeshError(message.format(face=face), face=face)


def _earlier_repeats(*keys: np.ndarray) -> np.ndarray:
    """For entry i of equal-length key arrays, the number of entries before
    i whose keys all equal entry i's."""
    pos = np.arange(len(keys[0]))
    order = np.lexsort((pos,) + keys[::-1])
    new_run = pos == 0
    for key in keys:
        ranked = key[order]
        new_run[1:] |= ranked[1:] != ranked[:-1]
    rank = np.empty(len(pos), dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(new_run, pos, 0))
    return rank


def bounding_box_diagonal(vertices: np.ndarray) -> float:
    if len(vertices) == 0:
        return 0.0
    extent = vertices.max(axis=0) - vertices.min(axis=0)
    return float(np.linalg.norm(extent))


def face_cross_products(mesh: Mesh) -> np.ndarray:
    """Per-face cross product (v1-v0) x (v2-v0); twice the area-weighted normal."""
    v = mesh.vertices
    f = mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def face_areas(mesh: Mesh) -> np.ndarray:
    return 0.5 * np.linalg.norm(face_cross_products(mesh), axis=1)


def load_obj(path) -> Mesh:
    """Parse an ASCII OBJ file with triangular faces.

    Only ``v`` and ``f`` records are consumed; normals, texture coordinates
    and every other record type are skipped. OBJ's 1-based face indices are
    converted to 0-based; a negative index is relative and counts back from
    the vertices read so far (-1 is the latest). Quads and larger polygons
    are rejected. The faces are checked once, by ``Mesh``, and a rejected
    face is reported with its line.

    Raises
    ------
    MeshLoadError
        On malformed records, non-triangular faces, index 0, out-of-range
        indices, repeated vertices within a face, or degenerate faces; the
        message names the offending line. A coordinate that is not finite
        or beyond ``MAX_COORDINATE`` is reported with the file and the
        vertex number.
    """
    vertices = []
    faces = []
    face_lines = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            kind = tokens[0]
            if kind == "v":
                if len(tokens) < 4:
                    raise MeshLoadError(f"{path}:{lineno}: vertex record needs 3 coordinates")
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError:
                    raise MeshLoadError(f"{path}:{lineno}: malformed vertex coordinate") from None
            elif kind == "f":
                if len(tokens) != 4:
                    raise MeshLoadError(f"{path}:{lineno}: non-triangular face ({len(tokens) - 1} vertices)")
                idx = []
                for tok in tokens[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshLoadError(f"{path}:{lineno}: malformed face index {tok!r}") from None
                    if i == 0:
                        raise MeshLoadError(f"{path}:{lineno}: face index 0 is not positive")
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                faces.append(idx)
                face_lines.append(lineno)
            # every other record type is ignored
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces_arr = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    try:
        return Mesh(vertices, faces_arr)
    except MeshError as exc:
        where = path if exc.face is None else f"{path}:{face_lines[exc.face]}"
        raise MeshLoadError(f"{where}: {exc}") from None


def write_obj(path, mesh: Mesh) -> None:
    """Write an ASCII OBJ (v/f records only, full float round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.faces + 1:
            fh.write(f"f {a} {b} {c}\n")


def compute_vertex_normals(mesh: Mesh) -> np.ndarray:
    """Unit vertex normals as the area-weighted mean of incident face normals.

    A vertex with no incident face gets the zero vector and a warning.
    """
    accum = np.zeros((mesh.n_vertices, 3))
    cross = face_cross_products(mesh)  # already area-weighted
    for c in range(3):
        np.add.at(accum, mesh.faces[:, c], cross)
    norms = np.linalg.norm(accum, axis=1)
    isolated = norms == 0.0
    if isolated.any():
        warnings.warn(
            f"{int(isolated.sum())} isolated vertex(es) received zero normals",
            stacklevel=2,
        )
    out = np.zeros_like(accum)
    touched = ~isolated
    out[touched] = accum[touched] / norms[touched, None]
    return out


def compute_vertex_areas(mesh: Mesh) -> np.ndarray:
    """Per-vertex area: one third of the summed areas of incident triangles."""
    areas = np.zeros(mesh.n_vertices)
    fa = face_areas(mesh) / 3.0
    for c in range(3):
        np.add.at(areas, mesh.faces[:, c], fa)
    return areas


@dataclass
class LaplacianOperator:
    """Sparse cotangent weights with degree and vertex-area diagonals.

    ``weights`` is exactly symmetric by construction: each undirected edge's
    accumulated half-cotangent is written to both triangle entries from the
    same float. ``degrees[i]`` is the i-th row sum of ``weights``.
    """

    weights: sparse.csr_matrix
    degrees: np.ndarray
    areas: np.ndarray
    clamped_terms: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.areas)

    def stiffness(self) -> sparse.csr_matrix:
        """The symmetric positive semidefinite matrix D - W."""
        from scipy import sparse

        return (sparse.diags(self.degrees) - self.weights).tocsr()


def assemble_laplacian(mesh: Mesh) -> LaplacianOperator:
    """Assemble the half-cotangent edge weights of a triangle mesh.

    The weight of edge (i, j) is ``(cot(a) + cot(b)) / 2`` over the one or
    two triangle corners opposite the edge; boundary edges keep the single
    available term. Each cotangent is clamped to ``+-COT_CLAMP`` and the
    number of clamped terms is reported on the returned operator. The
    vertex areas are the one-third barycentric areas.

    Raises
    ------
    MeshError
        If a vertex belongs to no face: its zero area would make the mass
        matrix singular. If the face edges join the vertices into more than
        one connected component: each component adds a zero eigenvalue, so
        the low eigenvectors mix the component indicators.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    areas = compute_vertex_areas(mesh)
    unreferenced = np.flatnonzero(areas == 0.0)
    if len(unreferenced):
        raise MeshError(f"vertex {int(unreferenced[0])} belongs to no face")
    v = mesh.vertices
    f = mesh.faces
    n = mesh.n_vertices

    rows = []
    cols = []
    vals = []
    clamped = 0
    # corner c is opposite the edge formed by the other two corners
    for c in range(3):
        i = f[:, c]
        j = f[:, (c + 1) % 3]
        k = f[:, (c + 2) % 3]
        u = v[j] - v[i]
        w = v[k] - v[i]
        cross = np.linalg.norm(np.cross(u, w), axis=1)
        cot = np.einsum("ij,ij->i", u, w) / cross
        clipped = np.clip(cot, -COT_CLAMP, COT_CLAMP)
        clamped += int(np.count_nonzero(clipped != cot))
        rows.append(np.minimum(j, k))
        cols.append(np.maximum(j, k))
        vals.append(0.5 * clipped)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    # the graph of face edges: a cotangent weight can be exactly 0
    edges = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_components = connected_components(edges, directed=False)[0]
    if n_components > 1:
        raise MeshError(f"mesh has {n_components} connected components")
    upper = sparse.coo_matrix((np.concatenate(vals), (rows, cols)), shape=(n, n)).tocsr()
    weights = (upper + upper.T).tocsr()
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    return LaplacianOperator(weights=weights, degrees=degrees, areas=areas, clamped_terms=clamped)
