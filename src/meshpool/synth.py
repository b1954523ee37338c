"""Synthetic closed triangle meshes for tests and desk-scale experiments.

Four shape families (icosphere, torus, capped cylinder, dumbbell) built
from scratch, seeded shape deformations that keep per-vertex labels valid,
and connectivity-changing remeshing (midpoint subdivision plus randomized
edge-collapse decimation). All generators are deterministic for a fixed
seed, and every generated mesh is closed and outward oriented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import integer
from .mesh import Mesh, bounding_box_diagonal

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# (n_segments, n_profile) per dumbbell resolution preset; "c" sits between
# the other two so held-out-resolution evaluation interpolates
DUMBBELL_RESOLUTIONS = {"a": (14, 20), "b": (18, 26), "c": (16, 22)}

CATEGORY_NAMES = ("sphere", "torus", "cylinder", "dumbbell")


@dataclass
class SynthSample:
    """One generated shape; ``labels`` is per-vertex or None."""

    name: str
    mesh: Mesh
    category: int
    labels: np.ndarray = None


def icosahedron() -> Mesh:
    t = GOLDEN
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return Mesh(verts, faces)


def _midpoint_split(vertices, faces):
    """One 1-to-4 subdivision; midpoints shared through an edge dict."""
    verts = list(vertices)
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(0.5 * (vertices[a] + vertices[b]))
        return midpoint[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out, dtype=np.int64)


def subdivide_midpoint(mesh: Mesh) -> Mesh:
    verts, faces = _midpoint_split(mesh.vertices, mesh.faces)
    return Mesh(verts, faces)


def icosphere(subdivisions: int, radius: float = 1.0) -> Mesh:
    """Unit-ish sphere with 10 * 4**n + 2 vertices."""
    base = icosahedron()
    verts, faces = base.vertices, base.faces
    for _ in range(int(subdivisions)):
        verts, faces = _midpoint_split(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return Mesh(verts * radius, faces)


def torus(n_u: int = 12, n_v: int = 12, major: float = 1.0, minor: float = 0.4) -> Mesh:
    u = 2.0 * np.pi * np.arange(n_u) / n_u
    v = 2.0 * np.pi * np.arange(n_v) / n_v
    ring = major + minor * np.cos(v)[None, :]
    verts = np.stack([
        ring * np.cos(u)[:, None],
        ring * np.sin(u)[:, None],
        np.broadcast_to(minor * np.sin(v)[None, :], (n_u, n_v)),
    ], axis=-1).reshape(-1, 3)

    idx = lambda i, j: (i % n_u) * n_v + (j % n_v)
    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            faces.extend([(a, b, c), (a, c, d)])
    return Mesh(verts, np.array(faces, dtype=np.int64))


def lathe(profile_r, profile_z, n_segments: int):
    """Surface of revolution around the z axis, closed by pole fans.

    The profile must start and end at r = 0 (the poles) with positive radii
    in between. Returns the mesh and, per vertex, the index of the profile
    point it came from, which lets callers attach profile-level labels.
    """
    r = np.asarray(profile_r, dtype=np.float64)
    z = np.asarray(profile_z, dtype=np.float64)
    m = len(r)
    if m < 3 or r.shape != z.shape:
        raise ValueError("profile needs >= 3 matching (r, z) samples")
    if r[0] != 0.0 or r[-1] != 0.0 or np.any(r[1:-1] <= 0.0):
        raise ValueError("profile must be 0 at the ends and positive inside")
    s = integer("n_segments", n_segments, ValueError, 3)

    theta = 2.0 * np.pi * np.arange(s) / s
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    n_rings = m - 2
    verts = np.empty((n_rings * s + 2, 3))
    profile_of = np.empty(len(verts), dtype=np.int64)
    verts[0] = (0.0, 0.0, z[0])
    profile_of[0] = 0
    for i in range(n_rings):
        rows = slice(1 + i * s, 1 + (i + 1) * s)
        verts[rows, 0] = r[i + 1] * cos_t
        verts[rows, 1] = r[i + 1] * sin_t
        verts[rows, 2] = z[i + 1]
        profile_of[rows] = i + 1
    top = len(verts) - 1
    verts[top] = (0.0, 0.0, z[-1])
    profile_of[top] = m - 1

    ring = lambda i, j: 1 + i * s + (j % s)
    faces = []
    for j in range(s):
        faces.append((0, ring(0, j + 1), ring(0, j)))
    for i in range(n_rings - 1):
        for j in range(s):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j + 1), ring(i + 1, j)
            faces.extend([(a, b, c), (a, c, d)])
    for j in range(s):
        faces.append((top, ring(n_rings - 1, j), ring(n_rings - 1, j + 1)))
    return Mesh(verts, np.array(faces, dtype=np.int64)), profile_of


def cylinder(n_segments: int = 12, n_rings: int = 12, radius: float = 0.5,
             height: float = 2.0) -> Mesh:
    """Capped cylinder; the end rings are coplanar with the pole fans."""
    z = np.concatenate([[-height / 2], np.linspace(-height / 2, height / 2, n_rings), [height / 2]])
    r = np.concatenate([[0.0], np.full(n_rings, radius), [0.0]])
    mesh, _ = lathe(r, z, n_segments)
    return mesh


def dumbbell(n_segments: int = 14, n_profile: int = 20, ball_radii=(0.55, 0.4),
             ball_center: float = 0.75, neck_radius: float = 0.18):
    """Two unequal balls joined by a cylindrical neck, with 3-part labels.

    Labels: 0 = large ball, 1 = small ball, 2 = neck. The radii differ so
    the two ball parts stay distinguishable by intrinsic shape alone (a
    mirror-symmetric dumbbell would make labels 0 and 1 unlearnable under
    random rotations). Label boundaries sit where each ball arc crosses
    the neck radius.

    Returns (mesh, labels).
    """
    rb0, rb1 = ball_radii
    if not 0.0 < neck_radius < min(rb0, rb1):
        raise ValueError("need 0 < neck_radius < both ball radii")
    z = np.linspace(-(ball_center + rb0), ball_center + rb1, int(n_profile))

    def radius_at(zv):
        arc0 = rb0**2 - (zv + ball_center) ** 2
        arc1 = rb1**2 - (zv - ball_center) ** 2
        r = np.sqrt(np.maximum(np.maximum(arc0, arc1), 0.0))
        neck = np.abs(zv) <= ball_center
        return np.where(neck, np.maximum(r, neck_radius), r)

    r = radius_at(z)
    r[0] = r[-1] = 0.0
    mesh, profile_of = lathe(r, z, n_segments)

    z_junction0 = ball_center - np.sqrt(rb0**2 - neck_radius**2)
    z_junction1 = ball_center - np.sqrt(rb1**2 - neck_radius**2)
    profile_labels = np.full(len(z), 2, dtype=np.int64)
    profile_labels[z < -z_junction0] = 0
    profile_labels[z > z_junction1] = 1
    return mesh, profile_labels[profile_of]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a gaussian, sign-fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def deform(mesh: Mesh, seed, wave_amplitude: float = 0.03,
           scale_range=(0.85, 1.2), rotate: bool = True) -> Mesh:
    """Seeded label-preserving deformation: two smooth sinusoidal
    displacement waves, anisotropic scaling, then a random rotation.

    Wave amplitude is relative to the bounding-box diagonal, kept small so
    faces stay non-degenerate and the surface does not self-intersect.
    """
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    diag = bounding_box_diagonal(v)
    for _ in range(2):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        wavevec = rng.standard_normal(3)
        wavevec /= np.linalg.norm(wavevec)
        freq = rng.uniform(1.0, 3.0) * 2.0 * np.pi / diag
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.3, 1.0) * wave_amplitude * diag
        v += amp * np.sin(freq * (v @ wavevec) + phase)[:, None] * direction
    v *= rng.uniform(*scale_range, size=3)
    if rotate:
        v = v @ random_rotation(rng).T
    return Mesh(v, mesh.faces.copy())


def _vertex_neighbors(faces: np.ndarray, vid: int) -> np.ndarray:
    rows = faces[np.any(faces == vid, axis=1)]
    return np.setdiff1d(np.unique(rows), [vid])


def _collapse_ok(verts, faces, areas_floor, u, v):
    """Manifold link condition plus geometric sanity for collapsing v into u.

    Half-edge collapse: v's faces are re-pointed at u, which keeps its
    position, so surviving vertices never drift off the surface.
    """
    if len(np.intersect1d(_vertex_neighbors(faces, u), _vertex_neighbors(faces, v))) != 2:
        return False
    in_v = np.any(faces == v, axis=1)
    keep = faces[in_v & ~np.any(faces == u, axis=1)]
    before = np.cross(verts[keep[:, 1]] - verts[keep[:, 0]], verts[keep[:, 2]] - verts[keep[:, 0]])
    moved = verts.copy()
    moved[v] = verts[u]
    after = np.cross(moved[keep[:, 1]] - moved[keep[:, 0]], moved[keep[:, 2]] - moved[keep[:, 0]])
    if np.any(np.linalg.norm(after, axis=1) < 2.0 * areas_floor):
        return False
    return bool(np.all(np.einsum("ij,ij->i", before, after) > 0.0))


def decimate(mesh: Mesh, target_vertices: int, seed) -> Mesh:
    """Seeded random edge collapses down to roughly ``target_vertices``.

    Collapses that would break the manifold link condition, flip a face
    normal or produce a near-degenerate face are skipped. Stops early when
    no collapsible edge is left.
    """
    integer("target_vertices", target_vertices, ValueError, 4)  # a tetrahedron
    verts = mesh.vertices.copy()
    faces = mesh.faces.copy()
    rng = np.random.default_rng(seed)
    n_alive = len(verts)
    areas_floor = 1e-10 * bounding_box_diagonal(verts) ** 2

    while n_alive > target_vertices:
        edges = np.unique(np.sort(np.concatenate(
            [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1), axis=0)
        progress = False
        for u, v in edges[rng.permutation(len(edges))]:
            if n_alive <= target_vertices:
                break
            # the snapshot edge may be gone after earlier collapses
            if not np.any(np.any(faces == u, axis=1) & np.any(faces == v, axis=1)):
                continue
            if not _collapse_ok(verts, faces, areas_floor, u, v):
                continue
            faces[faces == v] = u
            degenerate = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 2] == faces[:, 0])
            faces = faces[~degenerate]
            n_alive -= 1
            progress = True
        if not progress:
            break

    used = np.unique(faces)
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return Mesh(verts[used], remap[faces])


def remesh(mesh: Mesh, seed) -> Mesh:
    """Change connectivity while keeping the surface: subdivide then
    decimate back to about the original vertex count."""
    return decimate(subdivide_midpoint(mesh), mesh.n_vertices, seed)


def make_classification_dataset(n_per_class: int = 20, seed: int = 0):
    """Deformed instances of the four shape families, ~150 vertices each."""
    bases = {
        0: icosphere(2),
        1: torus(12, 12, major=1.0, minor=0.4),
        2: cylinder(12, 12, radius=0.5, height=2.0),
        3: dumbbell(12, 14)[0],
    }
    samples = []
    for cat, base in bases.items():
        for i in range(n_per_class):
            shaped = deform(base, seed=[seed, cat, i])
            samples.append(SynthSample(
                name=f"{CATEGORY_NAMES[cat]}_{i:03d}", mesh=shaped, category=cat))
    return samples


def make_segmentation_dataset(n_meshes: int = 40, seed: int = 0):
    """Deformed 3-part dumbbells alternating between resolution presets a and b.

    Category ids are dense in the emitted dataset, so the single shape
    class here is category 0 regardless of its classification class.
    """
    bases = [(res, *dumbbell(*DUMBBELL_RESOLUTIONS[res])) for res in ("a", "b")]
    samples = []
    for i in range(n_meshes):
        res, base, labels = bases[i % len(bases)]
        shaped = deform(base, seed=[seed, i])
        samples.append(SynthSample(
            name=f"dumbbell_{res}_{i:03d}", mesh=shaped, category=0,
            labels=labels.copy()))
    return samples
