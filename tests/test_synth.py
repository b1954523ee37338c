"""Synthetic shape generators, deformation and remeshing."""

import numpy as np
import pytest

from meshpool.mesh import face_areas
from meshpool.synth import (
    CATEGORY_NAMES,
    DUMBBELL_RESOLUTIONS,
    cylinder,
    decimate,
    deform,
    dumbbell,
    icosahedron,
    icosphere,
    make_classification_dataset,
    make_segmentation_dataset,
    random_rotation,
    remesh,
    subdivide_midpoint,
    torus,
)

from conftest import signed_volume


def euler_characteristic(mesh):
    edges = set()
    for a, b, c in mesh.faces:
        for e in ((a, b), (b, c), (a, c)):
            edges.add((min(e), max(e)))
    return mesh.n_vertices - len(edges) + mesh.n_faces


def test_icosahedron_counts_and_radius():
    mesh = icosahedron()
    assert mesh.n_vertices == 12 and mesh.n_faces == 20
    assert np.linalg.norm(mesh.vertices, axis=1) == pytest.approx(np.ones(12))
    assert euler_characteristic(mesh) == 2
    assert signed_volume(mesh) > 0


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_icosphere_counts(s):
    mesh = icosphere(s)
    assert mesh.n_vertices == 10 * 4**s + 2
    assert mesh.n_faces == 20 * 4**s
    assert euler_characteristic(mesh) == 2


def test_icosphere_volume_approaches_sphere():
    vol = signed_volume(icosphere(3, radius=2.0))
    assert vol == pytest.approx(4.0 / 3.0 * np.pi * 8.0, rel=0.01)


def test_subdivision_keeps_vertices_prefix():
    base = icosahedron()
    fine = subdivide_midpoint(base)
    assert np.array_equal(fine.vertices[:12], base.vertices)
    assert fine.n_faces == 4 * base.n_faces


def test_torus_is_genus_one():
    mesh = torus()
    assert euler_characteristic(mesh) == 0
    assert signed_volume(mesh) == pytest.approx(
        2 * np.pi**2 * 1.0 * 0.4**2, rel=0.15)  # 12-gon rings undershoot


def test_cylinder_closed_and_positive():
    mesh = cylinder()
    assert euler_characteristic(mesh) == 2
    assert signed_volume(mesh) == pytest.approx(np.pi * 0.25 * 2.0, rel=0.08)


def test_dumbbell_labels_cover_three_parts():
    mesh, labels = dumbbell()
    assert labels.shape == (mesh.n_vertices,)
    assert set(np.unique(labels)) == {0, 1, 2}
    assert euler_characteristic(mesh) == 2
    # large ball (label 0) sits at negative z, small ball at positive z
    assert mesh.vertices[labels == 0, 2].mean() < 0 < mesh.vertices[labels == 1, 2].mean()
    assert np.count_nonzero(labels == 0) > np.count_nonzero(labels == 1)


def test_dumbbell_resolution_presets_are_valid():
    for res, (n_seg, n_prof) in DUMBBELL_RESOLUTIONS.items():
        mesh, labels = dumbbell(n_seg, n_prof)
        assert set(np.unique(labels)) == {0, 1, 2}, res
        assert signed_volume(mesh) > 0


def test_dumbbell_rejects_fat_neck():
    with pytest.raises(ValueError, match="neck"):
        dumbbell(neck_radius=0.9)


def test_random_rotation_is_proper():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_rotation(rng)
        assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0)


def test_deform_is_seeded_and_label_preserving():
    base = icosphere(1)
    a = deform(base, seed=7)
    b = deform(base, seed=7)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, base.faces)  # topology untouched
    c = deform(base, seed=8)
    assert not np.array_equal(a.vertices, c.vertices)
    assert signed_volume(a) > 0


def test_deform_without_rotation_stays_near_identity():
    base = icosphere(1)
    out = deform(base, seed=1, wave_amplitude=0.0, scale_range=(1.0, 1.0), rotate=False)
    assert np.allclose(out.vertices, base.vertices)


def test_decimate_reaches_target():
    mesh = icosphere(2)
    out = decimate(mesh, 100, seed=0)
    assert out.n_vertices <= 110  # may stall slightly above on hard meshes
    assert out.n_vertices >= 4
    assert euler_characteristic(out) == 2
    assert face_areas(out).min() > 0
    # coarser inscribed polyhedra shrink; 162 -> 100 verts loses ~6% volume
    assert signed_volume(out) == pytest.approx(signed_volume(mesh), rel=0.10)


def test_decimate_is_seeded():
    mesh = icosphere(2)
    a = decimate(mesh, 120, seed=3)
    b = decimate(mesh, 120, seed=3)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_remesh_changes_connectivity_not_surface():
    mesh, _ = dumbbell(12, 14)
    out = remesh(mesh, seed=0)
    assert abs(out.n_vertices - mesh.n_vertices) <= 0.1 * mesh.n_vertices
    assert out.content_hash() != mesh.content_hash()
    assert signed_volume(out) == pytest.approx(signed_volume(mesh), rel=0.05)
    assert euler_characteristic(out) == 2


def test_classification_dataset_contents():
    samples = make_classification_dataset(n_per_class=3, seed=0)
    assert len(samples) == 12
    names = [s.name for s in samples]
    assert len(set(names)) == 12
    counts = np.bincount([s.category for s in samples], minlength=4)
    assert counts.tolist() == [3, 3, 3, 3]
    for s in samples:
        assert s.name.startswith(CATEGORY_NAMES[s.category])
        assert s.labels is None
        assert signed_volume(s.mesh) > 0
    # regeneration is exact; a different seed moves the vertices
    again = make_classification_dataset(n_per_class=3, seed=0)
    assert all(np.array_equal(a.mesh.vertices, b.mesh.vertices)
               for a, b in zip(samples, again))
    other = make_classification_dataset(n_per_class=3, seed=1)
    assert not np.array_equal(samples[0].mesh.vertices, other[0].mesh.vertices)


def test_segmentation_dataset_contents():
    samples = make_segmentation_dataset(n_meshes=8, seed=0)
    assert len(samples) == 8
    assert {s.name.rsplit("_", 1)[0] for s in samples} == {"dumbbell_a", "dumbbell_b"}
    for s in samples:
        assert s.category == 0  # dense ids within the emitted dataset
        assert s.labels.shape == (s.mesh.n_vertices,)
        assert set(np.unique(s.labels)) == {0, 1, 2}
