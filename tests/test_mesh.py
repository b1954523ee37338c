"""Mesh container, OBJ round-trips and cotangent weight assembly."""

import json
import random
import re
import warnings

import numpy as np
import pytest

from meshpool.cli import main
from meshpool.mesh import (
    COT_CLAMP,
    MAX_COORDINATE,
    Mesh,
    MeshError,
    MeshLoadError,
    assemble_laplacian,
    bounding_box_diagonal,
    compute_vertex_areas,
    compute_vertex_normals,
    face_areas,
    load_obj,
    write_obj,
)
from meshpool.synth import icosphere, torus

from conftest import max_rel_err


def test_mesh_rejects_bad_shapes():
    with pytest.raises(MeshError):
        Mesh(np.zeros((4, 2)), np.array([[0, 1, 2]]))
    with pytest.raises(MeshError):
        Mesh(np.zeros((4, 3)), np.array([[0, 1]]))


def test_mesh_rejects_out_of_range_index(tetra):
    faces = tetra.faces.copy()
    faces[0, 0] = 9
    with pytest.raises(MeshError, match="out of range") as err:
        Mesh(tetra.vertices, faces)
    assert err.value.face == 0


def test_mesh_rejects_repeated_vertex(tetra):
    faces = tetra.faces.copy()
    faces[2] = [1, 1, 3]
    with pytest.raises(MeshError, match="repeats") as err:
        Mesh(tetra.vertices, faces)
    assert err.value.face == 2


def test_mesh_rejects_degenerate_face():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(MeshError, match="degenerate") as err:
        Mesh(v, np.array([[0, 1, 2], [0, 1, 3]]))
    assert err.value.face == 0
    with pytest.raises(MeshError, match="face 1 is degenerate") as err:
        Mesh(v, np.array([[0, 1, 3], [0, 1, 2]]))
    assert err.value.face == 1
    # all vertices coincide: the tolerance is 0 and every area equals it
    with pytest.raises(MeshError, match="face 0 is degenerate") as err:
        Mesh(np.zeros((4, 3)), np.array([[0, 1, 2], [0, 2, 3]]))
    assert err.value.face == 0


def test_mesh_rejects_duplicate_face(sphere2):
    faces = sphere2.faces
    with pytest.raises(MeshError, match="face 320 repeats the vertices of an earlier face") as err:
        Mesh(sphere2.vertices, np.vstack([faces, faces[:1]]))
    assert err.value.face == len(faces)
    # the same vertex set in the other orientation is a duplicate too
    flipped = np.vstack([faces[:5], faces[3:4, ::-1], faces[5:]])
    with pytest.raises(MeshError, match="face 5 repeats") as err:
        Mesh(sphere2.vertices, flipped)
    assert err.value.face == 5


def test_mesh_rejects_non_manifold_edge(sphere2):
    a, b = sorted(sphere2.faces[7, :2])
    fin = np.vstack([sphere2.vertices, [[2.0, 2.0, 2.0]]])
    faces = np.vstack([sphere2.faces, [[a, b, sphere2.n_vertices]]])
    with pytest.raises(MeshError, match=rf"face 320 is a third face on edge \({a}, {b}\)") as err:
        Mesh(fin, faces)
    assert err.value.face == sphere2.n_faces
    assert "non-manifold edge" in str(err.value)
    # a fin listed first leaves the later of the edge's own faces as the third
    with pytest.raises(MeshError, match="third face") as err:
        Mesh(fin, np.vstack([faces[-1:], sphere2.faces]))
    on_edge = np.flatnonzero(np.isin(sphere2.faces, [a, b]).sum(axis=1) == 2)
    assert err.value.face == on_edge.max() + 1


def test_mesh_rejects_inconsistent_orientation(sphere2):
    faces = sphere2.faces.copy()
    _, b, c = faces[7]
    faces[7] = faces[7, ::-1]  # its first edge is now (c, b)
    with pytest.raises(MeshError, match=rf"face 7 traverses edge \({c}, {b}\) in the same "
                                        "direction as an earlier face") as err:
        Mesh(sphere2.vertices, faces)
    assert err.value.face == 7
    assert "inconsistent orientation" in str(err.value)
    # every face reversed is a consistent orientation again
    Mesh(sphere2.vertices, sphere2.faces[:, ::-1])


def test_obj_names_the_line_of_a_duplicate_or_non_manifold_face(tmp_path):
    head = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 1 1 1\n# faces\nf 1 3 2\nf 1 2 4\n"
    cases = [(head + "f 2 3 4\nvn 0 0 1\nf 1 4 3\nf 4 2 1\n", ":12:", "repeats the vertices"),
             (head + "f 2 3 4\nf 1 4 3\n\nf 1 2 5\n", ":12:", "third face on edge (0, 1)")]
    for body, where, phrase in cases:
        path = tmp_path / "bad.obj"
        path.write_text(body)
        with pytest.raises(MeshLoadError, match=re.escape(phrase)) as err:
            load_obj(path)
        assert f"bad.obj{where} face 4 " in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_vertex(tetra, bad):
    vertices = tetra.vertices.copy()
    vertices[2, 1] = bad
    with pytest.raises(MeshError, match="^vertex 2 has a non-finite coordinate$") as err:
        Mesh(vertices, tetra.faces)
    assert err.value.face is None


def test_obj_non_finite_vertex_names_the_file(tmp_path):
    path = tmp_path / "nan.obj"
    path.write_text("v 0 0 0\nv nan 0.5 0.5\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshLoadError, match="vertex 1 has a non-finite coordinate") as err:
        load_obj(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("value", ["1e308", "-1e308", "1e76"])
def test_obj_huge_coordinate_is_rejected_without_a_warning(tmp_path, value):
    # OBJ fuzz case 3: a 1e308 coordinate overflowed the face area test with
    # a RuntimeWarning and was reported as "face 0 is degenerate"
    path = tmp_path / "huge.obj"
    path.write_text(f"v 0 0 0\nv {value} 0.5 0.5\nv 0 1 0\nf 1 2 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshLoadError, match="vertex 1 has a coordinate beyond 1e[+]75 "
                                                "in magnitude$"):
            load_obj(path)
        spread = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assert face_areas(Mesh(MAX_COORDINATE * spread, [[0, 1, 2]]))[0] > 0.0


def test_content_hash_tracks_geometry(tetra):
    h0 = tetra.content_hash()
    assert h0 == Mesh(tetra.vertices.copy(), tetra.faces.copy()).content_hash()
    moved = tetra.vertices.copy()
    moved[0, 0] += 1e-12
    assert Mesh(moved, tetra.faces).content_hash() != h0


def test_bounding_box_diagonal():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    assert bounding_box_diagonal(v) == pytest.approx(3.0)
    assert bounding_box_diagonal(np.zeros((0, 3))) == 0.0


def test_obj_roundtrip_is_exact(tmp_path, sphere2):
    path = tmp_path / "m.obj"
    write_obj(path, sphere2)
    back = load_obj(path)
    assert np.array_equal(back.vertices, sphere2.vertices)
    assert np.array_equal(back.faces, sphere2.faces)


def test_obj_parser_skips_other_records(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(
        "# comment\nvn 0 0 1\nvt 0.5 0.5\no thing\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    )
    mesh = load_obj(path)
    assert mesh.n_vertices == 3 and mesh.n_faces == 1


@pytest.mark.parametrize("body,phrase", [
    ("v 0 0\n", "3 coordinates"),
    ("v 0 0 zz\n", "malformed vertex"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3 4\n", "non-triangular"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "out of range"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "malformed face index"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "not positive"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n", "repeats"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -4\n", "out of range"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 -2 -1\n", "repeats"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\nf 1 2 3\nf 1 2 4\n", "out of range"),
])
def test_obj_parser_errors_name_the_line(tmp_path, body, phrase):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    # the offending record is the first face, or the last record
    lines = body.splitlines()
    first_face = next((i for i, line in enumerate(lines, 1) if line.startswith("f")), None)
    lineno = first_face if first_face is not None else len(lines)
    with pytest.raises(MeshLoadError, match=phrase) as err:
        load_obj(path)
    assert f":{lineno}:" in str(err.value)


def test_obj_relative_indices_count_back_from_read_vertices(tmp_path):
    absolute = tmp_path / "abs.obj"
    absolute.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 0 0 1\nf 2 1 4\n")
    relative = tmp_path / "rel.obj"
    relative.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 0 0 1\nf -3/2 -4/1 -1/3\n")
    a, r = load_obj(absolute), load_obj(relative)
    assert np.array_equal(r.faces, [[0, 1, 2], [1, 0, 3]])
    assert np.array_equal(r.faces, a.faces) and np.array_equal(r.vertices, a.vertices)


def test_obj_parser_maps_degenerate_face_to_line(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nv 0 1 0\nf 1 2 4\nf 1 2 3\n")
    with pytest.raises(MeshLoadError, match="degenerate") as err:
        load_obj(path)
    assert ":6:" in str(err.value)


def test_face_and_vertex_areas(tetra):
    fa = face_areas(tetra)
    # three right triangles with unit legs plus the sqrt(3)/2 diagonal face
    assert np.sort(fa) == pytest.approx(np.sort([0.5, 0.5, 0.5, np.sqrt(3) / 2]))
    va = compute_vertex_areas(tetra)
    assert va.sum() == pytest.approx(fa.sum())
    assert (va > 0).all()


def test_vertex_normals_point_outward_on_sphere(sphere2):
    normals = compute_vertex_normals(sphere2)
    assert np.linalg.norm(normals, axis=1) == pytest.approx(np.ones(sphere2.n_vertices))
    radial = sphere2.vertices / np.linalg.norm(sphere2.vertices, axis=1, keepdims=True)
    assert np.einsum("ij,ij->i", normals, radial).min() > 0.9


def test_isolated_vertex_gets_zero_normal_and_warns():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
    mesh = Mesh(v, np.array([[0, 1, 2]]))
    with pytest.warns(UserWarning, match="isolated"):
        normals = compute_vertex_normals(mesh)
    assert np.array_equal(normals[3], np.zeros(3))


def test_laplacian_row_sums_and_symmetry(sphere2, tetra):
    for mesh in (sphere2, tetra, torus()):
        op = assemble_laplacian(mesh)
        assert np.array_equal(op.degrees, np.asarray(op.weights.sum(axis=1)).ravel())
        asym = op.weights - op.weights.T
        assert np.abs(asym.toarray()).max() == 0.0
        assert np.abs(op.stiffness() @ np.ones(op.n_vertices)).max() < 1e-9


def test_equilateral_boundary_weight(equilateral):
    # one 60-degree corner opposite each edge: w = cot(60)/2 = 1/(2 sqrt(3))
    op = assemble_laplacian(equilateral)
    w = op.weights.toarray()
    expect = 1.0 / (2.0 * np.sqrt(3.0))
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        assert abs(w[i, j] - expect) < 1e-12


def test_unit_square_diagonal_weight_is_zero():
    # unit square split along the diagonal: the diagonal sees two right
    # angles (cot 90 = 0); each side edge sees a single 45-degree corner
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = Mesh(v, np.array([[0, 1, 2], [0, 2, 3]]))
    w = assemble_laplacian(mesh).weights.toarray()
    assert abs(w[0, 2]) < 1e-15
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        assert w[i, j] == pytest.approx(0.5, abs=1e-12)


def test_needle_triangle_clamps_cotangent():
    # sliver: the obtuse corner clamps low, the two needle tips clamp high
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-4, 0.0]])
    mesh = Mesh(v, np.array([[0, 1, 2]]))
    op = assemble_laplacian(mesh)
    assert op.clamped_terms == 3
    assert np.abs(op.weights.toarray()).max() <= 0.5 * COT_CLAMP + 1e-12


def test_laplacian_matches_dense_reference(bumpy):
    # independent dense assembly straight from the definition
    v, f = bumpy.vertices, bumpy.faces
    n = bumpy.n_vertices
    dense = np.zeros((n, n))
    for tri in f:
        for c in range(3):
            i, j, k = tri[c], tri[(c + 1) % 3], tri[(c + 2) % 3]
            u, w = v[j] - v[i], v[k] - v[i]
            cot = float(u @ w) / np.linalg.norm(np.cross(u, w))
            dense[j, k] += 0.5 * cot
            dense[k, j] += 0.5 * cot
    op = assemble_laplacian(bumpy)
    assert op.clamped_terms == 0
    assert max_rel_err(op.weights.toarray(), dense) < 1e-12
    assert max_rel_err(op.areas, compute_vertex_areas(bumpy)) < 1e-15


def test_stiffness_is_psd(bumpy):
    op = assemble_laplacian(bumpy)
    stiff = op.stiffness().toarray()
    assert np.allclose(stiff, stiff.T)
    eigs = np.linalg.eigvalsh(stiff)
    assert eigs.min() > -1e-9
    assert abs(eigs[0]) < 1e-9  # constant null vector


def test_assemble_rejects_unreferenced_vertex(tetra):
    extra = np.vstack([tetra.vertices, [[5.0, 5.0, 5.0]], tetra.vertices[:1] + 2.0])
    with pytest.raises(MeshError, match="vertex 4 belongs to no face"):
        assemble_laplacian(Mesh(extra, tetra.faces))


def test_assemble_rejects_more_than_one_component(sphere2, tetra):
    n = sphere2.n_vertices
    two = Mesh(np.vstack([sphere2.vertices, sphere2.vertices + 3.0]),
               np.vstack([sphere2.faces, sphere2.faces + n]))
    with pytest.raises(MeshError, match="^mesh has 2 connected components$"):
        assemble_laplacian(two)
    three = Mesh(np.vstack([two.vertices, tetra.vertices - 4.0]),
                 np.vstack([two.faces, tetra.faces + 2 * n]))
    with pytest.raises(MeshError, match="^mesh has 3 connected components$"):
        assemble_laplacian(three)


# ---- OBJ fuzz -----------------------------------------------------------

OBJ_FUZZ_SEED, OBJ_FUZZ_CASES = 29, 1000
OBJ_FUZZ_CLI_CASES = 4  # the first cases of each outcome also run `meshpool preprocess`
_FUZZ_COORDS = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e309"]


def _mutate_obj(rng: random.Random, lines: list, n: int) -> None:
    """One change, in place, to the lines of an OBJ whose ``n`` vertex
    records come first: a dropped, duplicated or swapped line, a
    non-finite or huge coordinate, a face index of 0, out of range or in
    relative form, or a face of 2 or 5 vertices."""
    what = rng.randrange(6)
    i = rng.randrange(len(lines))
    if what == 0:
        del lines[i]
    elif what == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif what == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif what == 3:
        i = rng.choice([k for k, line in enumerate(lines) if line.startswith("v ")])
        tokens = lines[i].split()
        tokens[rng.randrange(1, 4)] = rng.choice(_FUZZ_COORDS)
        lines[i] = " ".join(tokens)
    else:
        i = rng.choice([k for k, line in enumerate(lines) if line.startswith("f ")])
        tokens = lines[i].split()
        if what == 4:
            at = rng.randrange(1, 4)
            index = int(tokens[at])
            tokens[at] = str(rng.choice([0, n + 1, 10 * n, -(n + 1), index - n - 1]))
        else:
            tokens = tokens[:3] if rng.random() < 0.5 else tokens + tokens[1:3]
        lines[i] = " ".join(tokens)


def _load_outcome(path) -> str:
    """"loaded", "MeshLoadError" or "crash: <exception>"; a warning counts
    as a crash, since the CLI would print it beside its one line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_obj(path)
            return "loaded"
        except MeshLoadError as exc:
            return type(exc).__name__
        except Exception as exc:  # any other exception or a warning is a crash
            return f"crash: {exc!r}"


def test_fuzzed_obj_files_load_or_raise_mesh_errors(tmp_path, capsys):
    # a crash is reported as (case, exception) and never re-seeded away
    data = tmp_path / "data"
    data.mkdir()
    ball = icosphere(1)
    write_obj(data / "ball.obj", ball)
    lines = (data / "ball.obj").read_text().splitlines()
    (data / "manifest.json").write_text(json.dumps({
        "task": "classification", "num_categories": 1, "samples": [
            {"name": "ball", "obj": "ball.obj", "category": 0, "split": "train"}]}))
    rng = random.Random(OBJ_FUZZ_SEED)
    crashes, outcomes, cli_runs = [], [], []
    for case in range(OBJ_FUZZ_CASES):
        mutated = list(lines)
        for _ in range(rng.randint(1, 3)):
            _mutate_obj(rng, mutated, ball.n_vertices)
        (data / "ball.obj").write_text("\n".join(mutated) + "\n")
        outcome = _load_outcome(data / "ball.obj")
        if outcome.startswith("crash"):
            crashes.append((case, outcome))
        elif outcomes.count(outcome) < OBJ_FUZZ_CLI_CASES:
            # exit 0, or exit 1 with one line; a warning would be a second
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["preprocess", "--input", str(data), "--eigs", "8",
                             "--clusters", "6,3"])
            err = capsys.readouterr().err.splitlines()
            if caught or not (code == 0 and outcome == "loaded" or code == 1 and len(err) == 1
                              and err[0].startswith("error:")):
                warned = [str(w.message) for w in caught]
                crashes.append((case, f"cli exit {code}: {err} {warned}"))
            cli_runs.append(code)
        outcomes.append(outcome)
    assert crashes == []
    assert {"loaded", "MeshLoadError"} <= set(outcomes)
    assert 0 in cli_runs and 1 in cli_runs
