"""Eigensolver, feature construction and vertex clustering."""

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import eigh

from meshpool.mesh import (LaplacianOperator, Mesh, assemble_laplacian, compute_vertex_areas,
                           compute_vertex_normals)
from meshpool.spectral import (
    RESIDUAL_TOL,
    EigensolverError,
    build_hierarchy,
    build_input_features,
    eig_residuals,
    normalize_positions,
    solve_eigs,
)
from meshpool.synth import DUMBBELL_RESOLUTIONS, deform, dumbbell, icosphere

from conftest import cluster_agreement


@pytest.fixture(scope="module")
def bumpy_op(bumpy):
    return assemble_laplacian(bumpy)


@pytest.fixture(scope="module")
def bumpy_basis(bumpy_op):
    return solve_eigs(bumpy_op, 16)


def dense_reference(op, k):
    vals, vecs = eigh(op.stiffness().toarray(), np.diag(op.areas))
    return vals[: k + 1], vecs[:, : k + 1]


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_returns_k_plus_one_sorted_modes(bumpy_basis, bumpy):
    assert bumpy_basis.n_modes == 17
    assert bumpy_basis.eigenvectors.shape == (bumpy.n_vertices, 17)
    assert (np.diff(bumpy_basis.eigenvalues) >= 0).all()


def test_first_mode_is_constant(bumpy_basis):
    assert abs(bumpy_basis.eigenvalues[0]) < 1e-8
    phi0 = bumpy_basis.eigenvectors[:, 0]
    assert np.ptp(phi0) / np.abs(phi0).max() < 1e-6


def test_iterative_matches_dense(bumpy_op):
    it = solve_eigs(bumpy_op, 12)
    dv, _ = dense_reference(bumpy_op, 12)
    rel = np.abs(it.eigenvalues - dv) / np.maximum(np.abs(dv), 1e-3)
    assert rel.max() < 1e-8


def test_eigenvectors_a_orthonormal(bumpy_op, bumpy_basis):
    phi = bumpy_basis.eigenvectors
    gram = phi.T @ (bumpy_op.areas[:, None] * phi)
    assert np.abs(gram - np.eye(len(gram))).max() < 1e-6


def test_residuals_below_tolerance(bumpy_op, bumpy_basis):
    assert eig_residuals(bumpy_op, bumpy_basis).max() < RESIDUAL_TOL


@pytest.mark.parametrize("mesh", ["icosa", "bumpy"], ids=["dense", "iterative"])
def test_solve_assembles_the_stiffness_once(mesh, request, monkeypatch):
    op = assemble_laplacian(request.getfixturevalue(mesh))
    calls = []
    real = LaplacianOperator.stiffness

    def counted(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(LaplacianOperator, "stiffness", counted)
    basis = solve_eigs(op, 8)
    assert len(calls) == 1  # D - W serves both S and the residual check
    # a caller without the matrix still gets it assembled, with the same result
    given = eig_residuals(op, basis, real(op))
    assert np.array_equal(eig_residuals(op, basis), given) and len(calls) == 2


def test_dense_and_auto_agree(tetra):
    # 4 vertices: the solve takes the dense path
    op = assemble_laplacian(tetra)
    dv, _ = dense_reference(op, 2)
    assert np.allclose(solve_eigs(op, 2).eigenvalues, dv, atol=1e-12)


def test_repeated_solves_are_bit_identical(bumpy_op):
    a = solve_eigs(bumpy_op, 8)
    b = solve_eigs(bumpy_op, 8)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_mode_count_validation(tetra):
    op = assemble_laplacian(tetra)
    with pytest.raises(ValueError, match="5 modes"):
        solve_eigs(op, 4)
    with pytest.raises(ValueError):
        solve_eigs(op, -1)


def test_dense_path_refuses_large_mesh():
    op = assemble_laplacian(icosphere(5))  # 10242 vertices, over the dense cap
    with pytest.raises(EigensolverError, match="dense"):
        solve_eigs(op, op.n_vertices - 1)  # k + 1 = N pairs go to the dense path


def test_eigensolver_error_carries_residual():
    err = EigensolverError("boom", residual=0.5)
    assert err.residual == 0.5


def stretched_op(level):
    # a sphere stretched by exp(2z): vertex areas span three orders of magnitude
    ball = icosphere(level)
    v = ball.vertices * np.exp(2.0 * ball.vertices[:, 2:3])
    op = assemble_laplacian(Mesh(v, ball.faces))
    assert op.areas.max() / op.areas.min() > 1e3
    return op


@pytest.fixture(scope="module")
def uneven_op():
    return stretched_op(3)


def test_iterative_solver_gets_an_exactly_symmetric_standard_matrix(uneven_op, monkeypatch):
    seen = []
    real = scipy.sparse.linalg.eigsh

    def spy(A, *args, **kwargs):
        seen.append((A, kwargs))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    solve_eigs(uneven_op, 8)
    (S, kwargs), = seen
    assert kwargs.get("M") is None  # standard form: no mass matrix
    assert (S != S.T).nnz == 0
    s = 1.0 / np.sqrt(uneven_op.areas)
    expected = s[:, None] * uneven_op.stiffness().toarray() * s[None, :]
    assert np.abs(S.toarray() - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize("level", [1, 3], ids=["dense", "iterative"])  # 42, 642 vertices
def test_standard_form_matches_generalized_oracle_on_uneven_areas(level):
    op = stretched_op(level)
    basis = solve_eigs(op, 12)
    dv, _ = dense_reference(op, 12)
    rel = np.abs(basis.eigenvalues - dv) / np.maximum(np.abs(dv), 1e-3)
    assert rel.max() < 1e-8
    phi = basis.eigenvectors
    gram = phi.T @ (op.areas[:, None] * phi)
    assert np.abs(gram - np.eye(len(gram))).max() < 1e-6


def test_unconverged_solve_reports_residual_in_mesh_coordinates(uneven_op, monkeypatch):
    def no_convergence(S, k, **kwargs):
        # the first k-1 exact standard-form pairs, as ARPACK would hand them over
        vals, vecs = eigh(S.toarray(), subset_by_index=[0, k - 2])
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", vals, vecs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(EigensolverError, match=r"did not converge \(8/9 modes\)") as err:
        solve_eigs(uneven_op, 8)
    assert err.value.residual < 1e-8


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_normalize_positions_properties(bumpy):
    pos = normalize_positions(bumpy.vertices)
    assert np.abs(pos.mean(axis=0)).max() < 1e-12
    extent = pos.max(axis=0) - pos.min(axis=0)
    assert np.linalg.norm(extent) == pytest.approx(1.0)
    # invariant to rigid translation and uniform scale
    again = normalize_positions(3.7 * bumpy.vertices + np.array([5.0, -2.0, 1.0]))
    assert np.allclose(again, pos, atol=1e-12)


def test_eigenvector_features_skip_constant(bumpy, bumpy_basis):
    pos, normals = normalize_positions(bumpy.vertices), compute_vertex_normals(bumpy)
    feats = build_input_features(pos, normals, bumpy_basis, 16)
    assert np.array_equal(feats[:, 6:], np.abs(bumpy_basis.eigenvectors[:, 1:17]))
    with pytest.raises(ValueError, match="basis has 17 modes, need 18"):
        build_input_features(pos, normals, bumpy_basis, 17)


def test_build_input_features_layout(bumpy, bumpy_basis):
    normals = compute_vertex_normals(bumpy)
    pos = normalize_positions(bumpy.vertices)
    feats = build_input_features(pos, normals, bumpy_basis)
    assert feats.shape == (bumpy.n_vertices, 22)
    assert feats.dtype == np.float64 and feats.flags.c_contiguous
    assert np.array_equal(feats[:, :3], pos)
    assert np.array_equal(feats[:, 3:6], normals)
    assert (feats[:, 6:] >= 0).all()


# ---------------------------------------------------------------------------
# divisive clustering (single-level hierarchies)
# ---------------------------------------------------------------------------

def test_divisive_ids_dense_and_nonempty():
    pts = np.random.default_rng(3).standard_normal((50, 3))
    for k in (1, 2, 3, 7, 16, 50):
        labels = build_hierarchy(pts, (k,), np.ones(len(pts)))[0]
        assert labels.shape == (50,)
        assert np.bincount(labels, minlength=k).min() >= 1
        assert labels.max() == k - 1


def test_divisive_is_deterministic():
    pts = np.random.default_rng(4).standard_normal((80, 3))
    a = build_hierarchy(pts, (9,), np.ones(len(pts)))[0]
    assert np.array_equal(a, build_hierarchy(pts, (9,), np.ones(len(pts)))[0])


def test_divisive_permutation_equivariant_exactly():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((64, 3))
    w = rng.uniform(0.5, 2.0, size=64)
    base = build_hierarchy(pts, (10,), areas=w)[0]
    for _ in range(20):
        perm = rng.permutation(64)
        permuted = build_hierarchy(pts[perm], (10,), areas=w[perm])[0]
        assert np.array_equal(permuted, base[perm])


def test_divisive_weights_shift_the_split():
    # heavy weights on the right half pull the median split to the right
    t = np.linspace(0.0, 1.0, 40)
    pts = np.column_stack([t, np.zeros(40), np.zeros(40)])
    even = build_hierarchy(pts, (2,), np.ones(len(pts)))[0]
    sizes_even = np.bincount(even)
    # inclusive median boundary may tip one extra point to a side
    assert abs(sizes_even[0] - sizes_even[1]) <= 2
    w = np.where(t > 0.75, 50.0, 1.0)
    skewed = build_hierarchy(pts, (2,), areas=w)[0]
    sizes = np.bincount(skewed)
    assert sizes.max() > 30  # light points lumped together


def test_divisive_splits_both_kinds_of_ties():
    # all-identical coordinates still produce k nonempty clusters
    pts = np.zeros((6, 3))
    labels = build_hierarchy(pts, (3,), np.ones(len(pts)))[0]
    assert np.bincount(labels, minlength=3).min() >= 1


def test_divisive_validation():
    pts = np.random.default_rng(6).standard_normal((10, 3))
    with pytest.raises(ValueError, match=r"cluster count 0 not in \[1, 10\]"):
        build_hierarchy(pts, (0,), np.ones(len(pts)))[0]
    with pytest.raises(ValueError, match="more clusters than vertices"):
        build_hierarchy(pts, (11,), np.ones(len(pts)))[0]
    with pytest.raises(ValueError, match="2-D"):
        build_hierarchy(pts[0], (2,), np.ones(len(pts)))[0]
    with pytest.raises(ValueError, match="weights must be positive, one per point"):
        build_hierarchy(pts, (2,), areas=np.zeros(10))[0]
    with pytest.raises(ValueError, match="weights must be positive, one per point"):
        build_hierarchy(pts, (2,), areas=np.ones(9))[0]


# ---------------------------------------------------------------------------
# agreement + hierarchy
# ---------------------------------------------------------------------------

def test_cluster_agreement_matches_relabelings():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert cluster_agreement(a, a) == 1.0
    relabeled = np.array([2, 2, 0, 0, 1, 1])
    assert cluster_agreement(a, relabeled) == 1.0
    off_by_one = np.array([0, 0, 1, 2, 2, 2])
    assert cluster_agreement(a, off_by_one) == pytest.approx(5.0 / 6.0)
    with pytest.raises(ValueError):
        cluster_agreement(a, a[:-1])


def test_build_hierarchy_spatial(bumpy, bumpy_op):
    masks = build_hierarchy(normalize_positions(bumpy.vertices), (16, 8), areas=bumpy_op.areas)
    assert len(masks) == 2
    for mask, p in zip(masks, (16, 8)):
        assert mask.shape == (bumpy.n_vertices,)
        assert mask.dtype == np.int64
        assert np.array_equal(np.unique(mask), np.arange(p))  # every id in use


def test_build_hierarchy_validation(bumpy):
    pos = normalize_positions(bumpy.vertices)
    with pytest.raises(ValueError, match="decrease"):
        build_hierarchy(pos, (8, 8), np.ones(len(pos)))
    with pytest.raises(ValueError):
        build_hierarchy(pos, (), np.ones(len(pos)))
    with pytest.raises(ValueError, match="vertices"):
        build_hierarchy(pos, (10_000, 8), np.ones(len(pos)))


def test_hierarchy_stable_under_position_noise(bumpy, bumpy_op):
    # jitter far below the rounding scale must not move any split
    pos = normalize_positions(bumpy.vertices)
    masks = build_hierarchy(pos, (16, 8), areas=bumpy_op.areas)
    jitter = 1e-13 * np.random.default_rng(8).standard_normal(pos.shape)
    masks2 = build_hierarchy(pos + jitter, (16, 8), areas=bumpy_op.areas)
    assert len(masks) == len(masks2) == 2
    for a, b in zip(masks, masks2):
        assert cluster_agreement(a, b) == 1.0


def _hierarchy_inputs():
    """(positions, areas) of area-weighted deformed dumbbells, then
    unweighted point sets in which a fifth of the points coincide."""
    for i in range(4):
        base, _ = dumbbell(*DUMBBELL_RESOLUTIONS["ab"[i % 2]])
        mesh = deform(base, seed=[i, 0])
        yield normalize_positions(mesh.vertices), compute_vertex_areas(mesh)
    rng = np.random.default_rng(12)
    for _ in range(4):
        pts = rng.standard_normal((50, 3))
        pts[rng.choice(50, 10, replace=False)] = pts[0]
        yield pts, np.ones(len(pts))


@pytest.mark.parametrize("level", [2, 3])
def test_hierarchy_of_a_permuted_icosphere_is_the_permuted_hierarchy(level):
    # the icosphere's covariance is isotropic, so its principal axes turn with
    # any rounding noise in the centroid; the centroid must not depend on order
    mesh = icosphere(level)

    def hierarchy(m):
        pos = normalize_positions(m.vertices)
        return pos, build_hierarchy(pos, (16, 8), areas=assemble_laplacian(m).areas)

    pos, masks = hierarchy(mesh)
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
        shuffled = Mesh(mesh.vertices[perm], np.argsort(perm)[mesh.faces])
        pos_p, masks_p = hierarchy(shuffled)
        assert np.array_equal(pos_p, pos[perm])
        for mask_p, mask in zip(masks_p, masks):
            assert np.array_equal(mask_p, mask[perm])


@pytest.mark.parametrize("counts", [(16, 8), (12, 5), (16, 8, 4), (10, 7, 3)])
def test_hierarchy_levels_match_single_counts_and_nest(counts):
    for pos, areas in _hierarchy_inputs():
        masks = build_hierarchy(pos, counts, areas=areas)
        for mask, k in zip(masks, counts):
            assert np.array_equal(mask, build_hierarchy(pos, (k,), areas=areas)[0])
        for fine, coarse in zip(masks, masks[1:]):
            # each fine cluster maps to exactly one coarse cluster
            pairs = np.unique(np.stack([fine, coarse]), axis=1)
            assert np.array_equal(pairs[0], np.arange(int(fine.max()) + 1))
