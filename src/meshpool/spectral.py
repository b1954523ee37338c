"""Spectral vertex features and the multi-level clustering hierarchy.

Solves the generalized symmetric eigenproblem ``(D - W) x = lam * A x`` for
the smallest eigenpairs. ``A`` is the lumped, diagonal vertex-area matrix,
so the problem is solved in standard form: ``S u = lam u`` with
``S = A^-1/2 (D - W) A^-1/2`` and ``x = A^-1/2 u`` (the symmetric reduction
of the ARPACK Users' Guide, Lehoucq, Sorensen & Yang 1998), which spares
shift-invert Lanczos every mass-matrix product; N and k alone pick it or
a dense solve (see ``solve_eigs``). The module also normalizes the
vertex positions (``normalize_positions``), assembles the per-vertex
network input from them (positions, normals, absolute low-frequency
eigenvector values) and builds the pooling hierarchy on the same
positions: a list of nested per-level cluster masks at a decreasing
sequence of cluster counts, in one pass of splits that the levels share.
The hierarchy comes from deterministic divisive splits on the normalized
positions, not from the eigenvectors: eigenvector embeddings are unstable
across retriangulations of the same surface (near-degenerate pairs rotate
within their eigenspace), while median splits of the geometry depend only
on integral quantities and survive a remesh nearly unchanged.

Import rule: scipy is imported only inside ``solve_eigs``, the one
function that needs it (for the eigensolvers), so importing this module
loads numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import integer, integers
from .mesh import LaplacianOperator

# Shift for the shift-invert iterative solver; strictly below the spectrum so
# the factored matrix S - shift * I is positive definite.
SIGMA_SHIFT = -0.01

# Relative eigenpair residual accepted from either solver path.
RESIDUAL_TOL = 1e-6

# Problems smaller than this go straight to the dense solver, as do those
# asking for k+1 = N pairs: ARPACK subspaces degenerate when k+1 approaches N.
DENSE_CUTOFF = 50

# Largest problem the dense path accepts.
DENSE_LIMIT = 3000

_V0_SEED = 8191  # fixed ARPACK start vector => reproducible solves


class EigensolverError(RuntimeError):
    """Eigensolver failure; carries the achieved residual when known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class SpectralBasis:
    """The k+1 smallest generalized eigenpairs of the mesh Laplacian.

    ``eigenvectors`` columns are area-orthonormal (``x_i^T A x_j = delta_ij``)
    and sorted by ascending eigenvalue; column 0 is the constant mode on
    closed meshes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def eig_residuals(op: LaplacianOperator, basis: SpectralBasis, stiffness=None) -> np.ndarray:
    """Relative residual ||K x - lam A x|| / ||A x|| per eigenpair.

    ``stiffness`` is ``op.stiffness()`` when the caller has it already;
    otherwise it is assembled here.
    """
    K = op.stiffness() if stiffness is None else stiffness
    ax = basis.eigenvectors * op.areas[:, None]
    num = np.linalg.norm(K @ basis.eigenvectors - basis.eigenvalues[None, :] * ax, axis=0)
    return num / np.linalg.norm(ax, axis=0)


def solve_eigs(op: LaplacianOperator, k: int) -> SpectralBasis:
    """Smallest k+1 eigenpairs of ``(D - W) x = lam * A x``.

    N and k alone pick the path: a dense symmetric eigendecomposition when
    ``N < DENSE_CUTOFF`` or ``k + 1 = N``, shift-invert Lanczos (ARPACK)
    otherwise. Both solve the standard symmetric problem ``S u = lam u``
    with ``S = A^-1/2 (D - W) A^-1/2``, whose entries are scaled by the
    single product ``s[row] * s[col]`` (``s = 1 / sqrt(areas)``) so that S
    is exactly symmetric, and map the vectors back as ``x = s * u``. The
    columns of x are then area-orthonormal. Residuals are checked on the
    generalized problem in mesh coordinates.

    Parameters
    ----------
    op : LaplacianOperator
    k : int
        Number of nonconstant modes; k+1 pairs are returned.

    Raises
    ------
    ValueError
        If ``k + 1 > N``.
    EigensolverError
        When refused (dense path, ``N > DENSE_LIMIT``), on non-convergence
        (carries the achieved residual) or on a failed residual check.
    """
    from scipy.linalg import eigh
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = op.n_vertices
    want = integer("k", k, ValueError, 0) + 1
    if want > n:
        raise ValueError(f"requested {want} modes from a mesh with {n} vertices")

    s = 1.0 / np.sqrt(op.areas)
    K = op.stiffness()  # assembled once: scaled into S, and the residual check
    S = K.copy()
    S.data *= s[np.repeat(np.arange(n), np.diff(S.indptr))] * s[S.indices]
    if n < DENSE_CUTOFF or want > n - 1:
        if n > DENSE_LIMIT:
            raise EigensolverError(f"dense solver refused for N={n} > {DENSE_LIMIT}")
        vals, vecs = eigh(S.toarray(), subset_by_index=[0, want - 1])
    else:
        v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
        try:
            vals, vecs = eigsh(S.tocsc(), k=want, sigma=SIGMA_SHIFT, which="LM", v0=v0)
        except ArpackNoConvergence as exc:
            partial = SpectralBasis(np.asarray(exc.eigenvalues),
                                    s[:, None] * np.asarray(exc.eigenvectors))
            res = float(eig_residuals(op, partial, K).max()) if partial.n_modes else None
            raise EigensolverError(
                f"iterative eigensolver did not converge ({partial.n_modes}/{want} modes)",
                residual=res,
            ) from exc
    vecs = s[:, None] * vecs
    order = np.argsort(vals)
    basis = SpectralBasis(np.ascontiguousarray(vals[order]), np.ascontiguousarray(vecs[:, order]))
    worst = float(eig_residuals(op, basis, K).max())
    if worst >= RESIDUAL_TOL:
        raise EigensolverError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}", residual=worst)
    return basis


def normalize_positions(vertices: np.ndarray) -> np.ndarray:
    """Center to the vertex centroid and scale the bounding-box diagonal to 1.

    The centroid sums the rows in lexicographic order, the order
    ``build_hierarchy`` works in, so permuting the vertices permutes the
    result exactly.
    """
    centered = vertices - vertices[np.lexsort(vertices.T[::-1])].mean(axis=0)
    extent = centered.max(axis=0) - centered.min(axis=0)
    return centered / np.linalg.norm(extent)


def build_input_features(positions: np.ndarray, normals: np.ndarray,
                         basis: SpectralBasis) -> np.ndarray:
    """Per-vertex input matrix: [xyz(3), normal(3), |eigenvector|(k)].

    ``positions`` are the normalized vertex positions
    (``normalize_positions``), the same ones the hierarchy is built on.
    The eigenvector columns are the basis's k nonconstant modes, every
    column but the first; taking their absolute values makes them
    independent of the solver's arbitrary sign choices.
    """
    return np.hstack([positions, normals, np.abs(basis.eigenvectors[:, 1:])])


def _weighted_median_side(t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Boolean mask of the strict upper side of the weighted median of ``t``.

    The median element itself stays on the lower side, so both sides are
    nonempty whenever ``t`` has at least two distinct values. With all
    values identical one point is peeled off so the split still progresses.
    """
    order = np.argsort(t, kind="stable")
    cum = np.cumsum(weights[order])
    median = t[order[np.searchsorted(cum, 0.5 * cum[-1])]]
    side = t > median
    if not side.any():
        side = np.zeros(len(t), dtype=bool)
        side[int(np.argmax(t))] = True
    return side


def _canonical_frame(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted principal axes by decreasing variance, each oriented so the
    weighted third moment along it is nonnegative."""
    mu = weights @ points / weights.sum()
    centered = points - mu
    cov = (weights[:, None] * centered).T @ centered
    _, axes = np.linalg.eigh(cov)
    axes = axes[:, ::-1].copy()
    for c in range(axes.shape[1]):
        if (weights * (centered @ axes[:, c]) ** 3).sum() < 0.0:
            axes[:, c] = -axes[:, c]
    return axes


def _cluster_spread(proj: np.ndarray, weights: np.ndarray, labels: np.ndarray,
                    n_clusters: int) -> np.ndarray:
    """Weighted sum of squared deviations from the centroid, per cluster."""
    spread = np.zeros(n_clusters)
    for j in range(n_clusters):
        members = labels == j
        wm = weights[members]
        mu = wm @ proj[members] / wm.sum()
        spread[j] = (wm[:, None] * (proj[members] - mu) ** 2).sum()
    return spread


def _split_round(proj: np.ndarray, w: np.ndarray, k: int, labels: np.ndarray,
                 n_clusters: int, rounds: int):
    """One round of weighted-median splits toward ``k`` clusters; returns the
    next ``(labels, n_clusters, rounds)`` and leaves ``labels`` untouched."""
    axis = rounds % proj.shape[1]
    if 2 * n_clusters <= k:
        targets = np.arange(n_clusters)
    else:
        spread = _cluster_spread(proj, w, labels, n_clusters)
        targets = np.argsort(-spread, kind="stable")[: k - n_clusters]
    new_labels = labels.copy()
    added = 0
    for j in targets:
        members = np.flatnonzero(labels == j)
        if len(members) < 2:
            continue
        side = _weighted_median_side(proj[members, axis], w[members])
        new_labels[members[side]] = n_clusters + added
        added += 1
    if added == 0:
        # every targeted cluster was a singleton; split the largest one
        sizes = np.bincount(labels, minlength=n_clusters)
        members = np.flatnonzero(labels == int(np.argmax(sizes)))
        side = _weighted_median_side(proj[members, axis], w[members])
        new_labels[members[side]] = n_clusters
        added = 1
    return new_labels, n_clusters + added, rounds + 1


def build_hierarchy(positions: np.ndarray, cluster_counts, areas: np.ndarray) -> list:
    """Nested divisive clusterings of the vertex ``positions``, one per level.

    Returns one (N,) int64 mask per entry of ``cluster_counts``, which must
    strictly decrease; the mask of count p uses every id in [0, p). Points
    are projected once onto their weighted principal axes; each round
    splits every cluster at its weighted median along the next axis in
    rotation (only the largest-spread clusters once fewer than a full round
    of splits remains). Every decision is a function of integral quantities
    (covariance, medians), so the partition barely moves when the surface
    is retriangulated. Rows are processed in lexicographic order and the
    projections rounded well below any geometric scale, so the output is
    exactly independent of the input row order. A full round does not
    depend on the target count, so the levels, coarsest first, share their
    full rounds and each finishes its own copy with partial rounds: a level
    equals the hierarchy of its count alone, and every fine cluster lies in
    one coarse cluster. ``areas`` weight medians and spreads so the
    partition tracks surface area rather than vertex density.
    """
    counts = integers("cluster_counts", cluster_counts, ValueError, 1)
    if any(b >= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"cluster counts must strictly decrease, got {counts}")
    points = np.asarray(positions, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-D array")
    n = points.shape[0]
    if counts[0] > n:
        raise ValueError("more clusters than vertices")
    w = np.asarray(areas, dtype=np.float64)
    if w.shape != (n,) or not (w > 0.0).all():
        raise ValueError("weights must be positive, one per point")
    # Rounding drops accumulation-order noise inherited from upstream sums
    # (vertex areas, position normalization) without touching structure.
    w = np.maximum(np.round(w / w.sum(), 12), 1e-12)

    order = np.lexsort(points.T[::-1])  # primary key: column 0
    unsort = np.argsort(order)
    pts = points[order]
    w = w[order]
    proj = np.round(pts @ _canonical_frame(pts, w), 9)

    shared = (np.zeros(n, dtype=np.int64), 1, 0)  # (labels, n_clusters, rounds)
    masks = []
    for k in reversed(counts):
        while 2 * shared[1] <= k:
            shared = _split_round(proj, w, k, *shared)
        labels, n_clusters, rounds = shared
        while n_clusters < k:
            labels, n_clusters, rounds = _split_round(proj, w, k, labels, n_clusters, rounds)
        masks.append(labels[unsort])
    return masks[::-1]

