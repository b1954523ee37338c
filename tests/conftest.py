"""Shared fixtures and numeric helpers for the test suite."""

import numpy as np
import pytest

from meshpool.autodiff import Tape, Tensor
from meshpool.mesh import Mesh
from meshpool.synth import deform, icosahedron, icosphere

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_report():
    """Record one pass/fail line for an acceptance criterion."""

    def record(num, ok, detail):
        status = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {num:>2} {status}  {detail}")

    return record


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def icosa():
    return icosahedron()


@pytest.fixture(scope="session")
def sphere2():
    return icosphere(2)


@pytest.fixture(scope="session")
def bumpy():
    # deformed sphere: breaks all symmetries, so the spectrum is simple
    return deform(icosphere(2), seed=3)


@pytest.fixture()
def tetra():
    v = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    f = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return Mesh(v, f)


@pytest.fixture()
def equilateral():
    # single equilateral triangle with unit edge length
    v = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, np.sqrt(3.0) / 2.0, 0.0],
    ])
    return Mesh(v, np.array([[0, 1, 2]]))


# ---------------------------------------------------------------------------
# oracles that only the tests need
# ---------------------------------------------------------------------------

def signed_volume(mesh: Mesh) -> float:
    """Positive for consistently outward-oriented closed meshes."""
    tri = mesh.vertices[mesh.faces]
    return float(np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])) / 6.0)


def cluster_agreement(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Fraction of entries on which two cluster masks agree, after the
    cluster ids are matched by maximum-overlap assignment."""
    from scipy.optimize import linear_sum_assignment  # slow import, used only here

    mask_a = np.asarray(mask_a)
    mask_b = np.asarray(mask_b)
    if mask_a.shape != mask_b.shape:
        raise ValueError("masks must have equal length")
    pa = int(mask_a.max()) + 1
    pb = int(mask_b.max()) + 1
    overlap = np.zeros((pa, pb), dtype=np.int64)
    np.add.at(overlap, (mask_a, mask_b), 1)
    rows, cols = linear_sum_assignment(-overlap)
    return float(overlap[rows, cols].sum()) / len(mask_a)


def split_features_data(split) -> np.ndarray:
    """The dense N-row matrix ``concat([vertex, cluster[mask]])`` that a
    ``model.SplitFeatures`` stands for."""
    return np.concatenate([split.vertex.data, split.cluster.data[split.mask]], axis=1)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def max_rel_err(approx, exact):
    """Max absolute difference relative to the scale of ``exact``."""
    exact = np.asarray(exact, dtype=float)
    scale = max(float(np.max(np.abs(exact))), 1e-8)
    return float(np.max(np.abs(np.asarray(approx) - exact))) / scale


def central_diff(f, x, eps=1e-6):
    """Central-difference gradient of scalar ``f`` at array ``x``."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return grad


def fd_op_check(make_out, inputs, eps=1e-6, proj_seed=99):
    """Finite-difference check of one tape op against its backward pass.

    make_out(tape, *tensors) rebuilds the graph from fresh Tensors on every
    call; the output is reduced to a scalar through a rank-one projection
    r^T out c (built from tape ops, so the projection itself is also
    differentiated). Returns the worst relative gradient error over inputs.
    """
    rng = np.random.default_rng(proj_seed)
    inputs = [np.asarray(x, dtype=float) for x in inputs]

    tape = Tape()
    tensors = [Tensor(x) for x in inputs]
    out = make_out(tape, *tensors)
    r = rng.standard_normal((1, out.data.shape[0]))
    c = rng.standard_normal((out.data.shape[1], 1))
    loss = tape.matmul(tape.matmul(Tensor(r), out), Tensor(c))
    tape.backward(loss, 1.0)
    grads = [t.grad for t in tensors]

    def scalar(arrs):
        t2 = Tape()
        out2 = make_out(t2, *[Tensor(a) for a in arrs])
        return float((r @ out2.data @ c).item())

    worst = 0.0
    for which in range(len(inputs)):
        exact = grads[which]
        if exact is None:
            exact = np.zeros_like(inputs[which])

        def f(x, _which=which):
            arrs = list(inputs)
            arrs[_which] = x
            return scalar(arrs)

        fd = central_diff(f, inputs[which], eps=eps)
        worst = max(worst, max_rel_err(fd, exact))
    return worst
