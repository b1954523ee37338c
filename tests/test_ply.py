"""Colored PLY export."""

import numpy as np
import pytest

from meshpool.ply import PALETTE, label_colors, write_ply


def test_label_colors_wrap_palette():
    ids = np.arange(45)
    colors = label_colors(ids)
    assert colors.shape == (45, 3)
    assert np.array_equal(colors[:20], PALETTE)
    assert np.array_equal(colors[20:40], PALETTE)
    with pytest.raises(ValueError, match="nonnegative"):
        label_colors([-1, 0])


def test_write_ply_colored(tmp_path, tetra):
    colored = tmp_path / "colored.ply"
    write_ply(colored, tetra, label_colors(np.array([0, 1, 2, 0])))
    lines = colored.read_text().splitlines()
    assert lines[0] == "ply"
    assert f"element vertex {tetra.n_vertices}" in lines
    assert f"element face {tetra.n_faces}" in lines
    assert "property uchar red" in lines
    header_end = lines.index("end_header")
    vertex_rows = lines[header_end + 1: header_end + 1 + tetra.n_vertices]
    assert all(len(row.split()) == 6 for row in vertex_rows)
    face_rows = lines[header_end + 1 + tetra.n_vertices:]
    assert len(face_rows) == tetra.n_faces
    assert all(row.startswith("3 ") for row in face_rows)


def test_write_ply_rejects_bad_color_shape(tmp_path, tetra):
    with pytest.raises(ValueError, match="colors"):
        write_ply(tmp_path / "x.ply", tetra, np.zeros((2, 3), dtype=np.uint8))
