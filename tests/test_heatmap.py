"""Pair-matrix rendering: CSV sidecar and PPM image."""

import math

import pytest

from longdep.heatmap import (
    MASK_COLOR,
    HeatmapSpec,
    matrix_from_pairs,
    read_dst_csv,
    render_heatmap,
    write_dst_csv,
)
from longdep.lds import PairScore


def pair(target, source, dst, pairwise=0.0):
    return PairScore(
        target=target,
        source=source,
        dst=dst,
        ddi=0.5,
        dsp=0.5,
        pairwise=pairwise,
        gated=dst > 0.05,
    )


THREE_PAIRS = [pair(2, 1, 0.5), pair(3, 1, 0.0), pair(3, 2, -0.2)]


def read_ppm(path):
    blob = open(path, "rb").read()
    magic, comment, dims, maxval, raster = blob.split(b"\n", 4)
    assert magic == b"P6"
    assert maxval == b"255"
    width, height = (int(x) for x in dims.split())
    pixels = [
        tuple(raster[i * 3 : i * 3 + 3]) for i in range(width * height)
    ]
    rows = [pixels[r * width : (r + 1) * width] for r in range(height)]
    return comment.decode(), width, height, rows


def render_ppm(tmp_path, pairs, spec, config_hash=""):
    """``read_ppm`` of the image ``render_heatmap`` writes for ``pairs``."""
    path = tmp_path / "img.ppm"
    render_heatmap(pairs, spec, str(path), str(tmp_path / "img.csv"), config_hash)
    return read_ppm(path)


class TestMatrix:
    def test_values_placed_at_target_source(self):
        matrix = matrix_from_pairs(THREE_PAIRS, 4, "dst")
        assert matrix[2][1] == 0.5
        assert matrix[3][1] == 0.0
        assert matrix[3][2] == -0.2

    def test_uncovered_cells_are_none(self):
        matrix = matrix_from_pairs(THREE_PAIRS, 4, "dst")
        covered = {(2, 1), (3, 1), (3, 2)}
        for i in range(4):
            for j in range(4):
                if (i, j) not in covered:
                    assert matrix[i][j] is None

    def test_pairwise_channel(self):
        matrix = matrix_from_pairs([pair(1, 0, 0.5, pairwise=0.125)], 2, "pairwise")
        assert matrix[1][0] == 0.125

    def test_out_of_bounds_pair_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_pairs([pair(5, 1, 0.5)], 4)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_pairs([], 4)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "pairs.csv"
        awkward = [
            pair(1, 0, 0.1 + 0.2),
            pair(2, 0, -0.0),
            pair(2, 1, 1e-300),
            pair(3, 0, 12345678.90123456789),
        ]
        write_dst_csv(path, awkward, value="dst")
        rows = read_dst_csv(path)
        assert [(i, j) for i, j, _ in rows] == [(1, 0), (2, 0), (2, 1), (3, 0)]
        for (_, _, got), want in zip(rows, awkward):
            assert got == want.dst

    def test_rows_sorted_target_major(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_dst_csv(path, [pair(3, 2, 0.3), pair(1, 0, 0.1), pair(3, 0, 0.2)])
        rows = read_dst_csv(path)
        assert [(i, j) for i, j, _ in rows] == [(1, 0), (3, 0), (3, 2)]

    def test_config_hash_comment_and_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_dst_csv(path, THREE_PAIRS, value="dst", config_hash="abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config=abc123"
        assert lines[1] == "i,j,dst"

    def test_reader_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("# config=x\ni,j,dst\n\n1,0,0.5\n\n2,0,0.25\n")
        assert read_dst_csv(path) == [(1, 0, 0.5), (2, 0, 0.25)]


class TestPpm:
    def test_header_and_dimensions(self, tmp_path):
        spec = HeatmapSpec(doc_id="d7", n_segments=4, cell_size=3)
        comment, width, height, _ = render_ppm(tmp_path, THREE_PAIRS, spec, config_hash="h9")
        assert width == height == 12
        assert "doc=d7" in comment
        assert "config=h9" in comment
        assert "scale=linear" in comment

    def test_masked_cells_use_sentinel_color(self, tmp_path):
        spec = HeatmapSpec(doc_id="d", n_segments=4)
        _, _, _, rows = render_ppm(tmp_path, THREE_PAIRS, spec)
        assert rows[0][0] == MASK_COLOR
        assert rows[0][3] == MASK_COLOR
        assert rows[2][1] != MASK_COLOR

    def test_linear_scale_is_grayscale_ramp(self, tmp_path):
        spec = HeatmapSpec(doc_id="d", n_segments=4, scale="linear")
        _, _, _, rows = render_ppm(tmp_path, THREE_PAIRS, spec)
        # Values -0.2, 0.0, 0.5 map to 0, 73, 255 gray levels.
        assert rows[3][2] == (0, 0, 0)
        assert rows[2][1] == (255, 255, 255)
        g = rows[3][1][0]
        assert rows[3][1] == (g, g, g)
        assert g == round(255 * 0.2 / 0.7)

    def test_constant_matrix_renders_mid_gray(self, tmp_path):
        spec = HeatmapSpec(doc_id="d", n_segments=2)
        _, _, _, rows = render_ppm(tmp_path, [pair(1, 0, 0.4)], spec)
        assert rows[1][0] == (128, 128, 128)

    def test_diverging_scale_signs_and_zero(self, tmp_path):
        spec = HeatmapSpec(doc_id="d", n_segments=4, scale="signed-diverging")
        _, _, _, rows = render_ppm(tmp_path, THREE_PAIRS, spec)
        r, g, b = rows[2][1]
        assert r == 255 and g == b and g < 255
        r, g, b = rows[3][2]
        assert b == 255 and r == g and r < 255
        assert rows[3][1] == (255, 255, 255)

    def test_cells_upscale_as_blocks(self, tmp_path):
        spec = HeatmapSpec(doc_id="d", n_segments=2, cell_size=4)
        _, width, height, rows = render_ppm(tmp_path, [pair(1, 0, 0.4)], spec)
        assert width == height == 8
        for r in range(4, 8):
            for c in range(0, 4):
                assert rows[r][c] == rows[4][0]
        for r in range(0, 4):
            for c in range(4, 8):
                assert rows[r][c] == MASK_COLOR


class TestSpecValidation:
    def test_minimum_segments(self):
        with pytest.raises(ValueError):
            HeatmapSpec(doc_id="d", n_segments=1)

    def test_scale_and_value_enums(self):
        with pytest.raises(ValueError):
            HeatmapSpec(doc_id="d", n_segments=4, scale="log")
        with pytest.raises(ValueError):
            HeatmapSpec(doc_id="d", n_segments=4, value="ddi")

    def test_cell_size_positive(self):
        with pytest.raises(ValueError):
            HeatmapSpec(doc_id="d", n_segments=4, cell_size=0)


class TestRenderHeatmap:
    def test_writes_both_artifacts(self, tmp_path):
        img = tmp_path / "out" / "img.ppm"
        csv = tmp_path / "out" / "pairs.csv"
        spec = HeatmapSpec(doc_id="d", n_segments=4)
        render_heatmap(THREE_PAIRS, spec, str(img), str(csv), config_hash="zz")
        assert img.exists() and csv.exists()
        assert len(read_dst_csv(csv)) == 3
        comment, width, _, _ = read_ppm(img)
        assert width == 4
        assert "config=zz" in comment
