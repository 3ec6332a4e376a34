"""Pair-matrix rendering: CSV sidecar and PPM image."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longdep.heatmap import MASK_COLOR, SCALES, _colors, render_heatmap
from longdep.lds import ScoreReport

from support import pair_report, read_csv_rows

THREE_PAIRS = [(2, 1, 0.5), (3, 1, 0.0), (3, 2, -0.2)]


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


def render(tmp_path, report, **options):
    """Render ``report`` into ``tmp_path``; the (image, csv) paths."""
    image, csv = tmp_path / "img.ppm", tmp_path / "img.csv"
    render_heatmap(report, str(image), str(csv), **options)
    return image, csv


def render_ppm(tmp_path, report, **options):
    """``read_ppm`` of the image ``render_heatmap`` writes for ``report``."""
    return read_ppm(render(tmp_path, report, **options)[0])


def assert_rejected(tmp_path, report, **options):
    """``render_heatmap`` raises ValueError and writes no file."""
    with pytest.raises(ValueError):
        render(tmp_path, report, **options)
    assert list(tmp_path.iterdir()) == []


class TestMatrix:
    def test_values_placed_at_target_source(self, tmp_path):
        image, csv = render(tmp_path, pair_report(THREE_PAIRS, 4))
        assert read_csv_rows(csv) == [(2, 1, 0.5), (3, 1, 0.0), (3, 2, -0.2)]
        _, _, _, rows = read_ppm(image)
        assert rows[2][1] == (255, 255, 255)
        assert rows[3][2] == (0, 0, 0)

    def test_uncovered_cells_are_none(self, tmp_path):
        _, _, _, rows = render_ppm(tmp_path, pair_report(THREE_PAIRS, 4))
        covered = {(2, 1), (3, 1), (3, 2)}
        for i in range(4):
            for j in range(4):
                assert (rows[i][j] == MASK_COLOR) == ((i, j) not in covered)

    def test_pairwise_channel(self, tmp_path):
        # (alpha * dst + beta * ddi) * dsp = (0.5 + 1.0) * 0.5 under the
        # reference multiplicative profile.
        report = pair_report([(1, 0, 0.5)], 2, dsp_value=0.5)
        _, csv = render(tmp_path, report, value="pairwise")
        assert csv.read_text().splitlines()[1] == "i,j,pairwise"
        assert read_csv_rows(csv) == [(1, 0, 0.75)]

    def test_out_of_bounds_pair_rejected(self, tmp_path):
        assert_rejected(tmp_path, pair_report([(2, 1, 0.1), (5, 1, 0.5)], 4))

    def test_empty_pairs_rejected(self, tmp_path):
        assert_rejected(tmp_path, pair_report([], 4))


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        awkward = [
            (1, 0, 0.1 + 0.2),
            (2, 0, -0.0),
            (2, 1, 1e-300),
            (3, 0, 12345678.90123456789),
        ]
        _, csv = render(tmp_path, pair_report(awkward, 4))
        rows = read_csv_rows(csv)
        assert [(i, j) for i, j, _ in rows] == [(1, 0), (2, 0), (2, 1), (3, 0)]
        for (_, _, got), (_, _, want) in zip(rows, awkward):
            assert repr(got) == repr(want)

    def test_rows_sorted_target_major(self, tmp_path):
        _, csv = render(tmp_path, pair_report([(3, 2, 0.3), (1, 0, 0.1), (3, 0, 0.2)], 4))
        assert read_csv_rows(csv) == [(1, 0, 0.1), (3, 0, 0.2), (3, 2, 0.3)]

    def test_config_hash_comment_and_header(self, tmp_path):
        _, csv = render(tmp_path, pair_report(THREE_PAIRS, 4, config_hash="abc123"))
        lines = csv.read_text().splitlines()
        assert lines[0] == "# config=abc123"
        assert lines[1] == "i,j,dst"
        _, csv = render(tmp_path, pair_report(THREE_PAIRS, 4, config_hash=""))
        assert csv.read_text().splitlines()[0] == "i,j,dst"


class TestPpm:
    def test_header_and_dimensions(self, tmp_path):
        report = pair_report(THREE_PAIRS, 4, doc_id="d7", config_hash="h9")
        comment, width, height, _ = render_ppm(tmp_path, report, cell_size=3)
        assert width == height == 12
        assert comment == "# doc=d7 scale=linear value=dst config=h9"

    def test_masked_cells_use_sentinel_color(self, tmp_path):
        _, _, _, rows = render_ppm(tmp_path, pair_report(THREE_PAIRS, 4))
        assert rows[0][0] == MASK_COLOR
        assert rows[0][3] == MASK_COLOR
        assert rows[2][1] != MASK_COLOR

    def test_linear_scale_is_grayscale_ramp(self, tmp_path):
        _, _, _, rows = render_ppm(tmp_path, pair_report(THREE_PAIRS, 4), scale="linear")
        # Values -0.2, 0.0, 0.5 map to 0, 73, 255 gray levels.
        assert rows[3][2] == (0, 0, 0)
        assert rows[2][1] == (255, 255, 255)
        g = rows[3][1][0]
        assert rows[3][1] == (g, g, g)
        assert g == round(255 * 0.2 / 0.7)

    def test_constant_matrix_renders_mid_gray(self, tmp_path):
        _, _, _, rows = render_ppm(tmp_path, pair_report([(1, 0, 0.4)], 2))
        assert rows[1][0] == (128, 128, 128)

    def test_diverging_scale_signs_and_zero(self, tmp_path):
        report = pair_report(THREE_PAIRS, 4)
        _, _, _, rows = render_ppm(tmp_path, report, scale="signed-diverging")
        r, g, b = rows[2][1]
        assert r == 255 and g == b and g < 255
        r, g, b = rows[3][2]
        assert b == 255 and r == g and r < 255
        assert rows[3][1] == (255, 255, 255)

    def test_cells_upscale_as_blocks(self, tmp_path):
        _, width, height, rows = render_ppm(tmp_path, pair_report([(1, 0, 0.4)], 2), cell_size=4)
        assert width == height == 8
        for r in range(4, 8):
            for c in range(0, 4):
                assert rows[r][c] == rows[4][0]
        for r in range(0, 4):
            for c in range(4, 8):
                assert rows[r][c] == MASK_COLOR


class TestSpecValidation:
    """``render_heatmap``'s own argument checks."""

    def test_minimum_segments(self, tmp_path):
        assert_rejected(tmp_path, pair_report([(1, 0, 0.5)], 1))

    def test_scale_and_value_enums(self, tmp_path):
        report = pair_report(THREE_PAIRS, 4)
        assert_rejected(tmp_path, report, scale="log")
        assert_rejected(tmp_path, report, value="ddi")

    def test_cell_size_positive(self, tmp_path):
        assert_rejected(tmp_path, pair_report(THREE_PAIRS, 4), cell_size=0)

    @pytest.mark.parametrize("scale", SCALES)
    def test_value_not_finite(self, tmp_path, scale):
        assert_rejected(tmp_path, pair_report([(1, 0, float("inf")), (2, 1, 0.2)], 3), scale=scale)
        overflowing = pair_report([(1, 0, 1e308)], 2, dsp_value=1e308)
        assert_rejected(tmp_path, overflowing, scale=scale, value="pairwise")

    def test_linear_range_that_overflows(self, tmp_path):
        assert_rejected(tmp_path, pair_report([(1, 0, -1e308), (2, 0, 1e308)], 3))
        assert_rejected(tmp_path, pair_report([(1, 0, 0.0), (2, 0, 1e307)], 3))


class TestRenderHeatmap:
    def test_writes_both_artifacts(self, tmp_path):
        img = tmp_path / "out" / "img.ppm"
        csv = tmp_path / "out" / "pairs.csv"
        render_heatmap(pair_report(THREE_PAIRS, 4, config_hash="zz"), str(img), str(csv))
        assert img.exists() and csv.exists()
        assert len(read_csv_rows(csv)) == 3
        comment, width, _, _ = read_ppm(img)
        assert width == 4
        assert "config=zz" in comment

    def test_one_file_for_both_artifacts_is_refused(self, tmp_path):
        same = tmp_path / "same.out"
        same.write_bytes(b"earlier")
        (tmp_path / "link.csv").symlink_to(same)
        for csv in ("same.out", "sub/../same.out", "link.csv"):
            with pytest.raises(ValueError, match="need two files"):
                render_heatmap(pair_report(THREE_PAIRS, 4), str(same), str(tmp_path / csv))
            assert same.read_bytes() == b"earlier"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "same.out"]


# sha256 of the (PPM, CSV) of a uniform matrix under the scale that
# paints it one flat color: mid gray for linear, white for diverging.
UNIFORM_SHA256 = {
    "linear": (
        "494225c6607109520e1e8754bd0620c8515b14149e4bec8d5dc51e73bfabd7fe",
        "7e791772c841b0a62764a28031c78d81d1abd00869b4544dd6c3b82b76491e0f",
    ),
    "signed-diverging": (
        "eebdc3771c6c2ff23bd3dc409dfb4b22ce246a8ada138a7e6289792842d0108d",
        "f983664ade597c0139ae77b7b42aeab062d12d9245ec236a6f17af7815ecd489",
    ),
}
UNIFORM = {
    "linear": ([(1, 0, 0.4), (2, 0, 0.4), (2, 1, 0.4)], (128, 128, 128)),
    "signed-diverging": ([(1, 0, 0.0), (2, 0, -0.0), (2, 1, 0.0)], (255, 255, 255)),
}


@pytest.mark.parametrize("scale", sorted(UNIFORM))
def test_uniform_matrix_bytes_are_pinned(tmp_path, scale):
    triples, color = UNIFORM[scale]
    image, csv = render(tmp_path, pair_report(triples, 3), scale=scale, cell_size=2)
    _, _, _, rows = read_ppm(image)
    assert {rows[2 * i][2 * j] for i, j, _ in triples} == {color}
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (image, csv))
    assert digests == UNIFORM_SHA256[scale]


@pytest.mark.parametrize("value", ["dst", "pairwise"])
def test_renders_without_pair_objects(tmp_path, monkeypatch, value):
    def refused(report):
        raise AssertionError("render_heatmap built PairScores")

    monkeypatch.setattr(ScoreReport, "pairs", property(refused))
    image, csv = render(tmp_path, pair_report(THREE_PAIRS, 4), value=value)
    assert len(read_csv_rows(csv)) == 3
    assert read_ppm(image)[3][2][1] != MASK_COLOR


def scalar_color(v, present, scale):
    """``v``'s color among the values ``present``, one value at a time
    with Python floats and ``round``: the reference for ``_colors``."""
    vmin, vmax = min(present), max(present)
    if scale == "linear":
        if vmax <= vmin:
            return (128, 128, 128)
        g = min(255, max(0, round(255 * (v - vmin) / (vmax - vmin))))
        return (g, g, g)
    limit = max(abs(vmin), abs(vmax))
    if limit <= 0.0:
        return (255, 255, 255)
    t = min(1.0, max(-1.0, v / limit))
    fade = min(255, max(0, round(255 * (1.0 - abs(t)))))
    return (255, fade, fade) if t >= 0.0 else (fade, fade, 255)


# Signed zeros, halves, subnormals and values whose range overflows,
# drawn often; the example puts linear levels on .5 (half to even).
EDGE_VALUES = [0.0, -0.0, 0.5, 1.5, 2.5, 255.0, -255.0, 5e-324, 1e-300, 1e307, -1e308, 1e308]


@settings(deadline=None)
@example(values=[0.0, 0.5, 1.5, 2.5, 254.5, 255.0], scale="linear")
@given(values=st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=30),
       scale=st.sampled_from(SCALES))
def test_colors_match_the_scalar_formula(values, scale):
    try:
        want = [scalar_color(v, values, scale) for v in values]
    except (ValueError, OverflowError):
        with pytest.raises(ValueError):
            _colors(np.array(values), scale)
        return
    assert list(map(tuple, _colors(np.array(values), scale).tolist())) == want
