"""Dependency-strength heatmaps.

Renders a scored document's lower-triangular dst matrix as an
uncompressed binary PPM raster plus a CSV of (i, j, dst) rows, keeping
the component dependency-free. Row = target segment, column = source
segment, both 0-based; the diagonal, the upper triangle, and any
unsampled cells are masked with a sentinel color, never zero-filled.
Both are drawn from the report's pair columns as arrays, and the image
is written one row of cells at a time. Each file is written all or
nothing, and a failed write of either keeps both earlier files.

Color scales:
  linear            per-document min-max mapped to a grayscale ramp
  signed-diverging  symmetric around zero; dst = 0 lands exactly on the
                    white midpoint, negatives go blue, positives red
"""

from __future__ import annotations

import os

import numpy as np

from .jsonio import Columns, ensure_parent, open_atomic
from .lds import ScoreReport, _accumulate

SCALES = ("linear", "signed-diverging")
VALUES = ("dst", "pairwise")
MASK_COLOR = (255, 0, 255)


@np.errstate(over="ignore", invalid="ignore")
def _colors(values: np.ndarray, scale: str) -> np.ndarray:
    """The uint8 (r, g, b) row of each value under ``scale``, from the
    float operations of a per-value loop, rounded half to even as
    ``round`` does. A level that is not finite raises ValueError."""
    vmin, vmax = values.min(), values.max()
    if scale == "linear":
        gray = 255 * (values - vmin) / (vmax - vmin) if vmax > vmin else np.full_like(values, 128.0)
        channels = (gray, gray, gray)
    else:
        limit = max(abs(vmin), abs(vmax))
        t = np.clip(values / limit, -1.0, 1.0) if limit > 0.0 else np.zeros_like(values)
        fade = 255 * (1.0 - abs(t))
        red = t >= 0.0
        channels = (np.where(red, 255.0, fade), fade, np.where(red, fade, 255.0))
    rgb = np.stack(channels, axis=1)
    if not np.isfinite(rgb).all():
        raise ValueError("a color level is not finite: the range of values overflows")
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def render_heatmap(
    report: ScoreReport,
    image_path: str,
    csv_path: str,
    scale: str = "linear",
    value: str = "dst",
    cell_size: int = 1,
) -> None:
    """Emit both artifacts for a report scored with its pairs kept.

    The image is a binary PPM (P6), one cell_size x cell_size block per
    cell of the N x N matrix of ``value``. The CSV holds (i, j, value)
    rows, target-major, with floats written by repr, so parsing it
    reproduces the values exactly. Both carry the report's config hash.
    A report without pairs raises ValueError, and so do two paths that
    name one file, a pair outside the grid, a target without a dsp row
    (through ``_accumulate``) and a value that is not finite.

    The files are written in ``select``'s order: the image's .partial is
    written and closed, the CSV is written and replaced, and only then
    is the image renamed.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    if value not in VALUES:
        raise ValueError(f"value must be one of {VALUES}, got {value!r}")
    if cell_size < 1:
        raise ValueError("cell_size must be >= 1")
    if os.path.realpath(image_path) == os.path.realpath(csv_path):
        raise ValueError(f"the image and the CSV need two files, but both are {csv_path!r}")
    columns = report.columns
    if columns is None or not len(columns.targets):
        raise ValueError(f"report {report.doc_id!r} holds no pairs; nothing to render")
    n = report.n_segments
    pairwise = _accumulate(columns, n, report.lds_config)[2]
    order = np.lexsort((columns.sources, columns.targets))
    targets, sources = columns.targets[order], columns.sources[order]
    values = (columns.dst if value == "dst" else pairwise)[order]
    rows = Columns((targets, sources, values)).lines("%d,%d,%s\n")
    raster = np.full((n, n, 3), MASK_COLOR, dtype=np.uint8)
    raster[targets, sources] = _colors(values, scale)
    side = n * cell_size
    header = (
        f"P6\n# doc={report.doc_id} scale={scale} value={value} config={report.config_hash}\n"
        f"{side} {side}\n255\n"
    )
    ensure_parent(image_path)
    with open_atomic(image_path, "wb") as image:
        image.write(header.encode("ascii"))
        for cells in raster:
            image.write(cells.repeat(cell_size, axis=0).tobytes() * cell_size)
        image.close()
        ensure_parent(csv_path)
        with open_atomic(csv_path) as table:
            if report.config_hash:
                table.write(f"# config={report.config_hash}\n")
            table.write(f"i,j,{value}\n")
            table.writelines(rows)
