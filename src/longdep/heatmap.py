"""Dependency-strength heatmaps.

Renders a scored document's lower-triangular dst matrix as an
uncompressed binary PPM raster plus a CSV of (i, j, dst) rows, keeping
the component dependency-free. Row = target segment, column = source
segment, both 0-based; the diagonal, the upper triangle, and any
unsampled cells are masked with a sentinel color, never zero-filled. Each
file is written all or nothing, and a failed write of either keeps both
earlier files.

Color scales:
  linear            per-document min-max mapped to a grayscale ramp
  signed-diverging  symmetric around zero; dst = 0 lands exactly on the
                    white midpoint, negatives go blue, positives red
"""

from __future__ import annotations

from .jsonio import ensure_parent, open_atomic
from .lds import ScoreReport

SCALES = ("linear", "signed-diverging")
VALUES = ("dst", "pairwise")
MASK_COLOR = (255, 0, 255)


def _linear_color(v: float, vmin: float, vmax: float) -> tuple[int, int, int]:
    if vmax <= vmin:
        return (128, 128, 128)
    g = round(255 * (v - vmin) / (vmax - vmin))
    g = min(255, max(0, g))
    return (g, g, g)


def _diverging_color(v: float, limit: float) -> tuple[int, int, int]:
    if limit <= 0.0:
        return (255, 255, 255)
    t = min(1.0, max(-1.0, v / limit))
    fade = round(255 * (1.0 - abs(t)))
    fade = min(255, max(0, fade))
    if t >= 0.0:
        return (255, fade, fade)
    return (fade, fade, 255)


def _cell_colors(
    matrix: list[list[float | None]], scale: str
) -> list[list[tuple[int, int, int]]]:
    present = [v for row in matrix for v in row if v is not None]
    vmin, vmax = min(present), max(present)
    limit = max(abs(vmin), abs(vmax))
    out = []
    for row in matrix:
        colored = []
        for v in row:
            if v is None:
                colored.append(MASK_COLOR)
            elif scale == "linear":
                colored.append(_linear_color(v, vmin, vmax))
            else:
                colored.append(_diverging_color(v, limit))
        out.append(colored)
    return out


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
    A report without pairs raises ValueError, and so does a pair outside
    the grid (through ``report.pairs``).

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
    pairs = report.pairs
    if not pairs:
        raise ValueError(f"report {report.doc_id!r} holds no pairs; nothing to render")
    n = report.n_segments
    matrix: list[list[float | None]] = [[None] * n for _ in range(n)]
    for pair in pairs:
        matrix[pair.target][pair.source] = getattr(pair, value)
    side = n * cell_size
    header = (
        f"P6\n# doc={report.doc_id} scale={scale} value={value} config={report.config_hash}\n"
        f"{side} {side}\n255\n"
    )
    ensure_parent(image_path)
    with open_atomic(image_path, "wb") as image:
        image.write(header.encode("ascii"))
        for row in _cell_colors(matrix, scale):
            image.write(b"".join(bytes(rgb) * cell_size for rgb in row) * cell_size)
        image.close()
        ensure_parent(csv_path)
        with open_atomic(csv_path) as table:
            if report.config_hash:
                table.write(f"# config={report.config_hash}\n")
            table.write(f"i,j,{value}\n")
            for pair in sorted(pairs, key=lambda p: (p.target, p.source)):
                table.write(f"{pair.target},{pair.source},{getattr(pair, value)!r}\n")
