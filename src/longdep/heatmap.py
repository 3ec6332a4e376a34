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

from dataclasses import dataclass
from typing import Iterator, Sequence

from .jsonio import ensure_parent, open_atomic
from .lds import PairScore

SCALES = ("linear", "signed-diverging")
VALUES = ("dst", "pairwise")
MASK_COLOR = (255, 0, 255)


@dataclass(frozen=True)
class HeatmapSpec:
    doc_id: str
    n_segments: int
    scale: str = "linear"
    value: str = "dst"
    cell_size: int = 1

    def __post_init__(self):
        if self.n_segments < 2:
            raise ValueError("n_segments must be >= 2")
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if self.value not in VALUES:
            raise ValueError(f"value must be one of {VALUES}, got {self.value!r}")
        if self.cell_size < 1:
            raise ValueError("cell_size must be >= 1")


def matrix_from_pairs(
    pairs: Sequence[PairScore], n_segments: int, value: str = "dst"
) -> list[list[float | None]]:
    """N x N matrix with None in every cell no pair covers."""
    if not pairs:
        raise ValueError("no pairs to render")
    grid: list[list[float | None]] = [[None] * n_segments for _ in range(n_segments)]
    for pair in pairs:
        if not 0 <= pair.source < pair.target < n_segments:
            raise ValueError(
                f"pair ({pair.target}, {pair.source}) outside {n_segments}-segment grid"
            )
        grid[pair.target][pair.source] = getattr(pair, value)
    return grid


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


def _ppm_chunks(
    matrix: list[list[float | None]], spec: HeatmapSpec, config_hash: str
) -> Iterator[bytes]:
    """Binary PPM (P6), one cell_size x cell_size block per matrix cell."""
    colors = _cell_colors(matrix, spec.scale)
    side = len(matrix) * spec.cell_size
    yield (
        f"P6\n"
        f"# doc={spec.doc_id} scale={spec.scale} value={spec.value} config={config_hash}\n"
        f"{side} {side}\n255\n"
    ).encode("ascii")
    for row in colors:
        scan = bytearray()
        for rgb in row:
            scan.extend(bytes(rgb) * spec.cell_size)
        yield bytes(scan) * spec.cell_size


def write_dst_csv(
    path: str,
    pairs: Sequence[PairScore],
    value: str = "dst",
    config_hash: str = "",
) -> None:
    """CSV of (i, j, value) rows, target-major, 0-based indices.

    Floats are written with repr, so parsing the file reproduces the
    original values exactly.
    """
    if not pairs:
        raise ValueError("no pairs to write")
    if value not in VALUES:
        raise ValueError(f"value must be one of {VALUES}, got {value!r}")
    ensure_parent(path)
    ordered = sorted(pairs, key=lambda p: (p.target, p.source))
    with open_atomic(path) as handle:
        if config_hash:
            handle.write(f"# config={config_hash}\n")
        handle.write(f"i,j,{value}\n")
        for pair in ordered:
            handle.write(f"{pair.target},{pair.source},{getattr(pair, value)!r}\n")


def read_dst_csv(path: str) -> list[tuple[int, int, float]]:
    """Parse a heatmap CSV back into (target, source, value) rows."""
    rows: list[tuple[int, int, float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("i,"):
                continue
            i_str, j_str, v_str = line.split(",")
            rows.append((int(i_str), int(j_str), float(v_str)))
    return rows


def render_heatmap(
    pairs: Sequence[PairScore],
    spec: HeatmapSpec,
    image_path: str,
    csv_path: str,
    config_hash: str = "",
) -> None:
    """Emit both artifacts for one scored document, in ``select``'s
    order: the image's .partial is written and closed, the CSV is
    written and replaced, and only then is the image renamed."""
    matrix = matrix_from_pairs(pairs, spec.n_segments, spec.value)
    ensure_parent(image_path)
    with open_atomic(image_path, "wb") as handle:
        handle.writelines(_ppm_chunks(matrix, spec, config_hash))
        handle.close()
        write_dst_csv(csv_path, pairs, spec.value, config_hash)
