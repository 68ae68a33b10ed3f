"""Static SVG rendering of a packed strip.

One unit-height strip with a gridline per cell; each cell's bars are
stacked bottom-up in ascending chart id, colored by chart id. Output is a
pure function of the inputs (no timestamps), so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import colorsys

from .model import Instance, Packing, checked_occupancy

CELL_W = 56
STRIP_H = 168
MARGIN = 24
LABEL_H = 22


def _color(chart_id: int) -> str:
    # golden-angle hue walk keeps nearby ids distinguishable
    hue = (chart_id * 0.618033988749895) % 1.0
    r, g, b = colorsys.hls_to_rgb(hue, 0.55, 0.72)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def render_svg(inst: Instance, packing: Packing) -> str:
    cells = checked_occupancy(inst, packing)
    ncells = len(cells)
    width = 2 * MARGIN + ncells * CELL_W
    height = 2 * MARGIN + STRIP_H + LABEL_H

    # bars per cell: (chart id, height numerator), stacked in id order
    per_cell: list[list[tuple[int, int]]] = [[] for _ in range(ncells)]
    for chart, s in zip(inst.charts, packing.starts):
        per_cell[s - 1].append((chart.id, chart.a))
        per_cell[s].append((chart.id, chart.b))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{width}" height="{height}" '
               f'viewBox="0 0 {width} {height}">')
    out.append('<!-- barpack strip rendering v1 -->')
    out.append(f'<rect x="{MARGIN}" y="{MARGIN}" width="{ncells * CELL_W}" '
               f'height="{STRIP_H}" fill="#ffffff" stroke="#222222" stroke-width="1"/>')
    for j, bars in enumerate(per_cell):
        x = MARGIN + j * CELL_W
        level = 0
        for cid, numer in sorted(bars):
            h = STRIP_H * numer / inst.denominator
            y = MARGIN + STRIP_H - level - h
            out.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{CELL_W:.2f}" '
                       f'height="{h:.2f}" fill="{_color(cid)}" '
                       f'stroke="#333333" stroke-width="0.5"/>')
            level += h
        out.append(f'<line x1="{x}" y1="{MARGIN}" x2="{x}" '
                   f'y2="{MARGIN + STRIP_H}" stroke="#999999" stroke-width="0.5"/>')
        out.append(f'<text x="{x + CELL_W / 2:.2f}" y="{MARGIN + STRIP_H + 16}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'text-anchor="middle">{j + 1}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
