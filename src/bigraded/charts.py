"""Chart emission: ASCII grids and dependency-free SVG for bigraded tables.

Grids put the genus axis horizontally and homological degree vertically
(degree increasing upward), mirroring the tables the calculations reproduce.
Every cell carries a provenance tag: "computed" for dimensions produced by
this package's own linear algebra, "paper-fixture" for recorded literature
values.  Vanishing lines d = lam*(g - c) can be overlaid; cells strictly
below a line render as '.' when zero and are flagged with '!' if nonzero.
The figures of ``bigraded report`` live here too, in `FIGURES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import freealg
from .grading import VanishingLine


@dataclass(frozen=True)
class Cell:
    g: int
    d: int
    label: str
    provenance: str  # "computed" | "paper-fixture"


def cells_from_dims(dims: dict) -> list[Cell]:
    """The nonzero dimensions ``{(g, d): n}`` as computed cells."""
    return [
        Cell(g=g, d=d, label=str(n), provenance="computed")
        for (g, d), n in sorted(dims.items())
        if n
    ]


def ascii_grid(cells, box, lines=()) -> str:
    g_max, d_max = box
    grid = {}
    for c in cells:
        if c.g <= g_max and c.d <= d_max:
            grid[(c.g, c.d)] = c
    width = max([len(c.label) for c in grid.values()] + [1]) + 1
    rows = []
    for d in range(d_max, -1, -1):
        row = [f"{d:>3} |"]
        for g in range(0, g_max + 1):
            cell = grid.get((g, d))
            below = any(ln.strictly_below((g, d)) for ln in lines)
            if cell is None:
                row.append(("." if below else "").rjust(width))
            else:
                mark = "!" if below else ""
                row.append((cell.label + mark).rjust(width))
        rows.append("".join(row))
    rows.append("    +" + "-" * ((g_max + 1) * width))
    rows.append("  d/g" + "".join(str(g).rjust(width) for g in range(0, g_max + 1)))
    return "\n".join(rows)


def svg_grid(cells, box, lines=(), title: str = "") -> str:
    """Hand-rolled SVG: axes, one text node per cell, one guide line per
    vanishing line.  No external templates or libraries."""
    g_max, d_max = box
    pad, cell_px = 40, 34
    w = pad * 2 + (g_max + 1) * cell_px
    h = pad * 2 + (d_max + 1) * cell_px

    def x_of(g):
        return pad + g * cell_px + cell_px // 2

    def y_of(d):
        return h - pad - d * cell_px - cell_px // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{pad}" y="{pad // 2}" font-size="13" font-family="monospace">'
            f"{_esc(title)}</text>"
        )
    ax = pad - cell_px // 2
    parts.append(
        f'<line x1="{ax}" y1="{h - pad + cell_px // 2}" x2="{w - 8}" '
        f'y2="{h - pad + cell_px // 2}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{ax}" y1="{h - pad + cell_px // 2}" x2="{ax}" y2="8" stroke="black"/>'
    )
    for g in range(0, g_max + 1):
        parts.append(
            f'<text x="{x_of(g)}" y="{h - 10}" font-size="10" text-anchor="middle" '
            f'font-family="monospace">{g}</text>'
        )
    for d in range(0, d_max + 1):
        parts.append(
            f'<text x="{12}" y="{y_of(d) + 4}" font-size="10" text-anchor="middle" '
            f'font-family="monospace">{d}</text>'
        )
    for ln in lines:
        # draw d = lam*(g - c) across the box
        g0, g1 = Fraction(0), Fraction(g_max) + Fraction(1, 2)
        d0, d1 = ln.lam * (g0 - ln.c), ln.lam * (g1 - ln.c)
        parts.append(
            f'<line x1="{float(x_of(0) + (g0 - 0) * cell_px):.1f}" '
            f'y1="{float(y_of(0) - d0 * cell_px):.1f}" '
            f'x2="{float(x_of(0) + g1 * cell_px):.1f}" '
            f'y2="{float(y_of(0) - d1 * cell_px):.1f}" '
            f'stroke="#8b1a1a" stroke-dasharray="4,3"/>'
        )
    for c in cells:
        if c.g > g_max or c.d > d_max:
            continue
        color = "#000000" if c.provenance == "computed" else "#1a3a8b"
        parts.append(
            f'<text x="{x_of(c.g)}" y="{y_of(c.d) + 4}" font-size="12" '
            f'text-anchor="middle" font-family="monospace" fill="{color}">'
            f"{_esc(c.label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# figures: each is its cells, box, vanishing lines and title


def figure_lgens():
    """The additive generators of the free bracket algebra on sigma (1,0),
    lambda (3,2) and rho (2,2) in the box (4, 3), computed: each cell is
    labelled by its basis words."""
    gens = [freealg.gen("sigma", 1, 0), freealg.gen("lambda", 3, 2), freealg.gen("rho", 2, 2)]
    box = (4, 3)
    by_cell: dict[tuple[int, int], list[str]] = {}
    for b in freealg.free_graded_lie_basis(gens, box):
        by_cell.setdefault((b.g, b.d), []).append(b.name)
    cells = [
        Cell(g=g, d=d, label=",".join(sorted(names)), provenance="computed")
        for (g, d), names in sorted(by_cell.items())
    ]
    return cells, box, [], "additive generators of the free bracket algebra, g <= 4, d <= 3"


def figure_rat():
    """The summary table of known low-degree rational homology of the
    genus-graded groups, recorded as literature fixtures (not computed by
    this package): dimension labels by (g, d), with '?' marking unknown
    entries, and the vanishing lines d = 2/3 (g - 1/2) and d = 4/5 (g - 1/4)."""
    cells = []
    for g in range(0, 10):
        cells.append(Cell(g=g, d=0, label="Q", provenance="paper-fixture"))
    cells.append(Cell(g=1, d=1, label="Q", provenance="paper-fixture"))
    cells.append(Cell(g=2, d=3, label="Q", provenance="paper-fixture"))
    for d in (3, 5, 6):
        cells.append(Cell(g=3, d=d, label="Q", provenance="paper-fixture"))
    for g in range(3, 10):
        cells.append(Cell(g=g, d=2, label="Q", provenance="paper-fixture"))
    for g in range(6, 10):
        cells.append(Cell(g=g, d=4, label="Q^2", provenance="paper-fixture"))
    cells.append(Cell(g=9, d=6, label="Q^3", provenance="paper-fixture"))
    unknowns = (
        [(4, d) for d in range(4, 9)]
        + [(5, d) for d in range(4, 9)]
        + [(6, d) for d in range(5, 9)]
        + [(7, d) for d in range(5, 9)]
        + [(8, d) for d in range(6, 9)]
        + [(9, d) for d in range(7, 9)]
    )
    for g, d in unknowns:
        cells.append(Cell(g=g, d=d, label="?", provenance="paper-fixture"))
    lines = [
        VanishingLine(lam=Fraction(2, 3), c=Fraction(1, 2)),
        VanishingLine(lam=Fraction(4, 5), c=Fraction(1, 4)),
    ]
    return cells, (9, 8), lines, "low-genus rational homology summary (literature fixtures)"


# `report FIGURE`'s figures by name
FIGURES = {"figure-lgens": figure_lgens, "figure-rat": figure_rat}
