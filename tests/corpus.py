"""Deterministic fixture corpus shared across the test suite.

Handcrafted icons cover every path opcode, every shape element, the
color syntaxes, group/transform nesting and the canvas fallbacks;
seeded generators extend the set to corpus scale and produce randomized
documents for property tests. Everything here is pure data + stdlib
random, independent of the code under test.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from svgforge.model import (
    CubicTo,
    Document,
    Hex,
    LineTo,
    MoveTo,
    NORMALIZED_VIEW_BOX,
    PathElement,
    Point,
)

HANDCRAFTED: dict[str, str] = {
    # minimal and command-alphabet coverage
    "minimal": '<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10" fill="#ff0000"/></svg>',
    "relative_mix": '<svg viewBox="0 0 100 100"><path d="m 10 10 l 20 0 h 10 v 10 l -5 5 z" fill="#000000"/></svg>',
    "absolute_hv": '<svg viewBox="0 0 100 100"><path d="M10 10H40V40H10Z" fill="#102030"/></svg>',
    "cubic_smooth": '<svg viewBox="0 0 100 100"><path d="M10 50C20 20 40 20 50 50S80 80 90 50L90 90L10 90Z" fill="#aa00aa"/></svg>',
    "cubic_smooth_rel": '<svg viewBox="0 0 100 100"><path d="m10 50c10 -30 30 -30 40 0s30 30 40 0l0 30l-80 0z" fill="#0a0a0a"/></svg>',
    "quad_smooth": '<svg viewBox="0 0 100 100"><path d="M10 50Q30 10 50 50T90 50L90 80L10 80Z" fill="#123456"/></svg>',
    "quad_smooth_rel": '<svg viewBox="0 0 100 100"><path d="m10 50q20 -40 40 0t40 0l0 25l-80 0z" fill="#654321"/></svg>',
    "arcs_absolute": '<svg viewBox="0 0 100 100"><path d="M20 50A15 15 0 0 1 50 50A15 15 0 1 0 80 50L80 90L20 90Z" fill="#004400"/></svg>',
    "arcs_relative": '<svg viewBox="0 0 100 100"><path d="m20 50a15 15 0 0 1 30 0a15 15 0 1 0 30 0l0 40l-60 0z" fill="#440044"/></svg>',
    "arc_rotated": '<svg viewBox="0 0 100 100"><path d="M20 60A30 15 30 1 0 80 60Z" fill="#220022"/></svg>',
    "all_opcodes": (
        '<svg viewBox="0 0 100 100"><path d="M10 10 m5 5 L30 20 l5 5 H40 h5 V30 v5 '
        "C50 40 55 45 60 40 c5 -5 10 0 10 5 S80 55 75 50 s-5 10 0 10 "
        "Q70 70 65 65 q-5 5 -10 0 T50 70 t-5 0 "
        'A10 8 15 1 0 30 60 a8 6 0 0 1 -10 -5 Z" fill="#333333"/></svg>'
    ),
    "multi_subpath": '<svg viewBox="0 0 100 100"><path d="M10 10L40 10L40 40ZM60 60L90 60L90 90Z" fill="#808080"/></svg>',
    "implicit_repeats": '<svg viewBox="0 0 100 100"><path d="M10 10 20 20 30 10 L40 40 50 50 60 40Z" fill="#010203"/></svg>',
    "scientific": '<svg viewBox="0 0 100 100"><path d="M1e1 1.5e1L2.5e1 .5e1l1e-1 0L25 30 10 30Z" fill="#0000aa"/></svg>',
    "flags_juxtaposed": '<svg viewBox="0 0 100 100"><path d="M10 50a20 20 0 0120 0a20 20 0 1040 0L70 90 10 90Z" fill="#778899"/></svg>',
    "comma_styles": '<svg viewBox="0 0 100 100"><path d="M 10,10 L20,10 20,20 L 10 , 20 z" fill="#abcdef"/></svg>',
    # shapes
    "rect_basic": '<svg viewBox="0 0 100 100"><rect x="10" y="10" width="50" height="30" fill="#112233"/></svg>',
    "rect_rounded": '<svg viewBox="0 0 100 100"><rect x="10" y="10" width="60" height="40" rx="8" ry="12" fill="#334455"/></svg>',
    "rect_rx_only": '<svg viewBox="0 0 100 100"><rect x="5" y="5" width="40" height="40" rx="10" fill="#556677"/></svg>',
    "circle_plain": '<svg viewBox="0 0 100 100"><circle cx="50" cy="50" r="30" fill="#ff8800"/></svg>',
    "ellipse_plain": '<svg viewBox="0 0 100 100"><ellipse cx="50" cy="50" rx="35" ry="15" fill="#0088ff"/></svg>',
    "line_plain": '<svg viewBox="0 0 100 100"><line x1="10" y1="90" x2="90" y2="10" fill="#000000"/></svg>',
    "polyline_plain": '<svg viewBox="0 0 100 100"><polyline points="10,10 30,40 50,10 70,40" fill="#224466"/></svg>',
    "polygon_triangle": '<svg viewBox="0 0 100 100"><polygon points="0,0 10,0 5,10" fill="#446688"/></svg>',
    # structure, transforms, canvases
    "group_nested": (
        '<svg viewBox="0 0 100 100"><g transform="translate(10,5) scale(0.8)" fill="#993311">'
        '<rect x="0" y="0" width="30" height="20"/><circle cx="60" cy="30" r="12"/>'
        '<path d="M5 50l20 0 0 20 -20 0z"/></g></svg>'
    ),
    "deep_groups": (
        '<svg viewBox="0 0 100 100"><g transform="rotate(30 50 50)"><g transform="translate(5,5)">'
        '<g transform="scale(1.2)"><rect x="20" y="20" width="30" height="30" fill="#119988"/></g></g></g></svg>'
    ),
    "matrix_skew": (
        '<svg viewBox="0 0 100 100"><path transform="matrix(1 0.2 -0.1 1 4 2)" d="M10 10L50 10L50 50Z" fill="#232323"/>'
        '<rect transform="skewX(15)" x="10" y="60" width="30" height="20" fill="#454545"/>'
        '<rect transform="skewY(-10)" x="60" y="60" width="20" height="20" fill="#676767"/></svg>'
    ),
    "style_fill": '<svg viewBox="0 0 100 100"><path d="M0 0L50 0L50 50L0 50Z" style="fill:#f00"/></svg>',
    "attr_beats_style": '<svg viewBox="0 0 100 100"><path d="M0 0L40 0L40 40Z" fill="#00ff00" style="fill:#0000ff"/></svg>',
    "named_colors": (
        '<svg viewBox="0 0 100 100"><rect x="0" y="0" width="40" height="40" fill="steelblue"/>'
        '<rect x="50" y="50" width="40" height="40" fill="coral"/></svg>'
    ),
    "rgb_forms": (
        '<svg viewBox="0 0 100 100"><rect x="0" y="0" width="30" height="30" fill="rgb(255,0,0)"/>'
        '<rect x="35" y="0" width="30" height="30" fill="rgb(100%,50%,0%)"/>'
        '<rect x="70" y="0" width="30" height="30" fill="#abc"/></svg>'
    ),
    "fill_none_dropped": (
        '<svg viewBox="0 0 100 100"><path d="M0 0L90 0L90 20L0 20Z" fill="none"/>'
        '<path d="M0 40L90 40L90 60L0 60Z" fill="#111213"/></svg>'
    ),
    "default_black": '<svg viewBox="0 0 100 100"><path d="M5 5L95 5L95 95L5 95Z"/></svg>',
    "gradient_reference": (
        '<svg viewBox="0 0 100 100"><defs><linearGradient id="g1"><stop offset="0" stop-color="#fff"/>'
        '</linearGradient></defs><rect x="10" y="10" width="80" height="80" fill="url(#g1)"/>'
        '<circle cx="50" cy="50" r="10" fill="#aa2200"/></svg>'
    ),
    "nonsquare_wide": '<svg viewBox="0 0 200 100"><rect x="0" y="0" width="200" height="100" fill="#202020"/></svg>',
    "nonsquare_tall": '<svg viewBox="0 0 100 200"><circle cx="50" cy="100" r="40" fill="#303030"/></svg>',
    "offset_viewbox": '<svg viewBox="-50 -50 100 100"><circle cx="0" cy="0" r="40" fill="#404040"/></svg>',
    "width_height_only": '<svg width="48" height="48"><rect x="8" y="8" width="32" height="32" fill="#505050"/></svg>',
    "metadata_junk": (
        '<svg viewBox="0 0 100 100"><title>t</title><desc>d</desc><metadata>m</metadata>'
        "<!-- a comment --><text x=\"1\" y=\"1\">nope</text>"
        '<path d="M10 10L90 10L90 90L10 90Z" fill="#606060"/></svg>'
    ),
    "multicolor_simple": (
        '<svg viewBox="0 0 100 100"><rect x="0" y="0" width="45" height="45" fill="#e63946"/>'
        '<rect x="55" y="0" width="45" height="45" fill="#457b9d"/>'
        '<circle cx="50" cy="75" r="20" fill="#2a9d8f"/></svg>'
    ),
}


_SHAPE_MAKERS = ("rect", "circle", "ellipse", "polygon", "path_lines", "path_curves", "path_arc")

_PALETTE = (
    "#e63946", "#f1faee", "#a8dadc", "#457b9d", "#1d3557", "#2a9d8f",
    "#e9c46a", "#f4a261", "#e76f51", "#264653", "#6d597a", "#355070",
)


def _cell_icon(rng: random.Random, monochrome: bool) -> str:
    """One random icon: 2-6 elements laid out on a 3x3 grid of a 96-unit box."""
    cells = [(col * 32, row * 32) for row in range(3) for col in range(3)]
    rng.shuffle(cells)
    n_elements = rng.randint(2, 6)
    color = rng.choice(_PALETTE)
    parts = []
    for i in range(n_elements):
        x0, y0 = cells[i]
        fill = color if monochrome else rng.choice(_PALETTE)
        kind = rng.choice(_SHAPE_MAKERS)
        if kind == "rect":
            parts.append(
                f'<rect x="{x0 + 2}" y="{y0 + 2}" width="{rng.randint(8, 26)}" '
                f'height="{rng.randint(8, 26)}" fill="{fill}"/>'
            )
        elif kind == "circle":
            parts.append(
                f'<circle cx="{x0 + 16}" cy="{y0 + 16}" r="{rng.randint(4, 13)}" fill="{fill}"/>'
            )
        elif kind == "ellipse":
            parts.append(
                f'<ellipse cx="{x0 + 16}" cy="{y0 + 16}" rx="{rng.randint(5, 14)}" '
                f'ry="{rng.randint(3, 10)}" fill="{fill}"/>'
            )
        elif kind == "polygon":
            pts = " ".join(
                f"{x0 + rng.randint(2, 30)},{y0 + rng.randint(2, 30)}" for _ in range(rng.randint(3, 5))
            )
            parts.append(f'<polygon points="{pts}" fill="{fill}"/>')
        elif kind == "path_lines":
            d = f"M{x0 + 4} {y0 + 4}" + "".join(
                f"L{x0 + rng.randint(2, 30)} {y0 + rng.randint(2, 30)}" for _ in range(rng.randint(2, 5))
            ) + "Z"
            parts.append(f'<path d="{d}" fill="{fill}"/>')
        elif kind == "path_curves":
            d = (
                f"M{x0 + 4} {y0 + 16}"
                f"C{x0 + 8} {y0 + 2} {x0 + 20} {y0 + 2} {x0 + 26} {y0 + 16}"
                f"Q{x0 + 16} {y0 + 30} {x0 + 4} {y0 + 16}Z"
            )
            parts.append(f'<path d="{d}" fill="{fill}"/>')
        else:
            r = rng.randint(5, 12)
            sweep = rng.randint(0, 1)
            d = (
                f"M{x0 + 16 - r} {y0 + 16}"
                f"A{r} {r} 0 {rng.randint(0, 1)} {sweep} {x0 + 16 + r} {y0 + 16}"
                f"L{x0 + 16} {y0 + 28}Z"
            )
            parts.append(f'<path d="{d}" fill="{fill}"/>')
    body = "".join(parts)
    if rng.random() < 0.3:
        body = f'<g transform="translate({rng.randint(0, 4)},{rng.randint(0, 4)})">{body}</g>'
    return f'<svg viewBox="0 0 96 96">{body}</svg>'


def generated_icons(n: int = 30, seed: int = 20240) -> dict[str, str]:
    rng = random.Random(seed)
    return {f"gen_{i:03d}": _cell_icon(rng, monochrome=rng.random() < 0.5) for i in range(n)}


def colored_icons(n: int = 100, seed: int = 77) -> dict[str, str]:
    """Multicolor icons with >= 2 spatially separated paths (swap-friendly)."""
    rng = random.Random(seed)
    out = {}
    for i in range(n):
        parts = []
        colors = rng.sample(_PALETTE, rng.randint(2, 4))
        for j, color in enumerate(colors):
            x0, y0 = (j % 2) * 50, (j // 2) * 50
            parts.append(
                f'<rect x="{x0 + 4}" y="{y0 + 4}" width="{rng.randint(10, 38)}" '
                f'height="{rng.randint(10, 38)}" fill="{color}"/>'
            )
        out[f"col_{i:03d}"] = f'<svg viewBox="0 0 100 100">{"".join(parts)}</svg>'
    return out


def full_corpus() -> dict[str, str]:
    corpus = dict(HANDCRAFTED)
    corpus.update(generated_icons())
    return corpus


def curved_icon(segments: int = 150) -> str:
    """One closed single-path scalloped ring of ``segments`` quadratic curves.

    Each curve runs between points 38 units from the center of a 96-unit
    box, with its control point 43 units out, and the last ends exactly where
    the first starts.
    """
    step = 2 * math.pi / segments

    def at(r: float, a: float) -> str:
        return f"{48 + r * math.cos(a):.2f} {48 + r * math.sin(a):.2f}"

    d = [f"M{at(38, 0)}"]
    d += [f"Q{at(43, (i - 0.5) * step)} {at(38, i * step)}"
          for i in range(1, segments + 1)]
    return f'<svg viewBox="0 0 96 96"><path d="{"".join(d)}" fill="#264653"/></svg>'


def write_corpus(directory: Path, corpus: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in corpus.items():
        (directory / f"{name}.svg").write_text(text, encoding="utf-8")


# --- randomized documents for property tests ---------------------------------


def random_normalized_document(rng: random.Random) -> Document:
    """A random already-normalized document (M/L/C only, resolved fills)."""
    paths = []
    for _ in range(rng.randint(1, 5)):
        cmds = []
        for _ in range(rng.randint(1, 3)):  # subpaths
            cmds.append(MoveTo(_rand_point(rng)))
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.5:
                    cmds.append(LineTo(_rand_point(rng)))
                else:
                    cmds.append(
                        CubicTo(_rand_point(rng), _rand_point(rng), _rand_point(rng))
                    )
        fill = Hex(f"{rng.randrange(1 << 24):06x}")
        paths.append(PathElement(tuple(cmds), fill))
    return Document(NORMALIZED_VIEW_BOX, tuple(paths), normalized=True)


def _rand_point(rng: random.Random) -> Point:
    return Point(round(rng.uniform(0, 1024), 4), round(rng.uniform(0, 1024), 4))


def random_raw_svg(rng: random.Random) -> str:
    """A random raw SVG exercising shapes, relative commands and transforms."""
    parts = [f'<rect x="2" y="2" width="{rng.randint(5, 40)}" height="{rng.randint(5, 40)}" fill="#123456"/>']
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("path", "circle", "poly"))
        fill = rng.choice(_PALETTE)
        if kind == "path":
            d = [f"M{rng.randint(0, 90)} {rng.randint(0, 90)}"]
            for _ in range(rng.randint(1, 6)):
                op = rng.choice("LlHhVvCcSsQqTtAz")
                if op in "Ll":
                    d.append(f"{op}{rng.randint(-20, 90)} {rng.randint(-20, 90)}")
                elif op in "HhVv":
                    d.append(f"{op}{rng.randint(-20, 90)}")
                elif op in "CcSs":
                    vals = " ".join(str(rng.randint(-20, 90)) for _ in range(6 if op in "Cc" else 4))
                    d.append(f"{op}{vals}")
                elif op in "QqTt":
                    vals = " ".join(str(rng.randint(-20, 90)) for _ in range(4 if op in "Qq" else 2))
                    d.append(f"{op}{vals}")
                elif op == "A":
                    d.append(
                        f"A{rng.randint(1, 30)} {rng.randint(1, 30)} {rng.randint(0, 359)} "
                        f"{rng.randint(0, 1)} {rng.randint(0, 1)} {rng.randint(0, 90)} {rng.randint(0, 90)}"
                    )
                else:
                    d.append("z")
            transform = ""
            if rng.random() < 0.4:
                transform = f' transform="rotate({rng.randint(-40, 40)} 48 48)"'
            parts.append(f'<path d="{"".join(d)}" fill="{fill}"{transform}/>')
        elif kind == "circle":
            parts.append(
                f'<circle cx="{rng.randint(10, 80)}" cy="{rng.randint(10, 80)}" '
                f'r="{rng.randint(2, 20)}" fill="{fill}"/>'
            )
        else:
            pts = " ".join(f"{rng.randint(0, 90)},{rng.randint(0, 90)}" for _ in range(rng.randint(3, 6)))
            parts.append(f'<polygon points="{pts}" fill="{fill}"/>')
    return f'<svg viewBox="0 0 96 96">{"".join(parts)}</svg>'
