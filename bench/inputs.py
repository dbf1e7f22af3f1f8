"""Seeded inputs for the three benchmark workloads.

Everything here is plain text built with ``random.Random(seed)``; nothing
imports svgforge. Each generated icon carries what the generator knows by
construction (surviving drawables, distinct paints and, where it is fixed,
the normalized M/L/C command count), so the checks never have to trust the
program to describe its own input.

Tier sizes are constants and the seed only moves coordinates, colours and
the order of choices: two seeds give corpora of the same make-up, so their
timings are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NS = 'xmlns="http://www.w3.org/2000/svg"'

PALETTE = (
    "#e63946", "#f1faee", "#a8dadc", "#457b9d", "#1d3557", "#2a9d8f",
    "#e9c46a", "#f4a261", "#e76f51", "#264653", "#6d597a", "#355070",
    "#b56576", "#eaac8b", "#0b6e4f", "#08a045",
)


@dataclass(frozen=True)
class Icon:
    """One raw icon and what its generator knows about it."""

    name: str
    svg: str
    paths: int  # drawables that survive normalization
    fills: int  # distinct paints after normalization
    commands: int | None = None  # normalized M/L/C count, when fixed


# --- handcrafted cases --------------------------------------------------------
# (name, svg, surviving drawables, distinct paints). They cover every path
# opcode in both relativities, every shape element, transforms, nested
# groups, the colour syntaxes and the canvas fallbacks.

HANDCRAFTED: tuple[tuple[str, str, int, int], ...] = (
    ("hc_lines_abs", '<svg viewBox="0 0 100 100"><path d="M10 10L60 12L58 70Z" fill="#ff0000"/></svg>', 1, 1),
    ("hc_lines_rel", '<svg viewBox="0 0 100 100"><path d="m10 10 l30 0 h12 v14 l-6 6 z" fill="#000000"/></svg>', 1, 1),
    ("hc_hv_abs", '<svg viewBox="0 0 100 100"><path d="M12 12H44V44H12Z" fill="#102030"/></svg>', 1, 1),
    ("hc_cubic_s", '<svg viewBox="0 0 100 100"><path d="M10 50C20 20 40 20 50 50S80 80 90 50L90 90L10 90Z" fill="#aa00aa"/></svg>', 1, 1),
    ("hc_cubic_s_rel", '<svg viewBox="0 0 100 100"><path d="m10 50c10 -30 30 -30 40 0s30 30 40 0l0 30l-80 0z" fill="#0a0a0a"/></svg>', 1, 1),
    ("hc_quad_t", '<svg viewBox="0 0 100 100"><path d="M10 50Q30 10 50 50T90 50L90 80L10 80Z" fill="#123456"/></svg>', 1, 1),
    ("hc_quad_t_rel", '<svg viewBox="0 0 100 100"><path d="m10 50q20 -40 40 0t40 0l0 25l-80 0z" fill="#654321"/></svg>', 1, 1),
    ("hc_arcs_abs", '<svg viewBox="0 0 100 100"><path d="M20 50A15 15 0 0 1 50 50A15 15 0 1 0 80 50L80 90L20 90Z" fill="#004400"/></svg>', 1, 1),
    ("hc_arcs_rel", '<svg viewBox="0 0 100 100"><path d="m20 50a15 15 0 0 1 30 0a15 15 0 1 0 30 0l0 40l-60 0z" fill="#440044"/></svg>', 1, 1),
    ("hc_arc_rotated", '<svg viewBox="0 0 100 100"><path d="M20 60A30 15 30 1 0 80 60Z" fill="#220022"/></svg>', 1, 1),
    ("hc_all_opcodes", (
        '<svg viewBox="0 0 100 100"><path d="M10 10 m5 5 L30 20 l5 5 H40 h5 V30 v5 '
        "C50 40 55 45 60 40 c5 -5 10 0 10 5 S80 55 75 50 s-5 10 0 10 "
        "Q70 70 65 65 q-5 5 -10 0 T50 70 t-5 0 "
        'A10 8 15 1 0 30 60 a8 6 0 0 1 -10 -5 Z" fill="#333333"/></svg>'), 1, 1),
    ("hc_subpaths", '<svg viewBox="0 0 100 100"><path d="M10 10L40 10L40 40ZM60 60L90 60L90 90Z" fill="#808080"/></svg>', 1, 1),
    ("hc_implicit", '<svg viewBox="0 0 100 100"><path d="M10 10 20 20 30 10 L40 40 50 50 60 40Z" fill="#010203"/></svg>', 1, 1),
    ("hc_scientific", '<svg viewBox="0 0 100 100"><path d="M1e1 1.5e1L2.5e1 .5e1l1e-1 0L25 30 10 30Z" fill="#0000aa"/></svg>', 1, 1),
    ("hc_flags", '<svg viewBox="0 0 100 100"><path d="M10 50a20 20 0 0120 0a20 20 0 1040 0L70 90 10 90Z" fill="#778899"/></svg>', 1, 1),
    ("hc_commas", '<svg viewBox="0 0 100 100"><path d="M 10,10 L20,10 20,20 L 10 , 20 z" fill="#abcdef"/></svg>', 1, 1),
    ("hc_rect", '<svg viewBox="0 0 100 100"><rect x="10" y="10" width="50" height="30" fill="#112233"/></svg>', 1, 1),
    ("hc_rect_round", '<svg viewBox="0 0 100 100"><rect x="10" y="10" width="60" height="40" rx="8" ry="12" fill="#334455"/></svg>', 1, 1),
    ("hc_rect_rx", '<svg viewBox="0 0 100 100"><rect x="5" y="5" width="40" height="40" rx="10" fill="#556677"/></svg>', 1, 1),
    ("hc_circle", '<svg viewBox="0 0 100 100"><circle cx="50" cy="50" r="30" fill="#ff8800"/></svg>', 1, 1),
    ("hc_ellipse", '<svg viewBox="0 0 100 100"><ellipse cx="50" cy="50" rx="35" ry="15" fill="#0088ff"/></svg>', 1, 1),
    ("hc_line", '<svg viewBox="0 0 100 100"><line x1="10" y1="90" x2="90" y2="10" fill="#000000"/></svg>', 1, 1),
    ("hc_polyline", '<svg viewBox="0 0 100 100"><polyline points="10,10 30,40 50,10 70,40" fill="#224466"/></svg>', 1, 1),
    ("hc_polygon", '<svg viewBox="0 0 100 100"><polygon points="0,0 10,0 5,10" fill="#446688"/></svg>', 1, 1),
    ("hc_group", (
        '<svg viewBox="0 0 100 100"><g transform="translate(10,5) scale(0.8)" fill="#993311">'
        '<rect x="0" y="0" width="30" height="20"/><circle cx="60" cy="30" r="12"/>'
        '<path d="M5 50l20 0 0 20 -20 0z"/></g></svg>'), 3, 1),
    ("hc_deep_groups", (
        '<svg viewBox="0 0 100 100"><g transform="rotate(30 50 50)"><g transform="translate(5,5)">'
        '<g transform="scale(1.2)"><rect x="20" y="20" width="30" height="30" fill="#119988"/></g></g></g></svg>'), 1, 1),
    ("hc_matrix_skew", (
        '<svg viewBox="0 0 100 100"><path transform="matrix(1 0.2 -0.1 1 4 2)" d="M10 10L50 10L50 50Z" fill="#232323"/>'
        '<rect transform="skewX(15)" x="10" y="60" width="30" height="20" fill="#454545"/>'
        '<rect transform="skewY(-10)" x="60" y="60" width="20" height="20" fill="#676767"/></svg>'), 3, 3),
    ("hc_style_fill", '<svg viewBox="0 0 100 100"><path d="M0 0L50 0L50 50L0 50Z" style="fill:#f00"/></svg>', 1, 1),
    ("hc_attr_beats_style", '<svg viewBox="0 0 100 100"><path d="M0 0L40 0L40 40Z" fill="#00ff00" style="fill:#0000ff"/></svg>', 1, 1),
    ("hc_named", (
        '<svg viewBox="0 0 100 100"><rect x="0" y="0" width="40" height="40" fill="steelblue"/>'
        '<rect x="50" y="50" width="40" height="40" fill="coral"/></svg>'), 2, 2),
    ("hc_rgb", (
        '<svg viewBox="0 0 100 100"><rect x="0" y="0" width="30" height="30" fill="rgb(255,0,0)"/>'
        '<rect x="35" y="0" width="30" height="30" fill="rgb(100%,50%,0%)"/>'
        '<rect x="70" y="0" width="30" height="30" fill="#abc"/></svg>'), 3, 3),
    ("hc_fill_none", (
        '<svg viewBox="0 0 100 100"><path d="M0 0L90 0L90 20L0 20Z" fill="none"/>'
        '<path d="M0 40L90 40L90 60L0 60Z" fill="#111213"/></svg>'), 1, 1),
    ("hc_default_black", '<svg viewBox="0 0 100 100"><path d="M5 5L95 5L95 95L5 95Z"/></svg>', 1, 1),
    ("hc_gradient", (
        '<svg viewBox="0 0 100 100"><defs><linearGradient id="g1"><stop offset="0" stop-color="#fff"/>'
        '</linearGradient></defs><rect x="10" y="10" width="80" height="80" fill="url(#g1)"/>'
        '<circle cx="50" cy="50" r="10" fill="#aa2200"/></svg>'), 2, 2),
    ("hc_wide", '<svg viewBox="0 0 200 100"><rect x="0" y="0" width="200" height="100" fill="#202020"/></svg>', 1, 1),
    ("hc_tall", '<svg viewBox="0 0 100 200"><circle cx="50" cy="100" r="40" fill="#303030"/></svg>', 1, 1),
    ("hc_offset_vb", '<svg viewBox="-50 -50 100 100"><circle cx="0" cy="0" r="40" fill="#404040"/></svg>', 1, 1),
    ("hc_width_height", '<svg width="48" height="48"><rect x="8" y="8" width="32" height="32" fill="#505050"/></svg>', 1, 1),
    ("hc_metadata", (
        '<svg viewBox="0 0 100 100"><title>t</title><desc>d</desc><metadata>m</metadata>'
        '<!-- a comment --><text x="1" y="1">nope</text>'
        '<path d="M10 10L90 10L90 90L10 90Z" fill="#606060"/></svg>'), 1, 1),
    ("hc_multicolor", (
        '<svg viewBox="0 0 100 100"><rect x="0" y="0" width="45" height="45" fill="#e63946"/>'
        '<rect x="55" y="0" width="45" height="45" fill="#457b9d"/>'
        '<circle cx="50" cy="75" r="20" fill="#2a9d8f"/></svg>'), 3, 3),
)


def handcrafted() -> list[Icon]:
    return [Icon(name, svg, paths, fills) for name, svg, paths, fills in HANDCRAFTED]


# --- seeded tiers -------------------------------------------------------------


def _grid_icon(rng: random.Random, i: int) -> Icon:
    """2-6 shapes and paths laid out on a 3x3 grid of a 96-unit box.

    The index fixes how many elements there are and of which kinds, so every
    seed gets the same mix; the seed places, sizes and colours them.
    """
    cells = [(col * 32, row * 32) for row in range(3) for col in range(3)]
    rng.shuffle(cells)
    monochrome = i % 2 == 0
    base = rng.choice(PALETTE)
    parts, fills = [], set()
    for j in range(2 + i % 5):
        x0, y0 = cells[j]
        fill = base if monochrome else rng.choice(PALETTE)
        fills.add(fill)
        kind = (i + j) % 7
        if kind == 0:
            parts.append(f'<rect x="{x0 + 2}" y="{y0 + 2}" width="{rng.randint(8, 26)}" '
                         f'height="{rng.randint(8, 26)}" fill="{fill}"/>')
        elif kind == 1:
            parts.append(f'<circle cx="{x0 + 16}" cy="{y0 + 16}" r="{rng.randint(4, 13)}" fill="{fill}"/>')
        elif kind == 2:
            parts.append(f'<ellipse cx="{x0 + 16}" cy="{y0 + 16}" rx="{rng.randint(5, 14)}" '
                         f'ry="{rng.randint(3, 10)}" fill="{fill}"/>')
        elif kind == 3:
            pts = " ".join(f"{x0 + rng.randint(2, 30)},{y0 + rng.randint(2, 30)}"
                           for _ in range(3 + j % 3))
            parts.append(f'<polygon points="{pts}" fill="{fill}"/>')
        elif kind == 4:
            d = f"M{x0 + 4} {y0 + 4}" + "".join(
                f"L{x0 + rng.randint(2, 30)} {y0 + rng.randint(2, 30)}"
                for _ in range(2 + j % 4)) + "Z"
            parts.append(f'<path d="{d}" fill="{fill}"/>')
        elif kind == 5:
            d = (f"M{x0 + 4} {y0 + 16}C{x0 + 8} {y0 + 2} {x0 + 20} {y0 + 2} {x0 + 26} {y0 + 16}"
                 f"Q{x0 + 16} {y0 + 30} {x0 + 4} {y0 + 16}Z")
            parts.append(f'<path d="{d}" fill="{fill}"/>')
        else:
            r = rng.randint(5, 12)
            d = (f"M{x0 + 16 - r} {y0 + 16}A{r} {r} 0 {rng.randint(0, 1)} {rng.randint(0, 1)} "
                 f"{x0 + 16 + r} {y0 + 16}L{x0 + 16} {y0 + 28}Z")
            parts.append(f'<path d="{d}" fill="{fill}"/>')
    body = "".join(parts)
    if i % 3 == 0:
        body = f'<g transform="translate({rng.randint(0, 4)},{rng.randint(0, 4)})">{body}</g>'
    return Icon(f"grid_{i:04d}", f'<svg viewBox="0 0 96 96">{body}</svg>', len(parts), len(fills))


def _rect_icon(rng: random.Random, i: int) -> Icon:
    """2-4 rects of distinct colours, one per quadrant (swap-friendly)."""
    colors = rng.sample(PALETTE, 2 + i % 3)
    parts = []
    for j, color in enumerate(colors):
        x0, y0 = (j % 2) * 50, (j // 2) * 50
        parts.append(f'<rect x="{x0 + 4}" y="{y0 + 4}" width="{rng.randint(10, 38)}" '
                     f'height="{rng.randint(10, 38)}" fill="{color}"/>')
    return Icon(f"rect_{i:04d}", f'<svg viewBox="0 0 100 100">{"".join(parts)}</svg>',
                len(colors), len(colors))


def _raw_mix_icon(rng: random.Random, i: int) -> Icon:
    """A rect plus paths with relative, S/T and A commands, circles and polygons.

    As in :func:`_grid_icon`, the index fixes the element counts and kinds.
    """
    parts = [f'<rect x="2" y="2" width="{rng.randint(5, 40)}" height="{rng.randint(5, 40)}" fill="#123456"/>']
    fills = {"#123456"}
    for j in range(i % 5):
        kind = (i + j) % 3
        fill = rng.choice(PALETTE)
        fills.add(fill)
        if kind == 0:
            # the first drawing command is a line, so the path always has geometry
            d = [f"M{rng.randint(0, 90)} {rng.randint(0, 90)}",
                 f"l{rng.randint(1, 30)} {rng.randint(1, 30)}"]
            for _ in range(1 + (i + 2 * j) % 6):
                op = rng.choice("LlHhVvCcSsQqTtAz")
                if op in "Ll":
                    d.append(f"{op}{rng.randint(-20, 90)} {rng.randint(-20, 90)}")
                elif op in "HhVv":
                    d.append(f"{op}{rng.randint(-20, 90)}")
                elif op in "CcSsQqTt":
                    n = {"C": 6, "S": 4, "Q": 4, "T": 2}[op.upper()]
                    d.append(op + " ".join(str(rng.randint(-20, 90)) for _ in range(n)))
                elif op == "A":
                    d.append(f"A{rng.randint(1, 30)} {rng.randint(1, 30)} {rng.randint(0, 359)} "
                             f"{rng.randint(0, 1)} {rng.randint(0, 1)} {rng.randint(0, 90)} {rng.randint(0, 90)}")
                else:
                    d.append("z")
            transform = f' transform="rotate({rng.randint(-40, 40)} 48 48)"' if (i + j) % 5 < 2 else ""
            parts.append(f'<path d="{"".join(d)}" fill="{fill}"{transform}/>')
        elif kind == 1:
            parts.append(f'<circle cx="{rng.randint(10, 80)}" cy="{rng.randint(10, 80)}" '
                         f'r="{rng.randint(2, 20)}" fill="{fill}"/>')
        else:
            pts = " ".join(f"{rng.randint(0, 90)},{rng.randint(0, 90)}" for _ in range(3 + j % 4))
            parts.append(f'<polygon points="{pts}" fill="{fill}"/>')
    return Icon(f"mix_{i:04d}", f'<svg viewBox="0 0 96 96">{"".join(parts)}</svg>', len(parts), len(fills))


def _dense_d(rng: random.Random, n_commands: int, x0: float, y0: float, size: float) -> str:
    """Path data of exactly ``n_commands`` normalized commands (one M, no Z or A).

    Every opcode used here maps to exactly one M/L/C command, so the
    normalized count is known without running the normalizer.
    """
    def pt() -> tuple[float, float]:
        return round(x0 + rng.uniform(0, size), 1), round(y0 + rng.uniform(0, size), 1)

    x, y = pt()
    out = [f"M{x} {y}"]
    for _ in range(n_commands - 1):
        op = rng.choice("LlHhVvCcSsQqTt")
        nx, ny = pt()
        if op.islower():
            dx, dy = round(nx - x, 1), round(ny - y, 1)
        if op == "L":
            out.append(f"L{nx} {ny}")
        elif op == "l":
            out.append(f"l{dx} {dy}")
            nx, ny = x + dx, y + dy
        elif op == "H":
            out.append(f"H{nx}")
            ny = y
        elif op == "h":
            out.append(f"h{dx}")
            nx, ny = x + dx, y
        elif op == "V":
            out.append(f"V{ny}")
            nx = x
        elif op == "v":
            out.append(f"v{dy}")
            nx, ny = x, y + dy
        elif op.upper() in "CSQT":
            n_ctrl = {"C": 2, "S": 1, "Q": 1, "T": 0}[op.upper()]
            ctrl = [pt() for _ in range(n_ctrl)]
            if op.isupper():
                coords = [v for p in ctrl for v in p] + [nx, ny]
            else:
                coords = [round(v - (x if i % 2 == 0 else y), 1)
                          for i, v in enumerate([v for p in ctrl for v in p])] + [dx, dy]
                nx, ny = x + dx, y + dy
            out.append(op + " ".join(str(v) for v in coords))
        x, y = nx, ny
    return "".join(out)


def _dense_icon(rng: random.Random, name: str, n_commands: int, multicolor: bool) -> Icon:
    """Path-only icon with a fixed normalized command count (20-260)."""
    if not multicolor:
        d = _dense_d(rng, n_commands, 4, 4, 88)
        svg = f'<svg viewBox="0 0 96 96"><path d="{d}" fill="{rng.choice(PALETTE)}"/></svg>'
        return Icon(name, svg, 1, 1, n_commands)
    k = 2 + n_commands % 3  # 2-4 paths, each at least 6 commands
    sizes = [n_commands // k + (1 if i < n_commands % k else 0) for i in range(k)]
    colors = rng.sample(PALETTE, k)
    parts = [f'<path d="{_dense_d(rng, s, (i % 2) * 48, (i // 2) * 48, 46)}" fill="{c}"/>'
             for i, (s, c) in enumerate(zip(sizes, colors))]
    return Icon(name, f'<svg viewBox="0 0 96 96">{"".join(parts)}</svg>', k, k, n_commands)


BUILD_TIERS = {"grid": 480, "rects": 300, "rawmix": 400, "dense": 300}
DENSE_RANGE = (20, 260)


def build_corpus(seed: int) -> list[Icon]:
    """~1.5k raw icons: handcrafted, grid, rect, raw-mix and dense tiers.

    The dense tier's command counts are an even spread over 20-260, half
    single-path monochrome and half 2-4 path multicolour, so every level and
    ``OutOfRange`` occur in fixed proportions whatever the seed.
    """
    rng = random.Random(seed)
    icons = handcrafted()
    icons += [_grid_icon(rng, i) for i in range(BUILD_TIERS["grid"])]
    icons += [_rect_icon(rng, i) for i in range(BUILD_TIERS["rects"])]
    icons += [_raw_mix_icon(rng, i) for i in range(BUILD_TIERS["rawmix"])]
    n = BUILD_TIERS["dense"]
    lo, hi = DENSE_RANGE
    counts = [lo + (hi - lo) * i // (n - 1) for i in range(n)]
    icons += [_dense_icon(rng, f"dense_{i:04d}", c, multicolor=i % 2 == 1)
              for i, c in enumerate(counts)]
    return icons


# --- verify: small corpus plus large curved tier --------------------------------

VERIFY_SMALL_GRID = 60
VERIFY_SMALL_RECTS = 196
# One curve per size. Time and memory grow with the square of the segment
# count; at 40 segments one drawable peaks near 0.5 GB.
VERIFY_LARGE_SEGMENTS = (10, 20, 30, 40)


def _curved_icon(rng: random.Random, name: str, segments: int) -> Icon:
    """One closed single-path monochrome blob of ``segments`` quadratic curves.

    The seed turns the blob and jitters its radii by about 1%, so the
    verifier's work, which depends on the outline's length and curvature,
    hardly changes from seed to seed.
    """
    cx = cy = 48.0
    step = 2 * math.pi / segments
    turn = rng.uniform(0, step)
    d = []
    for i in range(segments + 1):
        a = turn + i * step
        r = rng.uniform(37.5, 38.5)
        x, y = cx + r * math.cos(a), cy + r * math.sin(a)
        if i == 0:
            d.append(f"M{x:.2f} {y:.2f}")
            first = (x, y)
            continue
        if i == segments:
            x, y = first
        qa = a - step / 2
        qr = rng.uniform(42.5, 43.5)
        d.append(f"Q{cx + qr * math.cos(qa):.2f} {cy + qr * math.sin(qa):.2f} {x:.2f} {y:.2f}")
    svg = f'<svg viewBox="0 0 96 96"><path d="{"".join(d)}" fill="{rng.choice(PALETTE)}"/></svg>'
    return Icon(name, svg, 1, 1, segments + 1)


def verify_corpus(seed: int) -> list[Icon]:
    """Handcrafted, grid and rect icons plus single-path curves of 10-40 segments."""
    rng = random.Random(seed)
    icons = handcrafted()
    icons += [_grid_icon(rng, i) for i in range(VERIFY_SMALL_GRID)]
    icons += [_rect_icon(rng, i) for i in range(VERIFY_SMALL_RECTS)]
    icons += [_curved_icon(rng, f"curve_{s:02d}", s) for s in VERIFY_LARGE_SEGMENTS]
    return icons


def displaced_pairs(seed: int) -> list[tuple[str, str, str, float]]:
    """(name, raw svg, normalized svg, offset): the normalized side is moved.

    Each raw icon is one axis-aligned square; the normalized side is the same
    square on the 1024 canvas shifted right by ``offset`` canvas units, so the
    worst deviation is exactly the offset.
    """
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for i, offset in enumerate((0.75, 1.5, 4.0, 12.5, 40.0)):
        x, y, s = rng.randint(5, 30), rng.randint(5, 30), rng.randint(20, 50)
        raw = (f'<svg viewBox="0 0 128 128"><rect x="{x}" y="{y}" width="{s}" height="{s}" '
               f'fill="#336699"/></svg>')
        k = 8.0  # 128 -> 1024
        x0, y0, x1, y1 = x * k + offset, y * k, (x + s) * k + offset, (y + s) * k
        norm = (f'<svg {NS} viewBox="0 0 1024 1024"><path d="M{x0:g} {y0:g}L{x1:g} {y0:g}'
                f'L{x1:g} {y1:g}L{x0:g} {y1:g}L{x0:g} {y0:g}" fill="#336699"/></svg>')
        out.append((f"moved_{i}", raw, norm, offset))
    return out


# --- score: references and rollouts --------------------------------------------

SCORE_GROUPS = 150
# One group's rollouts, in order. Every group has the same mix, so the share
# of malformed texts (integrity 0) is fixed at 2/8.
ROLLOUT_KINDS = ("verbatim", "drop1", "dup1", "truncated",
                 "other", "verbatim", "dup2", "truncated")


@dataclass(frozen=True)
class Rollout:
    id: str
    generated: str
    reference: str
    n_generated: int  # path count of the generated text, 0 if malformed
    n_reference: int
    flag: int  # 1 iff the generated text is well formed


def _canonical_path(rng: random.Random, n_segments: int) -> str:
    def p() -> str:
        return f"{rng.randint(0, 102400) / 100:g} {rng.randint(0, 102400) / 100:g}"

    d = [f"M{p()}"]
    for _ in range(n_segments):
        d.append(f"L{p()}" if rng.random() < 0.5 else f"C{p()} {p()} {p()}")
    return f'<path d="{"".join(d)}" fill="{rng.choice(PALETTE)}"/>'


def _svg_of(paths: list[str]) -> str:
    return f'<svg {NS} viewBox="0 0 1024 1024">{"".join(paths)}</svg>'


def score_pairs(seed: int) -> list[list[Rollout]]:
    """``SCORE_GROUPS`` groups of 8 rollouts sharing one canonical reference."""
    rng = random.Random(seed)
    # group g has 2 + g % 5 paths of 2-6 segments: the same sizes for every seed
    refs = [[_canonical_path(rng, 2 + (g + j) % 5) for j in range(2 + g % 5)]
            for g in range(SCORE_GROUPS)]
    groups = []
    for g, ref_paths in enumerate(refs):
        ref = _svg_of(ref_paths)
        n_ref = len(ref_paths)
        group = []
        for k, kind in enumerate(ROLLOUT_KINDS):
            flag = 1
            if kind == "verbatim":
                paths = list(ref_paths)
            elif kind == "drop1":
                paths = list(ref_paths)
                del paths[rng.randrange(len(paths))]
            elif kind.startswith("dup"):
                paths = list(ref_paths)
                for _ in range(int(kind[-1])):
                    paths.insert(rng.randrange(len(paths) + 1), rng.choice(ref_paths))
            elif kind == "other":
                paths = refs[(g + 1 + rng.randrange(SCORE_GROUPS - 1)) % SCORE_GROUPS]
            else:  # truncated: the root is never closed, so the XML is malformed
                flag = 0
                paths = []
            gen = _svg_of(paths) if flag else ref[: rng.randint(10, len(ref) - len("</svg>"))]
            group.append(Rollout(f"g{g:03d}_r{k}", gen, ref, len(paths), n_ref, flag))
        groups.append(group)
    return groups
