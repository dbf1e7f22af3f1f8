"""Seed-driven augmentation: path swapping and color replacement.

Both operations preserve classification by construction. Swaps reorder
only adjacent paths whose bounding boxes are disjoint (overlapping pairs
would change painter's-order rendering), and recoloring applies an
injective map over the distinct fills so the distinct-fill count, and
with it the color category, cannot change. Equal (document, seed, spec)
inputs always yield equal outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PaletteTooSmall, TooFewPaths, ValidationError
from .model import Document, Hex, PathElement
from .parser import parse_paint

#: Note attached when no safe swap pair exists and overlap swaps are off.
NO_SWAP_AVAILABLE = "NoSwapAvailable"


def _canonical_palette(palette) -> tuple[Hex, ...]:
    out: list[Hex] = []
    for entry in palette:
        if isinstance(entry, Hex):
            out.append(entry)
            continue
        paint = parse_paint(str(entry))
        if not isinstance(paint, Hex):
            raise ValidationError(f"palette entry {entry!r} is not a flat color")
        out.append(paint)
    if len(set(out)) != len(out):
        raise ValidationError("palette entries must be distinct")
    return tuple(out)


@dataclass(frozen=True)
class AugmentSpec:
    """Augmentation controls: master seed, variant count, optional palette."""

    seed: int = 0
    n_variants: int = 1
    palette: tuple[Hex, ...] | None = None
    allow_overlap_swap: bool = False

    def __post_init__(self) -> None:
        if self.n_variants < 1:
            raise ValidationError("n_variants must be >= 1")
        if self.palette is not None:
            canonical = _canonical_palette(self.palette)
            if len(canonical) < 2:
                raise ValidationError("palette needs at least 2 entries")
            object.__setattr__(self, "palette", canonical)


def path_bbox(path: PathElement) -> tuple[float, float, float, float]:
    """Axis-aligned bounds over anchor and control points.

    Control points are a conservative superset of the true curve extent,
    so disjoint boxes guarantee disjoint geometry.
    """
    xs: list[float] = []
    ys: list[float] = []
    for cmd in path.commands:
        for p in cmd.points:
            xs.append(p.x)
            ys.append(p.y)
    return min(xs), min(ys), max(xs), max(ys)


def _disjoint(a: tuple[float, float, float, float],
              b: tuple[float, float, float, float]) -> bool:
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


def swap_paths(
    doc: Document, seed: int, allow_overlap_swap: bool = False
) -> tuple[Document, str | None]:
    """Swap one seeded pair of adjacent paths, guarding render order.

    Only pairs with disjoint bounding boxes are eligible unless
    ``allow_overlap_swap`` is set. Returns the new document and ``None``,
    or the unchanged document and a :data:`NO_SWAP_AVAILABLE` note when no
    eligible pair exists. Raises :class:`TooFewPaths` below two paths.
    """
    if len(doc.paths) < 2:
        raise TooFewPaths(f"document has {len(doc.paths)} path(s)")
    if allow_overlap_swap:
        candidates = list(range(len(doc.paths) - 1))
    else:
        boxes = [path_bbox(p) for p in doc.paths]
        candidates = [
            i for i in range(len(doc.paths) - 1) if _disjoint(boxes[i], boxes[i + 1])
        ]
    if not candidates:
        return doc, f"{NO_SWAP_AVAILABLE}: no adjacent disjoint pair"
    i = random.Random(seed).choice(candidates)
    paths = list(doc.paths)
    paths[i], paths[i + 1] = paths[i + 1], paths[i]
    return Document(doc.view_box, tuple(paths), doc.normalized), None


def replace_colors(doc: Document, spec: AugmentSpec) -> Document:
    """Recolor all distinct flat fills through a seeded injective map.

    Targets come from ``spec.palette`` when given (raising
    :class:`PaletteTooSmall` if it cannot cover the distinct fills) or are
    drawn as fresh random colors distinct from each other and from every
    existing fill. Geometry is untouched; injectivity keeps the
    distinct-fill count, and therefore the classification, invariant.
    """
    rng = random.Random(spec.seed)
    fills: list[Hex] = []
    for p in doc.paths:
        if isinstance(p.fill, Hex) and p.fill not in fills:
            fills.append(p.fill)
    if not fills:
        return doc

    if spec.palette is not None:
        if len(spec.palette) < len(fills):
            raise PaletteTooSmall(
                f"palette has {len(spec.palette)} colors for {len(fills)} fills"
            )
        targets = rng.sample(spec.palette, len(fills))
    else:
        used = set(fills)
        targets = []
        while len(targets) < len(fills):
            color = Hex(f"{rng.randrange(1 << 24):06x}")
            if color not in used:
                used.add(color)
                targets.append(color)
    mapping = dict(zip(fills, targets))

    paths = tuple(
        PathElement(p.commands, mapping.get(p.fill, p.fill), p.transform)
        for p in doc.paths
    )
    return Document(doc.view_box, paths, doc.normalized)
