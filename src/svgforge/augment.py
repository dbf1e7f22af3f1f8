"""Seed-driven augmentation: path swapping and color replacement.

Both operations preserve classification by construction. Swaps reorder
only adjacent paths whose bounding boxes are disjoint (overlapping pairs
would change painter's-order rendering), and recoloring applies an
injective map over the distinct fills so the distinct-fill count, and
with it the color category, cannot change. Equal (document, seed, spec)
inputs always yield equal outputs.

Each operation also works on the ``(d, fill)`` slices of normalized text
(:func:`~svgforge.normalizer.normalize_text`,
:func:`~svgforge.parser.document_slices`): :func:`recolor_slices` and
:func:`swap_slices` splice the slices, drawing from the seeded generators
exactly as :func:`replace_colors` and :func:`swap_paths` do on the
document those slices type to, so both give the same variant. The swap
guard reads a slice's numbers as verify does
(:func:`~svgforge.parser.slice_columns`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import PaletteTooSmall, TooFewPaths, ValidationError
from .model import Document, Hex, PathElement
from .parser import parse_paint, slice_columns

#: Note attached when no safe swap pair exists and overlap swaps are off.
NO_SWAP_AVAILABLE = "NoSwapAvailable"
#: Note for a recolor of a document that has no flat fill.
NO_FLAT_FILL = "no flat fill to recolor"


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
    xs, ys = path.args[0::2], path.args[1::2]
    return min(xs), min(ys), max(xs), max(ys)


def _slice_bbox(d: str) -> tuple[float, float, float, float]:
    """:func:`path_bbox` of canonical path data ``d``, from the same floats."""
    v = slice_columns(d)[1]
    xs, ys = v[::2], v[1::2]
    return min(xs), min(ys), max(xs), max(ys)


def _disjoint(a: tuple[float, float, float, float],
              b: tuple[float, float, float, float]) -> bool:
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


def _swap_index(boxes: list, seed: int, allow_overlap: bool) -> int | None:
    """The seeded first index of the adjacent pair of paths to swap, or
    ``None`` when no pair is eligible. ``boxes`` holds each path's bounding
    box; with ``allow_overlap`` only its length is read."""
    pairs = range(len(boxes) - 1)
    candidates = (list(pairs) if allow_overlap
                  else [i for i in pairs if _disjoint(boxes[i], boxes[i + 1])])
    if not candidates:
        return None
    return random.Random(seed).choice(candidates)


def _swapped(paths, seed: int, allow_overlap: bool, bbox) -> tuple[list | None, str | None]:
    if len(paths) < 2:
        raise TooFewPaths(f"document has {len(paths)} path(s)")
    i = _swap_index(paths if allow_overlap else list(map(bbox, paths)), seed, allow_overlap)
    if i is None:
        return None, f"{NO_SWAP_AVAILABLE}: no adjacent disjoint pair"
    out = list(paths)
    out[i], out[i + 1] = out[i + 1], out[i]
    return out, None


def swap_paths(
    doc: Document, seed: int, allow_overlap_swap: bool = False
) -> tuple[Document, str | None]:
    """Swap one seeded pair of adjacent paths, guarding render order.

    Only pairs with disjoint bounding boxes are eligible unless
    ``allow_overlap_swap`` is set. Returns the new document and ``None``,
    or the unchanged document and a :data:`NO_SWAP_AVAILABLE` note when no
    eligible pair exists. Raises :class:`TooFewPaths` below two paths.
    """
    paths, note = _swapped(doc.paths, seed, allow_overlap_swap, path_bbox)
    if paths is None:
        return doc, note
    return Document(doc.view_box, tuple(paths), doc.normalized), None


def swap_slices(
    paths: list[tuple[str, str]], seed: int, allow_overlap_swap: bool = False
) -> tuple[list[tuple[str, str]], str | None]:
    """:func:`swap_paths` on canonical ``(d, fill)`` slices."""
    swapped, note = _swapped(paths, seed, allow_overlap_swap, lambda path: _slice_bbox(path[0]))
    return (paths, note) if swapped is None else (swapped, None)


def _color_map(fills: list[Hex], spec: AugmentSpec) -> dict[Hex, Hex]:
    """A seeded injective map of the distinct flat ``fills``, in first-seen order.

    Targets come from ``spec.palette`` when given (raising
    :class:`PaletteTooSmall` if it cannot cover ``fills``) or are drawn as
    fresh random colors distinct from each other and from every fill.
    """
    rng = random.Random(spec.seed)
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
    return dict(zip(fills, targets))


def replace_colors(doc: Document, spec: AugmentSpec) -> Document:
    """Recolor all distinct flat fills through a seeded injective map.

    The map is :func:`_color_map`'s; a document with no flat fill is
    returned itself. Geometry is untouched; injectivity keeps the
    distinct-fill count, and therefore the classification, invariant.
    """
    fills = list(dict.fromkeys(p.fill for p in doc.paths if isinstance(p.fill, Hex)))
    if not fills:
        return doc
    mapping = _color_map(fills, spec)
    paths = tuple(replace(p, fill=mapping.get(p.fill, p.fill)) for p in doc.paths)
    return Document(doc.view_box, paths, doc.normalized)


def recolor_slices(paths: list[tuple[str, str]], spec: AugmentSpec) -> list[tuple[str, str]]:
    """:func:`replace_colors` on canonical ``(d, fill)`` slices, which are
    returned themselves when no fill is flat."""
    fills = [Hex(f[1:]) for f in dict.fromkeys(fill for _, fill in paths) if f[0] == "#"]
    if not fills:
        return paths
    mapping = {old.css: new.css for old, new in _color_map(fills, spec).items()}
    return [(d, mapping.get(fill, fill)) for d, fill in paths]
