"""Geometric oracle for the normalization pipeline.

Original drawables are sampled analytically and converted paths are
flattened; the two point sets are compared with a symmetric
point-to-segment Hausdorff measure.

The verifier shares three rules with the normalizer rather than restating
them, and reads no path command itself: the command walk (``iter_segments``,
which both sides go through: it reads raw commands of either relativity
and normalized M/L/C alike, and applies relative offsets, implicit linetos,
Z's return, the S/T reflection and the H/V projection), the shape outline
(``shape_segments``: SVG defines each basic shape as a path, so a shape is
the lines and quarter arcs that walk would yield, with the rect
corner-radius rule and the degenerate-shape checks), and the arc
endpoint-to-center conversion (``arc_center``). A bug there would show on
both sides alike, so those rules are pinned by explicit-value tests
instead (the ``TestToAbsolute`` cases, ``test_smooth_cubic_reflection``,
``test_smooth_quad_reflection_chain``, ``test_h_projection``,
``TestShapeSegments``, ``TestShapeToPath`` and the ``arc_center``
property test ``TestArcCenter``). Everything the normalizer then does
with them stays independent and is checked here: the original side is
sampled, ``SAMPLES_PER_SPAN`` points per segment and per 90-degree arc
span, with quadratics sampled directly rather than degree-elevated and
arcs, ellipses and rect corners by angle rather than as 90-degree cubics
or ``KAPPA`` quarters; the converted side is flattened by adaptive
subdivision; transforms and the canvas map are applied to the samples
rather than flattened into coordinates; and the distance kernel is this
module's own.

The distance kernel is the only code in the package that uses numpy, and
it imports numpy on first use, so importing svgforge, this module included,
does not load it. The kernel holds at most ``PAIR_BUDGET`` point-segment
pairs at a time, so memory stays bounded whatever a drawable's segment
count. When every pair fits, it measures all of them at once. Otherwise
it splits the points into even contiguous chunks of at most
``PAIR_BUDGET // segments`` points and measures each chunk against the
segments that can hold a nearest one. That culling is exact. Every chunk point lies in the chunk's bounding box.
So no chunk point is farther from segment ``j`` than ``U_j``, the distance
from the box corner farthest from either endpoint of ``j`` to that
endpoint. No chunk point is nearer to ``j`` than the gap between the
chunk's box and ``j``'s box. Each point's nearest segment is therefore
within ``U = min_j U_j``, and a segment whose gap exceeds ``U`` is nearest
to no point of the chunk. The test allows a slack of ``_CULL_ULPS`` ulps
of the coordinate scale, above the rounding of the compared distances, so
rounding can only keep more segments. Each kept pair is computed with
the same operations in the same order as the all-at-once call, so the
distances, the worst one and its point are the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PathCountMismatch, ValidationError
from .model import (
    AffineTransform,
    Document,
    Drawable,
    PathElement,
    Point,
    ShapeElement,
)
from .normalizer import (
    arc_center,
    arc_spans,
    canvas_transform,
    convert_element,
    iter_segments,
    shape_segments,
)

if TYPE_CHECKING:
    import numpy as np

#: Largest deviation from the source geometry that verification allows, in canvas units.
DEFAULT_TOLERANCE = 0.5
#: Analytic samples per segment, and per 90-degree span of an arc, on the original side.
SAMPLES_PER_SPAN = 64
#: Most point-segment pairs the distance kernel holds at once (about 1 MB per array).
PAIR_BUDGET = 1 << 17
# Culling slack in ulps of the coordinate scale; rounding moves the compared
# distances by at most about 22.
_CULL_ULPS = 64
# Coordinate scales whose squared differences neither overflow nor lose the
# slack's digits to underflow; outside it every segment is kept.
_CULL_SCALE = (1e-100, 1e100)


def check_tolerance(tolerance: float) -> None:
    """Raise :class:`ValidationError` unless ``tolerance`` is finite and positive."""
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")


@dataclass(frozen=True)
class Polyline:
    """An ordered point chain; consecutive duplicates are removed."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValidationError("polyline needs at least 2 points")

    def __len__(self) -> int:
        return len(self.points)


def polyline(points) -> Polyline | None:
    """Build a polyline, dropping consecutive duplicates.

    Returns ``None`` when fewer than 2 distinct consecutive points remain
    (a degenerate chain with no outline).
    """
    deduped: list[Point] = []
    for p in points:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) < 2:
        return None
    return Polyline(tuple(deduped))


@dataclass(frozen=True)
class DeviationReport:
    max_deviation: float
    argmax_point: Point
    samples_used: int


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    tolerance: float
    reports: tuple[DeviationReport, ...]

    @property
    def worst(self) -> float:
        return max((r.max_deviation for r in self.reports), default=0.0)


# --- flattening ------------------------------------------------------------


def _flatness(p0: Point, c1: Point, c2: Point, p1: Point) -> float:
    # max control-point distance to the chord segment p0-p1: the curve lies in
    # the hull of its control points, so it is no farther from the chord. The
    # segment, not its line, so a curve that turns back beyond an endpoint is
    # not taken for its chord.
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    norm = math.hypot(dx, dy)
    if norm < 1e-30:
        return max(math.hypot(c1.x - x0, c1.y - y0), math.hypot(c2.x - x0, c2.y - y0))
    len2 = dx * dx + dy * dy
    worst = 0.0
    for cx, cy in (c1, c2):
        ex, ey = cx - x0, cy - y0
        along = dx * ex + dy * ey
        if along < 0.0:
            d = math.hypot(ex, ey)
        elif along > len2:
            d = math.hypot(cx - x1, cy - y1)
        else:
            d = abs(dx * ey - dy * ex) / norm
        if d > worst:
            worst = d
    return worst


def _split_cubic(p0, c1, c2, p1):
    # de Casteljau at t = 0.5
    m01 = Point((p0.x + c1.x) / 2, (p0.y + c1.y) / 2)
    m12 = Point((c1.x + c2.x) / 2, (c1.y + c2.y) / 2)
    m23 = Point((c2.x + p1.x) / 2, (c2.y + p1.y) / 2)
    m012 = Point((m01.x + m12.x) / 2, (m01.y + m12.y) / 2)
    m123 = Point((m12.x + m23.x) / 2, (m12.y + m23.y) / 2)
    mid = Point((m012.x + m123.x) / 2, (m012.y + m123.y) / 2)
    return (p0, m01, m012, mid), (mid, m123, m23, p1)


def flatten_cubic(
    p0: Point, c1: Point, c2: Point, p1: Point, tolerance: float
) -> Polyline:
    """Adaptive midpoint subdivision until each piece is chord-flat.

    Endpoints are preserved exactly; halving the tolerance never produces
    fewer points.
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    points: list[Point] = [p0]

    def recurse(a, b, c, d, depth: int) -> None:
        if depth >= 24 or _flatness(a, b, c, d) <= tolerance:
            points.append(d)
            return
        left, right = _split_cubic(a, b, c, d)
        recurse(*left, depth + 1)
        recurse(*right, depth + 1)

    recurse(p0, c1, c2, p1, 0)
    return polyline(points) or Polyline((p0, p1))


def _cubic_point(p0, c1, c2, p1, t: float) -> Point:
    s = 1.0 - t
    return Point(
        s * s * s * p0.x + 3 * s * s * t * c1.x + 3 * s * t * t * c2.x + t * t * t * p1.x,
        s * s * s * p0.y + 3 * s * s * t * c1.y + 3 * s * t * t * c2.y + t * t * t * p1.y,
    )


def _quad_point(p0, q, p1, t: float) -> Point:
    s = 1.0 - t
    return Point(
        s * s * p0.x + 2 * s * t * q.x + t * t * p1.x,
        s * s * p0.y + 2 * s * t * q.y + t * t * p1.y,
    )


# --- analytic sampling -------------------------------------------------------


def _sample_line(p0: Point, p1: Point, n: int) -> list[Point]:
    return [Point(p0.x + (p1.x - p0.x) * i / n, p0.y + (p1.y - p0.y) * i / n)
            for i in range(1, n + 1)]


def _chains(segments, expand) -> list[Polyline]:
    """One polyline per subpath: each MoveTo starts a chain that ``expand``
    extends with the points of every following segment after its start."""
    chains: list[list[Point]] = []
    current: list[Point] = []
    for seg in segments:
        if seg[0] == "M":
            if len(current) > 1:
                chains.append(current)
            current = [seg[1]]
        else:
            current.extend(expand(seg))
    if len(current) > 1:
        chains.append(current)
    return [pl for pl in (polyline(c) for c in chains) if pl is not None]


def _sample_segment(seg: tuple, n: int) -> list[Point]:
    """Analytic samples of one segment after its start point."""
    kind, p0 = seg[0], seg[1]
    if kind == "L":
        return _sample_line(p0, seg[2], n)
    if kind == "C":
        return [_cubic_point(p0, seg[2], seg[3], seg[4], i / n) for i in range(1, n + 1)]
    if kind == "Q":
        return [_quad_point(p0, seg[2], seg[3], i / n) for i in range(1, n + 1)]
    if kind == "Z":
        return _sample_line(p0, seg[2], n) if p0 != seg[2] else []
    end = seg[7]  # A
    center = arc_center(*seg[1:])
    if center is None:
        return _sample_line(p0, end, n) if p0 != end else []
    cx, cy, rx, ry, phi, theta1, delta = center
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    m = n * arc_spans(delta)
    pts = []
    for i in range(1, m + 1):
        t = theta1 + delta * i / m
        ct, st = math.cos(t), math.sin(t)
        pts.append(Point(cx + rx * ct * cos_phi - ry * st * sin_phi,
                         cy + rx * ct * sin_phi + ry * st * cos_phi))
    pts[-1] = end  # endpoint is exact by construction
    return pts


def sample_outline(source: Drawable, n_per_segment: int = 16) -> list[Polyline]:
    """Sample the outline of a drawable, one polyline per subpath.

    Paths, raw or normalized, are walked by ``iter_segments`` and shape
    elements taken as the segments of ``shape_segments``; both are then
    sampled analytically, lines and curves by uniform t and arcs by angle
    around the ``arc_center`` center, never through the cubics the
    normalizer writes for them.
    """
    if n_per_segment < 2:
        raise ValidationError("n_per_segment must be >= 2")
    n = n_per_segment
    if isinstance(source, ShapeElement):
        segments = shape_segments(source)
    else:
        segments = iter_segments(source.commands)
    return _chains(segments, lambda seg: _sample_segment(seg, n))


# --- deviation measurement -----------------------------------------------------


def _arrays(polys: list[Polyline]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of ``polys`` in order, and their segments' starts and ends."""
    import numpy as np

    points = np.array([(p.x, p.y) for pl in polys for p in pl.points], dtype=np.float64)
    starts = np.ones(len(points), dtype=bool)
    starts[np.cumsum([len(pl) for pl in polys]) - 1] = False  # each chain's last point
    i = np.flatnonzero(starts)
    return points, points[i], points[i + 1]


def _min_dist2(x, y, ax, ay, dx, dy, len2) -> np.ndarray:
    """Min squared distance from each point (x_i, y_i) to any segment a_j + t d_j.

    Each pair is computed on separate x and y planes, with the same
    operations in the same order as a dot product over (x, y) followed by a
    two-term norm, so squared distances round the same either way.
    """
    px, py = x[:, None], y[:, None]
    t = (px - ax) * dx
    t += (py - ay) * dy
    t /= len2
    t.clip(0.0, 1.0, out=t)
    ex = px - (ax + t * dx)
    ey = py - (ay + t * dy)
    ex *= ex
    ey *= ey
    ex += ey
    return ex.min(axis=1)


def _dist_points_to_segments(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min distance from each point to any segment [a_j, b_j].

    At most ``PAIR_BUDGET`` point-segment pairs are held at a time: the
    points are split into even contiguous chunks, and each chunk is measured
    only against the segments that may hold one of its points' nearest (see
    the module docstring for why that loses nothing).
    """
    import numpy as np

    n, m = len(points), len(a)
    x, y = points[:, 0], points[:, 1]
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0], b[:, 1]
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    len2[len2 < 1e-30] = 1.0
    rows = max(1, PAIR_BUDGET // m)
    if n <= rows:
        return np.sqrt(_min_dist2(x, y, ax, ay, dx, dy, len2))

    scale = np.abs(np.concatenate([points, a, b])).max()
    cull = _CULL_SCALE[0] <= scale <= _CULL_SCALE[1]  # also False for inf and NaN
    slack = _CULL_ULPS * np.finfo(np.float64).eps * scale
    lo_x, hi_x = np.minimum(ax, bx), np.maximum(ax, bx)
    lo_y, hi_y = np.minimum(ay, by), np.maximum(ay, by)
    out = np.empty(n)
    chunks = -(-n // rows)
    bounds = [i * n // chunks for i in range(chunks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        cx, cy = x[lo:hi], y[lo:hi]
        keep = slice(None)
        if cull:
            x0, x1, y0, y1 = cx.min(), cx.max(), cy.min(), cy.max()
            # no chunk point is farther from segment j than the box corner
            # farthest from either endpoint is from that endpoint
            far_a = np.maximum(ax - x0, x1 - ax) ** 2 + np.maximum(ay - y0, y1 - ay) ** 2
            far_b = np.maximum(bx - x0, x1 - bx) ** 2 + np.maximum(by - y0, y1 - by) ** 2
            upper = np.sqrt(np.maximum(far_a, far_b).min())
            # nor nearer to it than the gap between the chunk's box and its box
            gap_x = np.maximum(np.maximum(lo_x - x1, x0 - hi_x), 0.0)
            gap_y = np.maximum(np.maximum(lo_y - y1, y0 - hi_y), 0.0)
            keep = np.flatnonzero(np.sqrt(gap_x * gap_x + gap_y * gap_y) <= upper + slack)
        out[lo:hi] = _min_dist2(cx, cy, ax[keep], ay[keep], dx[keep], dy[keep], len2[keep])
    return np.sqrt(out)


def _one_sided(pts: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[float, Point]:
    dists = _dist_points_to_segments(pts, starts, ends)
    i = int(dists.argmax())
    return float(dists[i]), Point(float(pts[i, 0]), float(pts[i, 1]))


def set_deviation(polys_a: list[Polyline], polys_b: list[Polyline]) -> DeviationReport:
    """Symmetric point-to-segment Hausdorff measure between polyline sets.

    Reports the larger one-sided measure (the farthest any point of one set
    lies from the other set's segments, ``polys_a`` first on a tie), the
    point where it occurs, and the points compared. Each set becomes arrays
    once, shared by both directions.
    """
    if not polys_a or not polys_b:
        raise ValidationError("deviation needs non-empty polyline sets")
    pts_a, *segs_a = _arrays(polys_a)
    pts_b, *segs_b = _arrays(polys_b)
    d_ab, w_ab = _one_sided(pts_a, *segs_b)
    d_ba, w_ba = _one_sided(pts_b, *segs_a)
    samples = len(pts_a) + len(pts_b)
    if d_ab >= d_ba:
        return DeviationReport(d_ab, w_ab, samples)
    return DeviationReport(d_ba, w_ba, samples)


def max_deviation(a: Polyline, b: Polyline) -> DeviationReport:
    """Symmetric deviation between two polylines (see :func:`set_deviation`)."""
    return set_deviation([a], [b])


# --- end-to-end verification ----------------------------------------------------


def _transform_polys(polys: list[Polyline], t: AffineTransform) -> list[Polyline]:
    if t.is_identity:
        return polys
    moved = (polyline(t.apply_point(p) for p in pl.points) for pl in polys)
    return [pl for pl in moved if pl is not None]


def _flatten_path(path: PathElement, tolerance: float) -> list[Polyline]:
    def expand(seg: tuple) -> tuple[Point, ...]:
        if seg[0] == "L":
            return (seg[2],)
        return flatten_cubic(*seg[1:], tolerance).points[1:]

    return _chains(iter_segments(path.commands), expand)


def verify_normalization(
    raw_doc: Document,
    normalized_doc: Document,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check that normalization preserved every drawable's geometry.

    Each surviving original drawable is sampled analytically, mapped
    through its composed transform plus the canvas transform, and compared
    against its converted path. Raises :class:`PathCountMismatch` when the
    surviving-drawable count differs from the normalized path count, which
    signals a pipeline bug rather than a geometric error.
    """
    check_tolerance(tolerance)
    kept = [el for el in raw_doc.paths if convert_element(el) is not None]
    if len(kept) != len(normalized_doc.paths):
        raise PathCountMismatch(
            f"{len(kept)} surviving drawables vs {len(normalized_doc.paths)} paths"
        )

    canvas = canvas_transform(raw_doc.view_box)
    # Chords on both sides add to the measured deviation; keep them well
    # below the tolerance so only real conversion error can trip it.
    flatten_tol = min(0.02, max(1e-4, tolerance / 20.0))
    reports: list[DeviationReport] = []
    passed = True
    for el, converted in zip(kept, normalized_doc.paths):
        full = canvas @ el.transform
        original = _transform_polys(sample_outline(el, SAMPLES_PER_SPAN), full)
        flattened = _flatten_path(converted, flatten_tol)
        if not original and not flattened:
            continue
        report = set_deviation(original, flattened)
        reports.append(report)
        if report.max_deviation > tolerance:
            passed = False
    return VerificationResult(passed, tolerance, tuple(reports))
