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

Verification carries coordinates as columns, not ``Point`` objects. Each
original drawable is sampled one segment at a time on an index array, and
its samples go through the transform as whole columns; the flattener
appends plain floats to its chain's columns. Consecutive duplicates are
dropped once, after the transform. A subpath that collapses to one point
stays as that point, which is a zero-length segment for the other side.
The public ``sample_outline`` and ``flatten_cubic`` evaluate the same
formulas and the same subdivision per scalar, without numpy. Verify's
sampling and the distance kernel use numpy, and both import it on first
use, so importing svgforge, this module included, does not load it.

The distance kernel holds at most ``PAIR_BUDGET`` point-segment
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
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import PathCountMismatch, ValidationError
from .model import (
    IDENTITY,
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


def _flatness(x0, y0, x1, y1, x2, y2, x3, y3) -> float:
    # max control-point distance to the chord segment p0-p3: the curve lies in
    # the hull of its control points, so it is no farther from the chord. The
    # segment, not its line, so a curve that turns back beyond an endpoint is
    # not taken for its chord.
    dx, dy = x3 - x0, y3 - y0
    norm = math.hypot(dx, dy)
    if norm < 1e-30:
        return max(math.hypot(x1 - x0, y1 - y0), math.hypot(x2 - x0, y2 - y0))
    len2 = dx * dx + dy * dy
    worst = 0.0
    for cx, cy in ((x1, y1), (x2, y2)):
        ex, ey = cx - x0, cy - y0
        along = dx * ex + dy * ey
        if along < 0.0:
            d = math.hypot(ex, ey)
        elif along > len2:
            d = math.hypot(cx - x3, cy - y3)
        else:
            d = abs(dx * ey - dy * ex) / norm
        if d > worst:
            worst = d
    return worst


def _flatten_into(xs, ys, x0, y0, x1, y1, x2, y2, x3, y3, tolerance: float, depth: int) -> None:
    """Append the points of the cubic after its start to the columns ``xs``, ``ys``."""
    if depth >= 24 or _flatness(x0, y0, x1, y1, x2, y2, x3, y3) <= tolerance:
        xs.append(x3)
        ys.append(y3)
        return
    # de Casteljau at t = 0.5
    ax, ay = (x0 + x1) / 2, (y0 + y1) / 2
    bx, by = (x1 + x2) / 2, (y1 + y2) / 2
    cx, cy = (x2 + x3) / 2, (y2 + y3) / 2
    abx, aby = (ax + bx) / 2, (ay + by) / 2
    bcx, bcy = (bx + cx) / 2, (by + cy) / 2
    mx, my = (abx + bcx) / 2, (aby + bcy) / 2
    _flatten_into(xs, ys, x0, y0, ax, ay, abx, aby, mx, my, tolerance, depth + 1)
    _flatten_into(xs, ys, mx, my, bcx, bcy, cx, cy, x3, y3, tolerance, depth + 1)


def flatten_cubic(
    p0: Point, c1: Point, c2: Point, p1: Point, tolerance: float
) -> Polyline:
    """Adaptive midpoint subdivision until each piece is chord-flat.

    Endpoints are preserved exactly; halving the tolerance never produces
    fewer points.
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    xs, ys = [p0.x], [p0.y]
    _flatten_into(xs, ys, *p0, *c1, *c2, *p1, tolerance, 0)
    return polyline(map(Point, xs, ys)) or Polyline((p0, p1))


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


def _segment_sampler(seg: tuple, n: int):
    """How one segment is sampled after its start point: ``(m, at, pinned)``.

    ``at(i, cos, sin)`` gives the coordinates ``(x, y)`` of sample ``i`` of
    ``1..m``, for an int ``i`` with ``math``'s cosine and sine or for an
    index array with numpy's; with ``pinned``, the last sample is the
    segment's end itself. ``m`` is 0 for a segment that draws nothing.
    """
    kind, p0, end = seg[0], seg[1], seg[-1]
    if kind == "C":
        return n, lambda i, *_: _cubic_point(p0, seg[2], seg[3], end, i / n), False
    if kind == "Q":
        return n, lambda i, *_: _quad_point(p0, seg[2], end, i / n), False
    center = arc_center(*seg[1:]) if kind == "A" else None
    if center is None:
        if kind != "L" and p0 == end:  # a Z or an arc back to its start
            return 0, None, False
        dx, dy = end.x - p0.x, end.y - p0.y
        return n, lambda i, *_: (p0.x + dx * i / n, p0.y + dy * i / n), False
    cx, cy, rx, ry, phi, theta1, delta = center
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    m = n * arc_spans(delta)

    def at(i, cos, sin):
        t = theta1 + delta * i / m
        ct, st = cos(t), sin(t)
        return (cx + rx * ct * cos_phi - ry * st * sin_phi,
                cy + rx * ct * sin_phi + ry * st * cos_phi)

    return m, at, True


def _segments(source: Drawable):
    if isinstance(source, ShapeElement):
        return shape_segments(source)
    return iter_segments(source.commands)


def _chain_columns(segments, expand) -> tuple[array, array, list[int]]:
    """The subpaths of ``segments`` as coordinate columns.

    Each MoveTo starts a chain that ``expand(seg, xs, ys)`` extends with
    the points of every following segment after its start. Returns the
    columns and the index of each chain's first point; a chain that got no
    point past its MoveTo is dropped.
    """
    xs, ys, starts = array("d"), array("d"), []
    for seg in segments:
        if seg[0] != "M":
            expand(seg, xs, ys)
        elif starts and starts[-1] == len(xs) - 1:  # the last chain is its MoveTo alone
            xs[-1], ys[-1] = seg[1]
        else:
            starts.append(len(xs))
            xs.append(seg[1].x)
            ys.append(seg[1].y)
    if starts and starts[-1] == len(xs) - 1:
        del xs[-1], ys[-1], starts[-1]
    return xs, ys, starts


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

    def expand(seg: tuple, xs: array, ys: array) -> None:
        m, at, pinned = _segment_sampler(seg, n_per_segment)
        for i in range(1, m + 1):
            x, y = at(i, math.cos, math.sin)
            xs.append(x)
            ys.append(y)
        if pinned:
            xs[-1], ys[-1] = seg[-1]

    xs, ys, starts = _chain_columns(_segments(source), expand)
    bounds = starts + [len(xs)]
    chains = (polyline(map(Point, xs[a:b], ys[a:b])) for a, b in zip(bounds, bounds[1:]))
    return [pl for pl in chains if pl is not None]


# --- deviation measurement -----------------------------------------------------


def _arrays(polys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of ``polys`` in order, and their segments' starts and ends.

    A chain of one point (verify keeps a subpath that collapses to a point)
    is one zero-length segment.
    """
    import numpy as np

    chains = [np.asarray(pl.points, dtype=np.float64) for pl in polys]
    points = np.concatenate(chains)
    lengths = np.array([len(c) for c in chains])
    last = np.cumsum(lengths) - 1
    starts = np.ones(len(points), dtype=bool)
    starts[last] = lengths == 1
    follow = np.arange(1, len(points) + 1)
    follow[last] = last
    i = np.flatnonzero(starts)
    return points, points[i], points[follow[i]]


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


class _Chain(NamedTuple):
    """One subpath of a side in :func:`verify_normalization`: its points as
    an ``(n, 2)`` array, where ``n = 1`` is a subpath collapsed to a point."""

    points: np.ndarray


def _chains(xs: array, ys: array, starts: list[int], t: AffineTransform) -> list[_Chain]:
    """The chains of the columns ``xs``, ``ys`` that start at ``starts``,
    mapped through ``t``, with consecutive duplicates dropped.

    Points equal before the transform are equal after it, so one pass after
    it drops every duplicate. A chain that collapses to one point stays as
    that point: the other side must still come near it.
    """
    import numpy as np

    if not starts:
        return []
    x, y = np.frombuffer(xs), np.frombuffer(ys)
    if not t.is_identity:
        # apply_point's operations in its order, so every sample rounds as there
        x, y = t.a * x + t.c * y + t.e, t.b * x + t.d * y + t.f
    keep = np.empty(len(x), dtype=bool)
    keep[0] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    keep[1:] |= y[1:] != y[:-1]
    keep[starts] = True
    points = np.column_stack((x[keep], y[keep]))
    bounds = (np.cumsum(keep)[starts] - 1).tolist() + [len(points)]
    return [_Chain(points[a:b]) for a, b in zip(bounds, bounds[1:])]


def _transform_polys(source: Drawable, t: AffineTransform, n: int) -> list[_Chain]:
    """The outline of ``source`` sampled as :func:`sample_outline` samples
    it, ``n`` points per span, and mapped through ``t``: one chain per
    subpath, each segment's samples computed as arrays.

    ``bench/spans.py`` times this function by its name as verify's sampling.
    """
    import numpy as np

    def expand(seg: tuple, xs: array, ys: array) -> None:
        m, at, pinned = _segment_sampler(seg, n)
        if m:
            x, y = at(np.arange(1, m + 1), np.cos, np.sin)
            if pinned:
                x[-1], y[-1] = seg[-1]
            xs.frombytes(x.tobytes())
            ys.frombytes(y.tobytes())

    return _chains(*_chain_columns(_segments(source), expand), t)


def _flatten_path(path: PathElement, tolerance: float) -> list[_Chain]:
    def expand(seg: tuple, xs: array, ys: array) -> None:
        if seg[0] == "L":
            xs.append(seg[2].x)
            ys.append(seg[2].y)
        else:  # C: a normalized path holds only M/L/C
            _flatten_into(xs, ys, *seg[1], *seg[2], *seg[3], *seg[4], tolerance, 0)

    return _chains(*_chain_columns(iter_segments(path.commands), expand), IDENTITY)


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
        original = _transform_polys(el, canvas @ el.transform, SAMPLES_PER_SPAN)
        flattened = _flatten_path(converted, flatten_tol)
        if not original and not flattened:
            continue
        report = set_deviation(original, flattened)
        reports.append(report)
        if report.max_deviation > tolerance:
            passed = False
    return VerificationResult(passed, tolerance, tuple(reports))
