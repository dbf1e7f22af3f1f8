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

Verification prepares each document in one pass per side, and carries
coordinates as columns, not ``Point`` objects. One walk over the segments
of every surviving drawable gives each segment its place in the
document's columns; each kind of segment (line, quadratic, cubic, arc) is
then sampled in one broadcast, every sample with its formula's operations
in their scalar order, so the samples are those of one segment at a time
to the bit. The samples of every drawable whose transform is not the
identity are mapped in one array pass; an identity is not applied, so a
``-0.0`` or a non-finite sample stays as it is. The converted side arrives
as each path's M/L/C columns (``verify_columns``; ``verify_normalization``
reads a typed document's paths as columns), and its cubics are flattened
by ``flatten_cubic``'s subdivision from an explicit stack into plain float
columns. On each side, consecutive duplicates are dropped in one array
pass, after the transform, and never across the start of a subpath or a
drawable. A subpath that collapses to one point stays as that point, which
is a zero-length segment for the other side. The drawables are then
measured one at a time. The public ``sample_outline`` and
``flatten_cubic`` evaluate the same formulas and the same subdivision per
scalar, without numpy. Verify's sampling and the distance kernel use
numpy, and both import it on first use, so importing svgforge, this module
included, does not load it.

Each one-sided measure (``_one_sided``) is the largest distance from a
point of one side to the other side's segments, and the first point that
far. It measures exactly only the points that can be that far, an early
break after Taha and Hanbury ("An Efficient Algorithm for Calculating the
Exact Hausdorff Distance", IEEE TPAMI 2015), in two passes. The bound
pass gives each point an upper bound: its distance to the ``2 * _WINDOW +
1`` segments around its place. A point's place is its length along the
points, jumps between chains included, as a share of the whole; a
segment's is the length to its midpoint along the walk of segments and the
gaps between them, as a share of that walk (the index share when a length
is 0). The window is the segments from the first whose place is not below
the point's, ``_WINDOW`` either way. Each pair goes through ``_min_dist2``
with the same terms as the full kernel, so it has the same value to the
bit, and a minimum over fewer segments is never below the minimum over all
of them. The exact pass measures the point with the largest bound against
every segment, which gives ``lower``, then every point whose bound is at
least ``lower``, in index order, and returns the first farthest of them. A
point it skips is at most its bound, below ``lower``, away, and ``lower``
is at most the true maximum, so that point can be neither the maximum nor
tied with it, and a tie still goes to the lowest index. Bounds and
distances are compared after the ``sqrt``, as the maximum is taken, since
``sqrt`` can map two distinct squares to one value. Two cases measure
every point instead: calls of at most ``_FULL_PASS_PAIRS`` pairs, where
the bound pass costs more than it saves, and coordinates that are not
finite or lie outside ``_SAFE_SCALE``, where a pair could overflow to NaN
and the maximum is the first NaN.

The distance kernel (``_dist_points_to_segments``) holds at most
``PAIR_BUDGET`` point-segment pairs at a time, so memory stays bounded
whatever a drawable's segment count; the bound pass takes its points in
chunks of ``PAIR_BUDGET // (2 * _WINDOW + 1)``. When every pair fits, the
kernel measures all of them at once. Otherwise it splits the points into
even contiguous chunks of at most ``PAIR_BUDGET // segments`` points and
measures each chunk against the segments that can hold a nearest one.
That culling is exact. Every chunk point lies in the chunk's bounding box.
So no chunk point is farther from segment ``j`` than ``U_j``, the distance
from the box corner farthest from either endpoint of ``j`` to that
endpoint. No chunk point is nearer to ``j`` than the gap between the
chunk's box and ``j``'s box. Each point's nearest segment is therefore
within ``U = min_j U_j``, and a segment whose gap exceeds ``U`` is nearest
to no point of the chunk. The test allows a slack of ``_CULL_ULPS`` ulps
of the coordinate scale, above the rounding of the compared distances, so
rounding can only keep more segments. Each kept pair is computed with
the same operations in the same order as the all-at-once call, so the
distances, the worst one and its point are the same to the bit. Under the
early break the cull runs only when more points can be the farthest than
one chunk holds, as on two concentric outlines, and there it bounds the
cost.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import PathCountMismatch, ValidationError
from .model import (
    AffineTransform,
    Document,
    Drawable,
    PathElement,
    Point,
    ShapeElement,
    command_columns,
)
from .normalizer import (
    arc_center,
    arc_spans,
    canvas_transform,
    element_columns,
    iter_segments,
    shape_segments,
    simplify_commands,
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
# slack's digits to underflow; outside it every segment is kept and every
# point measured.
_SAFE_SCALE = (1e-100, 1e100)
# Segments on either side of a point's place by arclength that bound its
# distance. At 1, 2, 4 and 8, the bench corpus's calls of 20k pairs or more
# took 60, 68, 77 and 90 ms of kernel time; 20 dense icons took 1.9,
# 0.9-1.3, 0.2 and 0.4 s, so they favour a wider window.
_WINDOW = 2
# Calls of at most this many pairs measure every pair: the bound pass costs
# about 130 us a call. Over one verify pass, 4k-64k pair limits took
# 141-247 ms of kernel time, least near 16k.
_FULL_PASS_PAIRS = 1 << 14


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


def _flatten_into(xs: list, ys: list, x0, y0, x1, y1, x2, y2, x3, y3, tolerance: float) -> None:
    """Append the points of the cubic after its start to the columns ``xs``, ``ys``.

    The cubic is halved at t = 0.5 (de Casteljau) until a piece is flat or
    24 halvings deep, left half first; an explicit stack holds the right
    halves still to come. A piece is flat when no control point is farther
    than ``tolerance`` from the chord segment: the curve lies in the hull
    of its control points, so it is no farther from the chord. The segment,
    not its line, so a curve that turns back beyond an endpoint is not
    taken for its chord.
    """
    hypot = math.hypot
    stack: list[tuple] = []
    depth = 0
    while True:
        if depth < 24:
            dx, dy = x3 - x0, y3 - y0
            norm = hypot(dx, dy)
            if norm < 1e-30:
                split = not max(hypot(x1 - x0, y1 - y0), hypot(x2 - x0, y2 - y0)) <= tolerance
            else:
                # the farther control point is beyond the tolerance when either one is
                len2 = dx * dx + dy * dy
                ex, ey = x1 - x0, y1 - y0
                along = dx * ex + dy * ey
                if along < 0.0:
                    split = hypot(ex, ey) > tolerance
                elif along > len2:
                    split = hypot(x1 - x3, y1 - y3) > tolerance
                else:
                    split = abs(dx * ey - dy * ex) / norm > tolerance
                if not split:
                    ex, ey = x2 - x0, y2 - y0
                    along = dx * ex + dy * ey
                    if along < 0.0:
                        split = hypot(ex, ey) > tolerance
                    elif along > len2:
                        split = hypot(x2 - x3, y2 - y3) > tolerance
                    else:
                        split = abs(dx * ey - dy * ex) / norm > tolerance
            if split:
                ax, ay = (x0 + x1) / 2, (y0 + y1) / 2
                bx, by = (x1 + x2) / 2, (y1 + y2) / 2
                cx, cy = (x2 + x3) / 2, (y2 + y3) / 2
                abx, aby = (ax + bx) / 2, (ay + by) / 2
                bcx, bcy = (bx + cx) / 2, (by + cy) / 2
                mx, my = (abx + bcx) / 2, (aby + bcy) / 2
                depth += 1
                stack.append((bcx, bcy, cx, cy, x3, y3, depth))
                x1, y1, x2, y2, x3, y3 = ax, ay, abx, aby, mx, my
                continue
        xs.append(x3)
        ys.append(y3)
        if not stack:
            return
        x0, y0 = x3, y3  # a right half starts where the points so far end
        x1, y1, x2, y2, x3, y3, depth = stack.pop()


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
    _flatten_into(xs, ys, *p0, *c1, *c2, *p1, tolerance)
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

    ``at(i)`` gives the coordinates ``(x, y)`` of sample ``i`` of ``1..m``;
    with ``pinned``, the last sample is the segment's end itself. ``m`` is 0
    for a segment that draws nothing. :func:`_sample_document` evaluates
    the same formulas for whole arrays of segments.
    """
    kind, p0, end = seg[0], seg[1], seg[-1]
    if kind == "C":
        return n, lambda i: _cubic_point(p0, seg[2], seg[3], end, i / n), False
    if kind == "Q":
        return n, lambda i: _quad_point(p0, seg[2], end, i / n), False
    center = arc_center(*seg[1:]) if kind == "A" else None
    if center is None:
        if kind != "L" and p0 == end:  # a Z or an arc back to its start
            return 0, None, False
        dx, dy = end.x - p0.x, end.y - p0.y
        return n, lambda i: (p0.x + dx * i / n, p0.y + dy * i / n), False
    cx, cy, rx, ry, phi, theta1, delta = center
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    m = n * arc_spans(delta)

    def at(i):
        t = theta1 + delta * i / m
        ct, st = math.cos(t), math.sin(t)
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
            x, y = at(i)
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

    The segment terms are either one row for every point or one row per point.
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


def _segment_terms(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_min_dist2`'s terms of the segments [a_j, b_j]; a zero length is taken as 1."""
    ax, ay = a[:, 0], a[:, 1]
    dx, dy = b[:, 0] - ax, b[:, 1] - ay
    len2 = dx * dx + dy * dy
    len2[len2 < 1e-30] = 1.0
    return ax, ay, dx, dy, len2


def _safe_scale(*coords: np.ndarray) -> float | None:
    """The largest magnitude in ``coords``; ``None`` outside ``_SAFE_SCALE``, inf and NaN too."""
    import numpy as np

    scale = np.abs(np.concatenate(coords)).max()
    return scale if _SAFE_SCALE[0] <= scale <= _SAFE_SCALE[1] else None


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
    ax, ay, dx, dy, len2 = _segment_terms(a, b)
    rows = max(1, PAIR_BUDGET // m)
    if n <= rows:
        return np.sqrt(_min_dist2(x, y, ax, ay, dx, dy, len2))

    scale = _safe_scale(points, a, b)
    if scale is not None:
        slack = _CULL_ULPS * np.finfo(np.float64).eps * scale
        bx, by = b[:, 0], b[:, 1]
        lo_x, hi_x = np.minimum(ax, bx), np.maximum(ax, bx)
        lo_y, hi_y = np.minimum(ay, by), np.maximum(ay, by)
    out = np.empty(n)
    chunks = -(-n // rows)
    bounds = [i * n // chunks for i in range(chunks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        cx, cy = x[lo:hi], y[lo:hi]
        keep = slice(None)
        if scale is not None:
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


def _arclength_places(points: np.ndarray) -> np.ndarray:
    """Each point's length along ``points`` in order, as a share of the whole;
    the index share when the whole length is 0."""
    import numpy as np

    place = np.zeros(len(points))
    np.cumsum(np.hypot(*np.diff(points, axis=0).T), out=place[1:])
    if place[-1] > 0:
        return place / place[-1]
    return np.arange(len(points)) / max(len(points) - 1, 1)


def _window_bounds(pts: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """An upper bound on each point's distance to the segments: its distance
    to the ``2 * _WINDOW + 1`` segments around its place by arclength (see
    the module docstring)."""
    import numpy as np

    m = len(starts)
    walk = np.empty((2 * m, 2))
    walk[0::2], walk[1::2] = starts, ends
    seg_place = _arclength_places(walk)
    seg_place = (seg_place[0::2] + seg_place[1::2]) / 2
    j0 = np.searchsorted(seg_place, _arclength_places(pts))
    offsets = np.arange(-_WINDOW, _WINDOW + 1)
    x, y = pts[:, 0], pts[:, 1]
    ax, ay, dx, dy, len2 = _segment_terms(starts, ends)
    out = np.empty(len(pts))
    rows = max(1, PAIR_BUDGET // len(offsets))
    for lo in range(0, len(pts), rows):
        k = np.clip(j0[lo:lo + rows, None] + offsets, 0, m - 1)
        out[lo:lo + rows] = _min_dist2(x[lo:lo + rows], y[lo:lo + rows],
                                       ax[k], ay[k], dx[k], dy[k], len2[k])
    return np.sqrt(out)


def _one_sided(pts: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[float, Point]:
    """The farthest any point lies from the segments, and the first point that far.

    Large calls measure exactly only the points that can be the farthest
    (see the module docstring); the rest measure every point.
    """
    candidates = pts
    if len(pts) * len(starts) > _FULL_PASS_PAIRS and _safe_scale(pts, starts, ends) is not None:
        bound = _window_bounds(pts, starts, ends)
        top = int(bound.argmax())
        lower = _dist_points_to_segments(pts[top:top + 1], starts, ends)[0]
        candidates = pts[bound >= lower]
    dists = _dist_points_to_segments(candidates, starts, ends)
    k = int(dists.argmax())
    return float(dists[k]), Point(float(candidates[k, 0]), float(candidates[k, 1]))


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
    """One subpath of a side in :func:`verify_columns`: its points as an
    ``(n, 2)`` array, where ``n = 1`` is a subpath collapsed to a point."""

    points: np.ndarray


def _split_chains(x: np.ndarray, y: np.ndarray, starts: list[int],
                  counts: list[int]) -> list[list[_Chain]]:
    """The chains of the document columns ``x``, ``y``, which start at
    ``starts``, with consecutive duplicates dropped, as one list per
    drawable of ``counts`` chains each.

    Every chain start is kept, so no point is dropped for equalling the
    last point of the chain, or drawable, before it. A chain that collapses
    to one point stays as that point: the other side must still come near
    it.
    """
    import numpy as np

    if not starts:
        return [[] for _ in counts]
    keep = np.empty(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    keep[1:] |= y[1:] != y[:-1]
    keep[starts] = True
    points = np.column_stack((x[keep], y[keep]))
    bounds = (np.cumsum(keep)[starts] - 1).tolist() + [len(points)]
    chains = [_Chain(points[a:b]) for a, b in zip(bounds, bounds[1:])]
    out, k = [], 0
    for count in counts:
        out.append(chains[k:k + count])
        k += count
    return out


def _sample_document(drawables, transforms, n: int) -> list[list[_Chain]]:
    """The outline of each drawable sampled as :func:`sample_outline`
    samples it, ``n`` points per span, and mapped through its transform:
    one chain per subpath, one list per drawable.

    One walk over every drawable's segments places each segment's samples
    in the document's columns; each segment kind is then evaluated in one
    broadcast, with its formula's operations in the scalar order, and the
    points of every drawable whose transform is not the identity are mapped
    together.
    """
    import numpy as np

    moves: list[tuple[int, float, float]] = []
    lines, quads, cubics, arcs = [], [], [], []
    starts: list[int] = []
    counts: list[int] = []
    sizes: list[int] = []
    pos = 0
    for el in drawables:
        first, begin = len(starts), pos
        for seg in _segments(el):
            kind = seg[0]
            if kind == "M":
                if len(starts) > first and starts[-1] == pos - 1:  # a MoveTo alone
                    moves[-1] = (pos - 1, *seg[1])
                else:
                    starts.append(pos)
                    moves.append((pos, *seg[1]))
                    pos += 1
                continue
            p0, end = seg[1], seg[-1]
            if kind == "C":
                cubics.append((pos, *p0, *seg[2], *seg[3], *end))
            elif kind == "Q":
                quads.append((pos, *p0, *seg[2], *end))
            else:
                center = arc_center(*seg[1:]) if kind == "A" else None
                if center is not None:
                    cx, cy, rx, ry, phi, theta1, delta = center
                    m = n * arc_spans(delta)
                    arcs.append((pos, m, cx, cy, rx, ry, math.cos(phi), math.sin(phi),
                                 theta1, delta, *end))
                    pos += m
                    continue
                if kind != "L" and p0 == end:  # a Z or an arc back to its start
                    continue
                lines.append((pos, *p0, end.x - p0.x, end.y - p0.y))
            pos += n
        if len(starts) > first and starts[-1] == pos - 1:
            del starts[-1], moves[-1]
            pos -= 1
        counts.append(len(starts) - first)
        sizes.append(pos - begin)

    x, y = np.empty(pos), np.empty(pos)
    i = np.arange(1, n + 1)
    t = i / n
    s = 1.0 - t

    def put(rows: list[tuple], width: int) -> tuple[np.ndarray, ...]:
        """Each column of ``rows`` as a ``(k, 1)`` array, and the ``(k, width)``
        places of their samples."""
        cols = np.array(rows).T[:, :, None]
        return cols[0].astype(np.intp) + np.arange(width), *cols[1:]

    if moves:
        at, mx, my = put(moves, 1)
        x[at], y[at] = mx, my
    if lines:
        at, x0, y0, dx, dy = put(lines, n)
        x[at], y[at] = x0 + dx * i / n, y0 + dy * i / n
    if quads:
        at, x0, y0, qx, qy, x1, y1 = put(quads, n)
        x[at] = s * s * x0 + 2 * s * t * qx + t * t * x1
        y[at] = s * s * y0 + 2 * s * t * qy + t * t * y1
    if cubics:
        at, x0, y0, x1, y1, x2, y2, x3, y3 = put(cubics, n)
        x[at] = s * s * s * x0 + 3 * s * s * t * x1 + 3 * s * t * t * x2 + t * t * t * x3
        y[at] = s * s * s * y0 + 3 * s * s * t * y1 + 3 * s * t * t * y2 + t * t * t * y3
    if arcs:
        rows = np.array(arcs)
        m = rows[:, 1].astype(np.intp)
        owner = np.repeat(np.arange(len(arcs)), m)
        last = np.cumsum(m)
        k = np.arange(last[-1]) - (last - m)[owner] + 1  # 1..m within each arc
        cx, cy, rx, ry, cos_phi, sin_phi, theta1, delta = rows[owner, 2:10].T
        angle = theta1 + delta * k / m[owner]
        ct, st = np.cos(angle), np.sin(angle)
        at = rows[owner, 0].astype(np.intp) + k - 1
        x[at] = cx + rx * ct * cos_phi - ry * st * sin_phi
        y[at] = cy + rx * ct * sin_phi + ry * st * cos_phi
        # the last sample of an arc is its end itself
        end = rows[:, 0].astype(np.intp) + m - 1
        x[end], y[end] = rows[:, 10], rows[:, 11]

    moved = np.array([not tf.is_identity for tf in transforms])
    if moved.any():
        # apply_point's operations in its order, so every sample rounds as
        # there; an identity is not applied, which keeps -0.0 and inf as they are
        coef = np.repeat([(tf.a, tf.b, tf.c, tf.d, tf.e, tf.f) for tf in transforms], sizes, axis=0)
        at = slice(None) if moved.all() else np.flatnonzero(np.repeat(moved, sizes))
        a, b, c, d, e, f = coef[at].T
        px, py = x[at], y[at]
        x[at], y[at] = a * px + c * py + e, b * px + d * py + f
    return _split_chains(x, y, starts, counts)


def _flatten_document(paths, tolerance: float) -> list[list[_Chain]]:
    """The converted side: each path, given as M/L/C columns ``(ops, xy)``
    whose first opcode is M, flattened by :func:`flatten_cubic`'s
    subdivision into chains, one list per path."""
    import numpy as np

    xs: list[float] = []
    ys: list[float] = []
    starts: list[int] = []
    counts: list[int] = []
    for ops, xy in paths:
        first = len(starts)
        k = 0
        for op in ops:
            if op == "C":
                _flatten_into(xs, ys, xs[-1], ys[-1], *xy[k:k + 6], tolerance)
                k += 6
                continue
            if op == "L":
                xs.append(xy[k])
                ys.append(xy[k + 1])
            elif len(starts) > first and starts[-1] == len(xs) - 1:  # a MoveTo alone
                xs[-1], ys[-1] = xy[k], xy[k + 1]
            else:
                starts.append(len(xs))
                xs.append(xy[k])
                ys.append(xy[k + 1])
            k += 2
        if len(starts) > first and starts[-1] == len(xs) - 1:
            del xs[-1], ys[-1], starts[-1]
        counts.append(len(starts) - first)
    return _split_chains(np.array(xs, dtype=float), np.array(ys, dtype=float), starts, counts)


def _transform_polys(source: Drawable, t: AffineTransform, n: int) -> list[_Chain]:
    """The chains that :func:`_sample_document` gives ``source`` alone.

    Verify samples whole documents; ``bench/spans.py`` looks this name up.
    """
    return _sample_document([source], [t], n)[0]


def _flatten_path(path: PathElement, tolerance: float) -> list[_Chain]:
    """The chains that :func:`_flatten_document` gives an M/L/C path alone.

    Verify flattens whole documents; ``bench/spans.py`` looks this name up.
    """
    return _flatten_document([command_columns(path.commands)], tolerance)[0]


def verify_columns(
    raw_doc: Document,
    paths,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """:func:`verify_normalization` against normalized paths given as M/L/C
    columns ``(ops, xy)`` (:mod:`svgforge.model`), one per path, each
    starting with M.

    The whole document is prepared in one pass per side: every surviving
    drawable is sampled (:func:`_sample_document`) and every path flattened
    (:func:`_flatten_document`) before the drawables are measured one by
    one with :func:`set_deviation`.
    """
    check_tolerance(tolerance)
    kept = [el for el in raw_doc.paths if element_columns(el) is not None]
    if len(kept) != len(paths):
        raise PathCountMismatch(f"{len(kept)} surviving drawables vs {len(paths)} paths")

    canvas = canvas_transform(raw_doc.view_box)
    transforms = [canvas @ el.transform for el in kept]
    # Chords on both sides add to the measured deviation; keep them well
    # below the tolerance so only real conversion error can trip it.
    flatten_tol = min(0.02, max(1e-4, tolerance / 20.0))
    originals = _sample_document(kept, transforms, SAMPLES_PER_SPAN)
    converted = _flatten_document(paths, flatten_tol)
    reports: list[DeviationReport] = []
    passed = True
    for original, flattened in zip(originals, converted):
        if not original and not flattened:
            continue
        report = set_deviation(original, flattened)
        reports.append(report)
        if report.max_deviation > tolerance:
            passed = False
    return VerificationResult(passed, tolerance, tuple(reports))


def verify_normalization(
    raw_doc: Document,
    normalized_doc: Document,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check that normalization preserved every drawable's geometry.

    Each surviving original drawable is sampled analytically, mapped
    through its composed transform plus the canvas transform, and compared
    against its converted path: typed M/L/C commands, or raw ones (as
    parsed from normalized text), which :func:`simplify_commands` types
    first. Raises :class:`PathCountMismatch` when the surviving-drawable
    count differs from the normalized path count, which signals a pipeline
    bug rather than a geometric error.
    """
    paths = [command_columns(simplify_commands(p.commands) if p.is_raw else p.commands)
             for p in normalized_doc.paths]
    return verify_columns(raw_doc, paths, tolerance)
