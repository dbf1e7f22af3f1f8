"""Geometric oracle for the normalization pipeline.

Original drawables are sampled analytically and converted paths are
flattened; the two point sets are compared with a symmetric
point-to-segment Hausdorff measure.

The verifier shares three rules with the normalizer rather than restating
them: the one walk (``resolve_path``: relative offsets, a leading ``m``,
Z's return, S/T reflection and H/V projection, for raw and M/L/C columns
alike), the shape outline (``shape_outline``: each basic shape as the
lines and quarter arcs of its equivalent path, with the rect corner-radius
rule and the degenerate-shape checks) and the arc endpoint-to-center
conversion (``arc_center``). The survivor count reads the same outlines
(``element_columns``). A bug there would show on both sides alike, so
those rules are pinned by explicit-value tests instead (``TestToAbsolute``,
``TestSimplify``, ``TestShapeSegments``, ``TestShapeToPath``,
``TestArcCenter`` and ``tests/test_column_walk.py``). Everything the
normalizer then does with them stays independent and is checked here: the
original side is sampled, ``SAMPLES_PER_SPAN`` points per segment and per
90-degree arc span, with quadratics sampled directly rather than
degree-elevated and arcs by angle rather than as cubics; the converted
side is flattened by adaptive subdivision; transforms and the canvas map
are applied to the samples; and the distance kernel is this module's own.

Verification prepares each document in one pass per side, on columns.
``_plan`` reads the drawables' outlines once and decides every sample's
place, which segments draw nothing, where each chain starts, and how many
samples an arc gets, the last of them its end. Each segment kind's formula
(``_line_at``, ``_quad_at``, ``_cubic_at``, ``_arc_at``) is written once,
for floats and arrays alike: verify evaluates each kind of the plan in one
broadcast, and ``sample_outline`` a float at a time without numpy, with
the same operations in the same order, so the samples agree to the bit.
The samples of every drawable whose transform is not the identity are
mapped in one array pass; an identity is not applied, so a ``-0.0`` or a
non-finite sample stays as it is. The converted side arrives as each
path's M/L/C columns, and its cubics are flattened by ``flatten_cubic``'s
subdivision into plain float columns. On each side, consecutive duplicates
are dropped in one array pass, after the transform, and never across the
start of a subpath or a drawable. A subpath that collapses to one point
stays as that point, a zero-length segment for the other side. The
drawables are then measured one at a time; a NaN deviation fails its
drawable, as a large one does. numpy is imported on first use, so
importing svgforge, this module included, does not load it.

Each drawable's two point sets are prepared once (``_Side``), and both
directions of the measure share them: each side's points, its segments,
which are views of the points when the side is one chain (a chain's
segments run from ``points[:-1]`` to ``points[1:]``, and a chain of one
point is its own zero-length segment), the segments' terms for the
kernel, and, when the early break runs, the places below. The scale check
runs at most once per drawable, over the points of both sides, which hold
every segment's ends too, and only for a drawable whose larger direction
has more than ``min(_FULL_PASS_PAIRS, PAIR_BUDGET)`` pairs: no smaller
call reads it.

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
is 0). That walk only puts exact zero-length steps into the points' walk,
so a segment's place is the mean of its ends' places, and each side's
places are computed once, for its points in one direction and its
segments in the other. The window is the segments from the first whose
place is not below the point's, ``_WINDOW`` either way, clipped at either
end. Each pair goes through ``_min_dist2`` with the same terms as the full
kernel, so it has the same value to the bit, and a minimum over fewer
segments is never below the minimum over all of them. The exact pass
measures the point with the largest bound against every segment, which
gives ``lower``, then every point whose bound is at least ``lower``, in
index order, and returns the first farthest of them. A point it skips is
at most its bound, below ``lower``, away, and ``lower`` is at most the
true maximum, so that point can be neither the maximum nor tied with it,
and a tie still goes to the lowest index. Bounds and distances are
compared after the ``sqrt``, as the maximum is taken, since ``sqrt`` can
map two distinct squares to one value. Two cases measure
every point instead: calls of at most ``_FULL_PASS_PAIRS`` pairs, where
the bound pass costs more than it saves, and coordinates that are not
finite or lie outside ``_SAFE_SCALE``, where a pair could overflow to NaN
and the maximum is the first NaN.

``_min_dist2`` lays each pair matrix out with its longer axis inner and
contiguous: points by segments when there are fewer points, segments by
points otherwise, and ``(2 * _WINDOW + 1, points)`` for the bound pass,
whose rows are short windows. Every pair is computed with the same
operations in the same order whatever the layout, and a minimum is exact,
so the layout changes no bit.

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
rounding can only keep more segments; the drawable's scale is at least
the chunk's, so its slack is at least as large. Each kept pair is computed
with the same operations in the same order as the all-at-once call, so
the distances, the worst one and its point are the same to the bit. Under the
early break the cull runs only when more points can be the farthest than
one chunk holds, as on two concentric outlines, and there it bounds the
cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import PathCountMismatch, ValidationError
from .model import AffineTransform, Document, Drawable, PathElement, Point
from .normalizer import (
    SEGMENT_SIZES,
    NormalizeReport,
    _to_mlc,
    arc_center,
    arc_spans,
    canvas_transform,
    drawable_outline,
    element_columns,
    resolve_path,
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
# distance. Against 2, in paired runs of the kernel over the bench corpus
# (about 117 ms a pass at 2), 1, 3, 4 and 8 took 0.97, 1.04, 1.07 and 1.15
# times as long; over 20 dense icons they took 1.6, 0.12, 0.16 and 0.27 s
# against 0.85-1.2 s at 2, where the bounds of two drawables admit 2,339
# and 15,041 candidates.
_WINDOW = 2
# Calls of at most this many pairs measure every pair: the bound pass costs
# about 90 us a call. Against 16k, in paired runs of the kernel over the
# bench corpus, 4k, 8k, 32k and 64k took 1.05, 1.00, 1.37 and 2.05 times
# as long.
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
        """The largest deviation; a NaN, wherever it is, is larger than any number."""
        return max((r.max_deviation for r in self.reports), default=0.0,
                   key=lambda d: (math.isnan(d), d))


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


# --- analytic sampling -------------------------------------------------------
# ``at(i, n, *row)`` is sample i of 1..n of the segment of a ``_plan`` row,
# with the same operations in the same order for floats and for arrays.


def _line_at(i, n, x0, y0, dx, dy):
    return x0 + dx * i / n, y0 + dy * i / n


def _quad_at(i, n, x0, y0, qx, qy, x1, y1):
    t = i / n
    s = 1.0 - t
    return (s * s * x0 + 2 * s * t * qx + t * t * x1,
            s * s * y0 + 2 * s * t * qy + t * t * y1)


def _cubic_at(i, n, x0, y0, x1, y1, x2, y2, x3, y3):
    t = i / n
    s = 1.0 - t
    return (s * s * s * x0 + 3 * s * s * t * x1 + 3 * s * t * t * x2 + t * t * t * x3,
            s * s * s * y0 + 3 * s * s * t * y1 + 3 * s * t * t * y2 + t * t * t * y3)


def _arc_at(i, n, cx, cy, rx, ry, cos_phi, sin_phi, theta1, delta, cos, sin):
    angle = theta1 + delta * i / n
    ct, st = cos(angle), sin(angle)
    return (cx + rx * ct * cos_phi - ry * st * sin_phi,
            cy + rx * ct * sin_phi + ry * st * cos_phi)


class _Plan(NamedTuple):
    """Where every sample of some drawables goes in their joint columns.

    Each row starts with the place of its first sample. ``points`` are
    ``(place, x, y)``: each chain's MoveTo, and each arc's end, its last
    sample. Lines, quadratics and cubics take ``n`` samples; an arc row
    goes on with its ``m``, and takes ``m - 1`` samples before its end.
    ``counts`` and ``sizes`` are the chains and places of each drawable.
    """

    points: list[tuple]
    lines: list[tuple]
    quads: list[tuple]
    cubics: list[tuple]
    arcs: list[tuple]
    starts: list[int]
    counts: list[int]
    sizes: list[int]


def _plan(outlines, n: int) -> _Plan:
    """The sampling plan of drawables given as their outlines,
    ``n`` samples per segment and per 90-degree span of an arc.

    Each MoveTo starts a chain, unless the chain before it is its own
    MoveTo alone, which it replaces; such a chain at a drawable's end is
    dropped. A Z, or an arc with no ``arc_center``, draws nothing when it
    ends where it starts and is a line otherwise. A drawable's outline
    error is raised after its segments.
    """
    points, lines, quads, cubics, arcs = [], [], [], [], []
    starts, counts, sizes = [], [], []
    pos = 0
    for kinds, v, error in outlines:
        first, begin = len(starts), pos
        k = 0
        for kind in kinds:
            j, k = k, k + SEGMENT_SIZES[kind]  # the segment's numbers are v[j:k]
            x1, y1 = v[k - 2], v[k - 1]
            if kind == "M":
                if len(starts) > first and starts[-1] == pos - 1:  # a MoveTo alone
                    points[-1] = (pos - 1, x1, y1)
                else:
                    starts.append(pos)
                    points.append((pos, x1, y1))
                    pos += 1
                continue
            x0, y0 = v[j - 2], v[j - 1]
            if kind == "C" or kind == "Q":
                (cubics if kind == "C" else quads).append((pos, x0, y0, *v[j:k]))
            else:
                center = None
                if kind == "A":
                    center = arc_center(Point(x0, y0), *v[j:j + 5], Point(x1, y1))
                if center is not None:
                    cx, cy, rx, ry, phi, theta1, delta = center
                    m = n * arc_spans(delta)
                    arcs.append((pos, m, cx, cy, rx, ry, math.cos(phi), math.sin(phi),
                                 theta1, delta))
                    points.append((pos + m - 1, x1, y1))
                    pos += m
                    continue
                if kind != "L" and x0 == x1 and y0 == y1:  # a Z or an arc back to its start
                    continue
                lines.append((pos, x0, y0, x1 - x0, y1 - y0))
            pos += n
        if len(starts) > first and starts[-1] == pos - 1:
            del starts[-1], points[-1]
            pos -= 1
        counts.append(len(starts) - first)
        sizes.append(pos - begin)
        if error is not None:
            raise error
    return _Plan(points, lines, quads, cubics, arcs, starts, counts, sizes)


def sample_outline(source: Drawable, n_per_segment: int = 16) -> list[Polyline]:
    """Sample the outline of a drawable, one polyline per subpath.

    Paths, raw or normalized, and shape elements are taken as their
    outline (``drawable_outline``) and sampled analytically, lines and
    curves by uniform t and arcs by angle around the ``arc_center``
    center, never through the cubics the normalizer writes for them.
    """
    if n_per_segment < 2:
        raise ValidationError("n_per_segment must be >= 2")
    n = n_per_segment
    plan = _plan([drawable_outline(source)], n)
    (size,) = plan.sizes
    xs, ys = [0.0] * size, [0.0] * size
    for at, rows in ((_line_at, plan.lines), (_quad_at, plan.quads), (_cubic_at, plan.cubics)):
        for place, *row in rows:
            for i in range(1, n + 1):
                xs[place + i - 1], ys[place + i - 1] = at(i, n, *row)
    for place, m, *row in plan.arcs:
        for i in range(1, m):
            xs[place + i - 1], ys[place + i - 1] = _arc_at(i, m, *row, math.cos, math.sin)
    for place, x, y in plan.points:
        xs[place], ys[place] = x, y
    bounds = plan.starts + [size]
    chains = (polyline(map(Point, xs[a:b], ys[a:b])) for a, b in zip(bounds, bounds[1:]))
    return [pl for pl in chains if pl is not None]


# --- deviation measurement -----------------------------------------------------


class _Segments(NamedTuple):
    """Segments ``[a_j, b_j]`` as :func:`_min_dist2`'s terms (a zero length
    taken as 1), and their ends, which bound them for the cull."""

    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    len2: np.ndarray
    bx: np.ndarray
    by: np.ndarray


def _segment_terms(a: np.ndarray, b: np.ndarray) -> _Segments:
    """The segments from the rows of ``a`` to those of ``b``, ``(m, 2)`` each."""
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0], b[:, 1]
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    len2[len2 < 1e-30] = 1.0
    return _Segments(ax, ay, dx, dy, len2, bx, by)


class _Side:
    """One polyline set of :func:`set_deviation`, prepared once for both
    directions: its points in order, its segments, and where each lies.

    A chain's segments run from ``points[:-1]`` to ``points[1:]``, and a
    chain of one point (verify keeps a subpath that collapses to a point)
    is one zero-length segment; no segment joins two chains. ``first`` and
    ``last`` pick each segment's ends from the points: slices when the set
    is one chain, which takes no copy.
    """

    def __init__(self, polys) -> None:
        import numpy as np

        chains = [np.asarray(pl.points, dtype=np.float64) for pl in polys]
        if len(chains) == 1:
            points = chains[0]
            one = len(points) == 1
            self.first = slice(None) if one else slice(None, -1)
            self.last = slice(None) if one else slice(1, None)
        else:
            points = np.concatenate(chains)
            lengths = np.array([len(c) for c in chains])
            tail = np.cumsum(lengths) - 1  # each chain's last point
            starts = np.ones(len(points), dtype=bool)
            starts[tail] = lengths == 1
            follow = np.arange(1, len(points) + 1)
            follow[tail] = tail
            self.first = np.flatnonzero(starts)
            self.last = follow[self.first]
        self.points = points
        self.segments = _segment_terms(points[self.first], points[self.last])

    @cached_property
    def places(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point's place and each segment's (see the module docstring).

        A segment's place is the mean of its ends' places: the walk of
        segments and the gaps between them steps the points' walk with
        zero-length steps put in, exact ``+0.0`` terms of the same sum.
        When the whole length is 0, each takes its index share of its walk.
        """
        import numpy as np

        n, m = len(self.points), len(self.segments.ax)
        place = np.zeros(n)
        step = self.points[1:] - self.points[:-1]
        np.cumsum(np.hypot(step[:, 0], step[:, 1]), out=place[1:])
        if place[-1] > 0:
            place /= place[-1]
            return place, (place[self.first] + place[self.last]) / 2
        walk = np.arange(2 * m) / max(2 * m - 1, 1)
        return np.arange(n) / max(n - 1, 1), (walk[0::2] + walk[1::2]) / 2


def _min_dist2(x, y, ax, ay, dx, dy, len2) -> np.ndarray:
    """Min squared distance from each point (x_i, y_i) to any segment a_j + t d_j.

    The segment terms are one value per segment, or a ``(k, n)`` matrix
    whose row r holds each point's r-th segment. One value per segment
    runs along whichever axis of the pair matrix is longer, the points or
    the segments, so the inner, contiguous axis is the long one. Each pair
    is computed on separate x and y planes, with the same operations in the
    same order as a dot product over (x, y) followed by a two-term norm, so
    squared distances round the same either way, and the minimum is exact
    along either axis.
    """
    import numpy as np

    if ax.ndim == 2:
        axis = 0
    elif len(x) < len(ax):
        x, y = x[:, None], y[:, None]
        axis = 1
    else:
        ax, ay, dx, dy, len2 = (v[:, None] for v in (ax, ay, dx, dy, len2))
        axis = 0
    t = (x - ax) * dx
    t += (y - ay) * dy
    t /= len2
    # t.clip(0.0, 1.0) as two ufunc calls, without clip's Python-level wrapper;
    # a -0.0 may become 0.0, which moves no squared distance
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    ex = x - (ax + t * dx)
    ey = y - (ay + t * dy)
    ex *= ex
    ey *= ey
    ex += ey
    return ex.min(axis=axis)


def _safe_scale(*coords: np.ndarray) -> float | None:
    """The largest magnitude in ``coords``; ``None`` outside ``_SAFE_SCALE``,
    and when any coordinate is inf or NaN."""
    import numpy as np

    scale = np.abs(np.concatenate(coords)).max()
    return scale if _SAFE_SCALE[0] <= scale <= _SAFE_SCALE[1] else None


def _dist_points_to_segments(points: np.ndarray, segs: _Segments, scale: float | None) -> np.ndarray:
    """Min distance from each point to any of ``segs``.

    At most ``PAIR_BUDGET`` point-segment pairs are held at a time: the
    points are split into even contiguous chunks, and each chunk is measured
    only against the segments that may hold one of its points' nearest (see
    the module docstring for why that loses nothing). ``scale`` is
    :func:`_safe_scale` over the points and the segments' ends, or over
    more; without one, every segment is kept.
    """
    import numpy as np

    n, m = len(points), len(segs.ax)
    x, y = points[:, 0], points[:, 1]
    ax, ay, dx, dy, len2, bx, by = segs
    rows = max(1, PAIR_BUDGET // m)
    if n <= rows:
        return np.sqrt(_min_dist2(x, y, ax, ay, dx, dy, len2))

    if scale is not None:
        slack = _CULL_ULPS * np.finfo(np.float64).eps * scale
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


def _window_bounds(p: _Side, s: _Side) -> np.ndarray:
    """An upper bound on each point of ``p``'s distance to the segments of
    ``s``: its distance to the ``2 * _WINDOW + 1`` segments around its place
    (see the module docstring)."""
    import numpy as np

    j0 = np.searchsorted(s.places[1], p.places[0])
    offsets = np.arange(-_WINDOW, _WINDOW + 1)[:, None]
    x, y = p.points[:, 0], p.points[:, 1]
    out = np.empty(len(x))
    cols = max(1, PAIR_BUDGET // len(offsets))
    for lo in range(0, len(x), cols):
        k = j0[lo:lo + cols] + offsets  # a window past either end is clipped to it
        terms = (v.take(k, mode="clip") for v in s.segments[:5])  # ax, ay, dx, dy, len2
        out[lo:lo + cols] = _min_dist2(x[lo:lo + cols], y[lo:lo + cols], *terms)
    return np.sqrt(out)


def _one_sided(p: _Side, s: _Side, scale: float | None) -> tuple[float, Point]:
    """The farthest any point of ``p`` lies from the segments of ``s``, and
    the first point that far; ``scale`` is :func:`_safe_scale` over both.

    Large calls measure exactly only the points that can be the farthest
    (see the module docstring); the rest measure every point.
    """
    candidates = p.points
    if len(candidates) * len(s.segments.ax) > _FULL_PASS_PAIRS and scale is not None:
        bound = _window_bounds(p, s)
        top = int(bound.argmax())
        lower = _dist_points_to_segments(candidates[top:top + 1], s.segments, scale)[0]
        candidates = candidates[bound >= lower]
    dists = _dist_points_to_segments(candidates, s.segments, scale)
    k = int(dists.argmax())
    return float(dists[k]), Point(float(candidates[k, 0]), float(candidates[k, 1]))


def set_deviation(polys_a: list[Polyline], polys_b: list[Polyline]) -> DeviationReport:
    """Symmetric point-to-segment Hausdorff measure between polyline sets.

    Reports the larger one-sided measure (the farthest any point of one set
    lies from the other set's segments, ``polys_a`` first on a tie), the
    point where it occurs, and the points compared. Each set is prepared
    once (:class:`_Side`), and shared by both directions, as is the scale
    (computed only when a call can read it; see the module docstring).
    """
    if not polys_a or not polys_b:
        raise ValidationError("deviation needs non-empty polyline sets")
    a, b = _Side(polys_a), _Side(polys_b)
    pairs = max(len(a.points) * len(b.segments.ax), len(b.points) * len(a.segments.ax))
    scale = _safe_scale(a.points, b.points) if pairs > min(_FULL_PASS_PAIRS, PAIR_BUDGET) else None
    d_ab, w_ab = _one_sided(a, b, scale)
    d_ba, w_ba = _one_sided(b, a, scale)
    samples = len(a.points) + len(b.points)
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


def _sample_document(outlines, transforms, n: int) -> list[list[_Chain]]:
    """The outline of each drawable sampled as :func:`sample_outline`
    samples it, ``n`` points per span, and mapped through its transform:
    one chain per subpath, one list per drawable.

    Each segment kind of the outlines' :func:`_plan` is evaluated in one
    broadcast, and the points of every drawable whose transform is not the
    identity are mapped together.
    """
    import numpy as np

    plan = _plan(outlines, n)
    sizes = plan.sizes
    x, y = np.empty(sum(sizes)), np.empty(sum(sizes))
    i = np.arange(1, n + 1)
    for at, rows in ((_line_at, plan.lines), (_quad_at, plan.quads), (_cubic_at, plan.cubics)):
        if rows:
            place, *row = np.array(rows).T[:, :, None]
            place = place.astype(np.intp) + i - 1
            x[place], y[place] = at(i, n, *row)
    if plan.arcs:
        rows = np.array(plan.arcs)
        before_end = rows[:, 1].astype(np.intp) - 1
        owner = np.repeat(np.arange(len(rows)), before_end)
        # 1..m-1 within each arc
        k = np.arange(len(owner)) - (np.cumsum(before_end) - before_end)[owner] + 1
        place = rows[owner, 0].astype(np.intp) + k - 1
        x[place], y[place] = _arc_at(k, *rows[owner, 1:].T, np.cos, np.sin)
    if plan.points:
        place, px, py = np.array(plan.points).T
        place = place.astype(np.intp)
        x[place], y[place] = px, py

    moved = np.array([not tf.is_identity for tf in transforms])
    if moved.any():
        # apply_point's operations in its order, so every sample rounds as
        # there; an identity is not applied, which keeps -0.0 and inf as they are
        coef = np.repeat([(tf.a, tf.b, tf.c, tf.d, tf.e, tf.f) for tf in transforms], sizes, axis=0)
        at = slice(None) if moved.all() else np.flatnonzero(np.repeat(moved, sizes))
        a, b, c, d, e, f = coef[at].T
        px, py = x[at], y[at]
        x[at], y[at] = a * px + c * py + e, b * px + d * py + f
    return _split_chains(x, y, plan.starts, plan.counts)


def _flatten_document(paths, tolerance: float) -> list[list[_Chain]]:
    """The converted side: each path, given as M/L/C columns ``(ops, xy)``
    whose first opcode is M and where no M follows an M, flattened by
    :func:`flatten_cubic`'s subdivision into chains, one list per path. A
    trailing M draws nothing and is dropped."""
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
            if op == "M":
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
    return _sample_document([drawable_outline(source)], [t], n)[0]


def _flatten_path(path: PathElement, tolerance: float) -> list[_Chain]:
    """The chains that :func:`_flatten_document` gives an M/L/C path alone.

    Verify flattens whole documents; ``bench/spans.py`` looks this name up.
    """
    return _flatten_document([(path.ops, path.args)], tolerance)[0]


def verify_columns(
    raw_doc: Document,
    paths,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """:func:`verify_normalization` against normalized paths given as M/L/C
    columns ``(ops, xy)`` (:mod:`svgforge.model`), one per path, each
    starting with M, with no M right after an M.

    The whole document is prepared in one pass per side: the outline of
    every drawable that :func:`~svgforge.normalizer.element_columns` keeps
    is sampled (:func:`_sample_document`) and every path flattened
    (:func:`_flatten_document`) before the drawables are measured one by
    one with :func:`set_deviation`.
    """
    check_tolerance(tolerance)
    kept = [(el, c[0]) for el in raw_doc.paths if (c := element_columns(el)) is not None]
    if len(kept) != len(paths):
        raise PathCountMismatch(f"{len(kept)} surviving drawables vs {len(paths)} paths")

    canvas = canvas_transform(raw_doc.view_box)
    transforms = [canvas @ el.transform for el, _ in kept]
    # Chords on both sides add to the measured deviation; keep them well
    # below the tolerance so only real conversion error can trip it.
    flatten_tol = min(0.02, max(1e-4, tolerance / 20.0))
    originals = _sample_document([o for _, o in kept], transforms, SAMPLES_PER_SPAN)
    converted = _flatten_document(paths, flatten_tol)
    reports = tuple(set_deviation(original, flattened)
                    for original, flattened in zip(originals, converted) if original or flattened)
    # a NaN deviation is not within the tolerance either
    passed = all(r.max_deviation <= tolerance for r in reports)
    return VerificationResult(passed, tolerance, reports)


def verify_normalization(
    raw_doc: Document,
    normalized_doc: Document,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check that normalization preserved every drawable's geometry.

    Each surviving original drawable is sampled analytically, mapped
    through its composed transform plus the canvas transform, and compared
    against its converted path: M/L/C columns, or raw ones (as parsed from
    normalized text), which the normalizer's column walk maps to M/L/C
    first, as it maps raw path data.
    Raises :class:`PathCountMismatch` when the surviving-drawable count
    differs from the normalized path count, which signals a pipeline bug
    rather than a geometric error.
    """
    paths = [_to_mlc(resolve_path(p.ops, p.args), NormalizeReport()) if p.is_raw
             else (p.ops, p.args) for p in normalized_doc.paths]
    return verify_columns(raw_doc, paths, tolerance)
