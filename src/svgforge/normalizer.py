"""Path unification: everything becomes absolute M/L/C on a 1024 canvas.

The pipeline per drawable: shapes are rewritten as path commands, raw path
data of either relativity is made absolute and simplified to the
MoveTo/LineTo/CubicTo alphabet in one walk, element transforms are
flattened into coordinates, and the whole canvas is mapped onto
(0, 0, 1024, 1024). Every conversion preserves segment
endpoints exactly; curved conversions stay within a tight analytic error
bound (arcs are split at 90 degrees, worst-case radial error about
2.7e-4 of the radius).

A path arrives as the columns of the path-data scan (:mod:`svgforge.model`).
One walk, :func:`resolve_path`, resolves them into an :class:`Outline` of
absolute segments, which a basic shape also gives (:func:`shape_outline`)
and the verifier samples. ``_to_mlc`` maps an outline to M/L/C columns, on
which the element transform and the canvas map (``_map_columns``) work;
each step raises :class:`ValidationError` for the first non-finite
coordinate, as building M/L/C commands one by one would.
:func:`normalize_slices` formats the columns as ``(d, fill)`` text, which
the CLI writes, and :func:`normalize_document` stores them in its paths,
with no command object on either route. The typed public functions are
thin views of the same column code.

:func:`normalize_text` is the one route from SVG text to those slices for
every reader of text (``normalize``, ``classify``, ``augment``, ``verify``'s
NORM files and ``score``): canonical text is recognized as text
(:func:`~svgforge.parser.canonical_paths`) and other text parsed first.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from operator import add
from typing import NamedTuple

from .errors import (
    DegenerateShape,
    EmptyDocument,
    NoCurrentPoint,
    SingularTransform,
    ValidationError,
)
from .model import (
    BLACK,
    CANVAS_SIZE,
    AffineTransform,
    CubicTo,
    Document,
    Drawable,
    LineTo,
    NO_FILL,
    NORMALIZED_VIEW_BOX,
    PARAM_COUNTS,
    Paint,
    PathCommand,
    PathElement,
    Point,
    RawCommand,
    ShapeElement,
    _require_finite,
    command_columns,
    typed_commands,
)
from .parser import canonical_paths, parse_document, path_slice, serialize_paths

#: Cubic handle length approximating a unit quarter circle: 4/3 * tan(pi/8).
KAPPA = 4.0 / 3.0 * math.tan(math.pi / 8.0)

_CLOSE_EPS = 1e-9
_SINGULAR_EPS = 1e-12


@dataclass
class NormalizeReport:
    """Counters describing what one normalization run had to do.

    Every field is a count, or a dict of counts by key; :meth:`merge` and
    :meth:`as_dict` read the field list, so a new counter is one field.
    """

    shapes_converted: dict[str, int] = field(default_factory=dict)
    arcs_converted: int = 0
    relative_resolved: int = 0
    transforms_flattened: int = 0
    closures_materialized: int = 0
    paths_dropped: dict[str, int] = field(default_factory=dict)

    def count_shape(self, tag: str) -> None:
        self.shapes_converted[tag] = self.shapes_converted.get(tag, 0) + 1

    def count_drop(self, reason: str) -> None:
        self.paths_dropped[reason] = self.paths_dropped.get(reason, 0) + 1

    def merge(self, other: "NormalizeReport") -> None:
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, n in theirs.items():
                    mine[key] = mine.get(key, 0) + n
            else:
                setattr(self, f.name, mine + theirs)

    def as_dict(self) -> dict:
        return {name: dict(sorted(v.items())) if isinstance(v, dict) else v
                for name, v in asdict(self).items()}


# --- the walk ----------------------------------------------------------------

#: The segment kind of each upper-case path-data letter that is not its own.
_KINDS = str.maketrans("HVST", "LLCQ")
#: Each path-data letter's argument count.
_ARITY = {op: PARAM_COUNTS[op.upper()] for op in "MmLlHhVvCcSsQqTtAaZz"}
#: Numbers per segment in an outline's columns, by segment kind.
SEGMENT_SIZES = {"M": 2, "L": 2, "C": 6, "Q": 4, "A": 7, "Z": 2}


class Outline(NamedTuple):
    """A drawable's absolute segments: one kind per segment and their numbers.

    Each segment ends with its end point, where the next one starts: M and L
    ``x y``, C ``x1 y1 x2 y2 x y``, Q ``qx qy x y``, A ``rx ry rotation
    large_arc sweep x y``, Z its subpath's start. When the walk overflowed,
    the columns stop before that segment and ``error`` is raised by their
    reader after its own errors.
    """

    kinds: str
    coords: list
    error: ValidationError | None = None


def resolve_path(ops: str, args) -> Outline:
    """The one walk, the one place that tracks a current point: a path's
    columns (:mod:`svgforge.model`) as its :class:`Outline`.

    It applies relative offsets (an arc's to its endpoint only; a leading
    ``m`` is absolute), H/V projection (an absolute one adds ``0.0``, so
    ``-0`` becomes ``0``), S/T reflection and Z's return, and checks
    finiteness once. Raises :class:`NoCurrentPoint` unless the path starts
    with a moveto.
    """
    if not ops:
        return Outline("", [])
    if ops[0] not in "Mm":
        where = f"relative {ops[0]!r}" if ops[0].islower() else ops[0].upper()
        raise NoCurrentPoint(f"{where} before any MoveTo")
    x, y = sx, sy = args[0], args[1]  # the current point and the subpath start
    out = [x, y]
    k = 2
    smooth = ""  # "C" or "Q" after a segment of that kind, whose control is px, py
    px = py = 0.0
    kinds = ops.upper().translate(_KINDS)
    for op, kind in zip(ops[1:], kinds[1:]):
        n = _ARITY[op]
        g = args[k:k + n]
        k += n
        if op in "lcmqst":
            g = list(map(add, g, (x, y, x, y, x, y)))
        elif op in "hH":
            g = (g[0] + (x if op == "h" else 0.0), y)
        elif op in "vV":
            g = (x, g[0] + (y if op == "v" else 0.0))
        elif op in "zZ":
            g = (sx, sy)
        elif op == "a":  # an arc offsets its endpoint only
            g = (*g[:5], g[5] + x, g[6] + y)
        if op in "SsTt":
            g = ((2.0 * x - px, 2.0 * y - py) if smooth == kind else (x, y)) + tuple(g)
        out += g
        x, y = g[-2], g[-1]
        if kind == "M":
            sx, sy = x, y
        if kind in "CQ":
            smooth, px, py = kind, g[-4], g[-3]
        else:
            smooth = ""
    if all(map(math.isfinite, out)):
        return Outline(kinds, out)
    # cut before the first segment whose own numbers are not all finite; a
    # reflected S/T control is not its own, and the conversion checks it
    k = 0
    for i, (op, kind) in enumerate(zip(ops, kinds)):
        n = SEGMENT_SIZES[kind]
        own = out[k + 2 if op in "SsTt" else k:k + n]
        bad = [v for v in own if not math.isfinite(v)]
        if bad:
            error = ValidationError(f"non-finite coordinate {bad[0]!r}")
            return Outline(kinds[:i], out[:k], error)
        k += n
    return Outline(kinds, out)


def segment_tuples(outline: Outline):
    """Yield an outline's segments as ``("M", p)``, ``("L", p0, p1)``,
    ``("C", p0, c1, c2, p1)``, ``("Q", p0, q, p1)``, ``("A", p0, rx, ry, rot,
    large_arc, sweep, p1)`` and ``("Z", cur, start)``, then raise its error."""
    p0, k, v = None, 0, outline.coords
    for kind in outline.kinds:
        j, k = k, k + SEGMENT_SIZES[kind]
        if kind == "A":
            seg = (*v[j:k - 2], Point(*v[k - 2:k]))
        else:
            seg = tuple(map(Point, v[j:k:2], v[j + 1:k:2]))
        yield (kind, *seg) if kind == "M" else (kind, p0, *seg)
        p0 = seg[-1]
    if outline.error is not None:
        raise outline.error


def iter_segments(cmds: Iterable[RawCommand | PathCommand]):
    """Walk raw commands of either relativity, or typed M/L/C, as the
    :func:`segment_tuples` of :func:`resolve_path`."""
    return segment_tuples(resolve_path(*command_columns(cmds)))


#: The numbers of an outline segment that are its letter's group, where not all.
_GROUPS = {"H": slice(0, 1), "V": slice(1, 2), "S": slice(2, None), "T": slice(2, None),
           "Z": slice(0, 0)}


def to_absolute(cmds: Iterable[RawCommand | PathCommand]) -> list[RawCommand]:
    """Rewrite raw or typed M/L/C commands as absolute raw ones, one group each.

    Current-point bookkeeping is :func:`resolve_path`'s: Z returns the
    current point to the subpath start, and a leading ``m`` is absolute.
    H/V/S/T keep their opcodes. Raises :class:`NoCurrentPoint` when a
    command requires a current point that does not exist yet.
    """
    ops, args = command_columns(cmds)
    outline = resolve_path(ops, args)
    if outline.error is not None:
        raise outline.error
    it = iter(outline.coords)
    return [RawCommand(op, tuple(islice(it, SEGMENT_SIZES[kind]))[_GROUPS.get(op, slice(None))])
            for op, kind in zip(ops.upper(), outline.kinds)]


# --- arc conversion -------------------------------------------------------


def arc_center(
    start: Point,
    rx: float,
    ry: float,
    x_rotation_deg: float,
    large_arc: bool | float,
    sweep: bool | float,
    end: Point,
) -> tuple[float, float, float, float, float, float, float] | None:
    """Endpoint to center parameterization of an elliptical arc.

    Returns ``(cx, cy, rx, ry, phi, theta1, delta)``: the center, the radii
    after out-of-range scale-up, the x-axis rotation in radians, the start
    angle and the signed sweep angle (SVG 1.1 implementation notes, F.6.5).
    Returns ``None`` for identical endpoints, a zero radius, or a chord
    whose square underflows against the radii (below about 1e-154 of a
    radius): these draw nothing or a straight line. A large arc between
    near-coincident endpoints whose sweep angle comes out as exactly 0 is
    a full turn in the direction of the sweep flag.
    """
    if start == end or rx == 0.0 or ry == 0.0:
        return None
    rx, ry = abs(rx), abs(ry)

    phi = math.radians(x_rotation_deg % 360.0)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    dx2, dy2 = (start.x - end.x) / 2.0, (start.y - end.y) / 2.0
    x1p = cos_phi * dx2 + sin_phi * dy2
    y1p = -sin_phi * dx2 + cos_phi * dy2

    lam = (x1p / rx) ** 2 + (y1p / ry) ** 2
    if lam > 1.0:
        s = math.sqrt(lam)
        rx, ry = rx * s, ry * s

    rx2, ry2 = rx * rx, ry * ry
    num = rx2 * ry2 - rx2 * y1p * y1p - ry2 * x1p * x1p
    den = rx2 * y1p * y1p + ry2 * x1p * x1p
    if not den:
        return None
    factor = math.sqrt(max(0.0, num / den))
    if bool(large_arc) == bool(sweep):
        factor = -factor
    cxp = factor * rx * y1p / ry
    cyp = -factor * ry * x1p / rx

    cx = cos_phi * cxp - sin_phi * cyp + (start.x + end.x) / 2.0
    cy = sin_phi * cxp + cos_phi * cyp + (start.y + end.y) / 2.0

    def angle(ux: float, uy: float, vx: float, vy: float) -> float:
        dot = ux * vx + uy * vy
        norm = math.hypot(ux, uy) * math.hypot(vx, vy)
        a = math.acos(max(-1.0, min(1.0, dot / norm)))
        return -a if ux * vy - uy * vx < 0 else a

    ux, uy = (x1p - cxp) / rx, (y1p - cyp) / ry
    vx, vy = (-x1p - cxp) / rx, (-y1p - cyp) / ry
    theta1 = angle(1.0, 0.0, ux, uy)
    delta = angle(ux, uy, vx, vy) % (2.0 * math.pi)
    if not sweep and delta > 0:
        delta -= 2.0 * math.pi
    if delta == 0.0 and large_arc:
        delta = 2.0 * math.pi if sweep else -2.0 * math.pi
    return cx, cy, rx, ry, phi, theta1, delta


def arc_spans(delta: float) -> int:
    """Number of spans of at most 90 degrees that cover a sweep of ``delta``."""
    return max(1, math.ceil(abs(delta) / (math.pi / 2.0) - 1e-9))


def _arc_columns(ops: list[str], xy: list[float], start: Point, rx: float, ry: float,
                 x_rotation_deg: float, large_arc: bool | float, sweep: bool | float,
                 end: Point) -> None:
    """Append the M/L/C columns of one arc (:func:`arc_to_cubics`) to ``ops`` and ``xy``."""
    center = arc_center(start, rx, ry, x_rotation_deg, large_arc, sweep, end)
    if center is None:
        if start != end:
            ops.append("L")
            xy += end
        return
    cx, cy, rx, ry, phi, theta1, delta = center
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    segments = arc_spans(delta)
    step = delta / segments
    k = 4.0 / 3.0 * math.tan(step / 4.0)

    x0, y0 = start
    for i in range(segments):
        ta = theta1 + i * step
        tb = ta + step
        ca, sa, cb, sb = math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb)
        if i == segments - 1:
            x1, y1 = end
        else:
            x1 = cx + rx * cb * cos_phi - ry * sb * sin_phi
            y1 = cy + rx * cb * sin_phi + ry * sb * cos_phi
        # the ellipse's tangent at ta and at tb, scaled by k
        xy += (
            x0 + k * (-rx * sa * cos_phi - ry * ca * sin_phi),
            y0 + k * (-rx * sa * sin_phi + ry * ca * cos_phi),
            x1 - k * (-rx * sb * cos_phi - ry * cb * sin_phi),
            y1 - k * (-rx * sb * sin_phi + ry * cb * cos_phi),
            x1,
            y1,
        )
        x0, y0 = x1, y1
    ops.append("C" * segments)


def arc_to_cubics(
    start: Point,
    rx: float,
    ry: float,
    x_rotation_deg: float,
    large_arc: bool | float,
    sweep: bool | float,
    end: Point,
) -> list[CubicTo | LineTo]:
    """Convert one endpoint-parameterized elliptical arc to cubic segments.

    Degenerate radii collapse to a single LineTo; identical endpoints
    produce no segments. Otherwise the arc is converted to center
    parameterization (:func:`arc_center`), split into spans of at most 90
    degrees, and each span approximated by one cubic with handle length
    4/3*tan(delta/4). The first segment starts exactly at ``start`` and
    the last ends exactly at ``end``.
    """
    ops: list[str] = []
    xy: list[float] = []
    _arc_columns(ops, xy, start, rx, ry, x_rotation_deg, large_arc, sweep, end)
    return list(typed_commands("".join(ops), xy))


# --- command simplification ------------------------------------------------


def _require_finite_columns(xy) -> None:
    # the first non-finite value raises, as the typed constructors would
    if not all(map(math.isfinite, xy)):
        _require_finite(*xy)


def _to_mlc(outline: Outline, report: NormalizeReport) -> tuple[str, list[float]]:
    """Map an outline to M/L/C columns.

    Q is degree-elevated exactly, arcs become the cubics of
    :func:`arc_to_cubics`, and Z a LineTo back to the subpath start unless
    the current point is already there. Runs of MoveTo collapse to the last
    one and a trailing MoveTo is dropped, so empty subpaths leave no residue.

    Raises :class:`ValidationError` for the first non-finite coordinate,
    ahead of any error that a later segment raises, as building the commands
    one by one would; values are checked once, at the end or on that error.
    The outline's own error comes last.
    """
    ops: list[str] = []
    xy: list[float] = []
    v = outline.coords
    k = 0
    try:
        for kind in outline.kinds:
            j, k = k, k + SEGMENT_SIZES[kind]  # the segment's numbers are v[j:k]
            if kind == "C" or kind == "L":
                ops.append(kind)
                xy += v[j:k]
            elif kind == "M":
                if ops and ops[-1] == "M":
                    ops.pop()
                    del xy[-2:]
                ops.append("M")
                xy += v[j:k]
            elif kind == "Z":
                x0, y0, sx, sy = v[j - 2:k]
                if max(abs(x0 - sx), abs(y0 - sy)) > _CLOSE_EPS:
                    ops.append("L")
                    xy += (sx, sy)
                    report.closures_materialized += 1
            elif kind == "Q":
                # exact degree elevation: c = p + (2/3)(q - p)
                x0, y0, qx, qy, x1, y1 = v[j - 2:k]
                ops.append("C")
                xy += (x0 + 2.0 * (qx - x0) / 3.0, y0 + 2.0 * (qy - y0) / 3.0,
                       x1 + 2.0 * (qx - x1) / 3.0, y1 + 2.0 * (qy - y1) / 3.0, x1, y1)
            else:  # A
                _arc_columns(ops, xy, Point(*v[j - 2:j]), *v[j:k - 2], Point(*v[k - 2:k]))
                report.arcs_converted += 1
    except Exception:
        _require_finite_columns(xy)
        raise
    _require_finite_columns(xy)
    if outline.error is not None:
        raise outline.error

    if ops and ops[-1] == "M":
        ops.pop()
        del xy[-2:]
    return "".join(ops), xy


def simplify_commands(
    cmds: Iterable[RawCommand | PathCommand],
    report: NormalizeReport | None = None,
) -> list[PathCommand]:
    """Reduce raw commands of either relativity, or typed M/L/C, to M/L/C.

    The outline of :func:`resolve_path`, mapped by the one outline to
    M/L/C rule that :func:`shape_to_path` uses too.
    """
    report = NormalizeReport() if report is None else report
    return list(typed_commands(*_to_mlc(resolve_path(*command_columns(cmds)), report)))


# --- shape conversion -------------------------------------------------------


def shape_outline(element: ShapeElement) -> Outline:
    """A basic shape as an :class:`Outline`.

    SVG defines every basic shape as an equivalent path (SVG 1.1, 9.1), so
    a shape is a moveto, lines and quarter arcs (``rx ry 0 0 1``): a rect
    runs clockwise from its top edge, with an arc per rounded corner and no
    line where a pill's corners meet; an ellipse is four arcs from its
    rightmost point; a polygon closes with a line to its first point unless
    it is already there. A missing rect radius takes the value of the other
    (both missing is a sharp corner), then each is clamped to half its side.

    Raises :class:`DegenerateShape` for non-positive dimensions or a
    polyline or polygon of fewer than 2 points: such shapes render
    nothing and are dropped with a diagnostic upstream.
    """
    tag, get = element.tag, element.get
    if tag == "rect":
        x, y, w, h = get("x"), get("y"), get("width"), get("height")
        if w <= 0 or h <= 0:
            raise DegenerateShape(f"rect {w}x{h}")
        rx, ry = get("rx", -1.0), get("ry", -1.0)
        if rx < 0 and ry < 0:
            rx = ry = 0.0
        elif rx < 0:
            rx = ry
        elif ry < 0:
            ry = rx
        rx, ry = min(rx, w / 2.0), min(ry, h / 2.0)
        if rx > 0 and ry > 0:
            # edge start, edge end (= corner start), corner end, four times
            ring = (
                (x + rx, y), (x + w - rx, y), (x + w, y + ry),
                (x + w, y + h - ry), (x + w - rx, y + h), (x + rx, y + h),
                (x, y + h - ry), (x, y + ry), (x + rx, y),
            )
            kinds = ["M"]
            coords = [*ring[0]]
            for a, b, c in zip(ring[0:8:2], ring[1::2], ring[2::2]):
                if a != b:
                    kinds.append("L")
                    coords += b
                kinds.append("A")
                coords += (rx, ry, 0.0, 0.0, 1.0, *c)
            return Outline("".join(kinds), coords)
        points = ((x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y))
    elif tag in ("circle", "ellipse"):
        rx, ry = (get("r"), get("r")) if tag == "circle" else (get("rx"), get("ry"))
        if rx <= 0 or ry <= 0:
            raise DegenerateShape(f"{tag} {rx}x{ry}")
        cx, cy = get("cx"), get("cy")
        coords = [cx + rx, cy]
        for end in ((cx, cy + ry), (cx - rx, cy), (cx, cy - ry), (cx + rx, cy)):
            coords += (rx, ry, 0.0, 0.0, 1.0, *end)
        return Outline("MAAAA", coords)
    elif tag == "line":
        points = ((get("x1"), get("y1")), (get("x2"), get("y2")))
    else:  # polyline / polygon
        points = get("points", ())
        if not isinstance(points, tuple) or len(points) < 2:
            raise DegenerateShape(f"{tag} with fewer than 2 points")
        if tag == "polygon" and points[-1] != points[0]:
            points += (points[0],)
    return Outline("M" + "L" * (len(points) - 1), [v for p in points for v in p])


def shape_segments(element: ShapeElement) -> list[tuple]:
    """The :func:`segment_tuples` of :func:`shape_outline`."""
    return list(segment_tuples(shape_outline(element)))


def _shape_columns(element: ShapeElement, outline: Outline) -> tuple[str, list[float]]:
    """The M/L/C columns of :func:`shape_to_path`, from the shape's outline."""
    if element.tag not in ("circle", "ellipse"):
        return _to_mlc(outline, NormalizeReport())
    rx, ry = outline.coords[2:4]
    cx, cy = element.get("cx"), element.get("cy")
    kx, ky = KAPPA * rx, KAPPA * ry
    xy = [
        cx + rx, cy,
        cx + rx, cy + ky, cx + kx, cy + ry, cx, cy + ry,
        cx - kx, cy + ry, cx - rx, cy + ky, cx - rx, cy,
        cx - rx, cy - ky, cx - kx, cy - ry, cx, cy - ry,
        cx + kx, cy - ry, cx + rx, cy - ky, cx + rx, cy,
    ]
    _require_finite_columns(xy)
    return "MCCCC", xy


def shape_to_path(element: ShapeElement) -> PathElement:
    """Rewrite a basic shape as an equivalent M/L/C path element.

    Maps :func:`shape_outline` to M/L/C as :func:`simplify_commands` maps
    raw path data, so rect corners become 90-degree arc cubics. Circles
    and ellipses instead take four cubics with the handle ``KAPPA`` times
    each radius, written directly from the center: for an axis-aligned
    quarter this is what :func:`arc_to_cubics` computes, without the
    rounding of a center recovered from the endpoints, so every control
    point is exact. Raises :class:`DegenerateShape` as
    :func:`shape_outline` does.
    """
    ops, xy = _shape_columns(element, shape_outline(element))
    return PathElement(fill=element.fill, transform=element.transform, ops=ops, args=xy,
                       is_raw=False)


# --- transforms and canvas ---------------------------------------------------


def _check_invertible(m: AffineTransform) -> None:
    if abs(m.det) < _SINGULAR_EPS:
        raise SingularTransform(f"determinant {m.det}")


def _map_columns(m: AffineTransform, xy: list[float]) -> list[float]:
    """The coordinate column ``xy`` mapped through ``m``, point by point, by
    :meth:`~svgforge.model.AffineTransform.apply_point`'s arithmetic in its
    order. Raises :class:`ValidationError` for the first non-finite result."""
    a, b, c, d, e, f = m.a, m.b, m.c, m.d, m.e, m.f
    xs, ys = xy[0::2], xy[1::2]
    out = [0.0] * len(xy)
    out[0::2] = [a * x + c * y + e for x, y in zip(xs, ys)]
    out[1::2] = [b * x + d * y + f for x, y in zip(xs, ys)]
    _require_finite_columns(out)
    return out


def apply_transform(path: PathElement, m: AffineTransform) -> PathElement:
    """Map every anchor and control point of a normalized path through ``m``.

    Affine maps commute with Bezier evaluation, so curve geometry is
    transformed exactly. Raises :class:`SingularTransform` for
    non-invertible matrices.
    """
    _check_invertible(m)
    if path.is_raw:
        raise ValidationError("apply_transform needs a simplified M/L/C path")
    if m.is_identity:
        return path
    return replace(path, args=_map_columns(m, path.args))


def canvas_transform(view_box: tuple[float, float, float, float]) -> AffineTransform:
    """Uniform scale-and-center map from a view box onto (0,0,1024,1024).

    Non-square canvases are letterboxed along the short axis, never
    stretched.
    """
    min_x, min_y, w, h = view_box
    s = CANVAS_SIZE / max(w, h)
    pad_x = (CANVAS_SIZE - w * s) / 2.0
    pad_y = (CANVAS_SIZE - h * s) / 2.0
    return (
        AffineTransform.translate(pad_x, pad_y)
        @ AffineTransform.scale(s)
        @ AffineTransform.translate(-min_x, -min_y)
    )


def normalize_canvas(doc: Document) -> Document:
    """Rescale a document of M/L/C paths onto the 1024-unit canvas."""
    t = canvas_transform(doc.view_box)
    if t.is_identity:
        if doc.view_box == NORMALIZED_VIEW_BOX:
            return doc
        return Document(NORMALIZED_VIEW_BOX, doc.paths, doc.normalized)
    paths = tuple(apply_transform(p, t) for p in doc.paths)
    return Document(NORMALIZED_VIEW_BOX, paths, doc.normalized)


# --- full pipeline ------------------------------------------------------------


#: Deletes the relative letters of path data.
_RELATIVE = str.maketrans("", "", "mlhvcsqtaz")


def drawable_outline(el: Drawable) -> Outline:
    """The outline of a path (:func:`resolve_path`) or a basic shape (:func:`shape_outline`)."""
    return shape_outline(el) if isinstance(el, ShapeElement) else resolve_path(el.ops, el.args)


def element_columns(
    el: Drawable, report: NormalizeReport | None = None
) -> tuple[Outline, tuple[str, list[float]]] | None:
    """The outline of ``el`` and the M/L/C columns of :func:`convert_element`,
    or ``None`` when it drops ``el``; it counts in ``report`` and raises as
    that does."""
    report = NormalizeReport() if report is None else report
    if el.fill == NO_FILL:
        report.count_drop("fill_none")
        return None
    if abs(el.transform.det) < _SINGULAR_EPS:
        report.count_drop("singular_transform")
        return None

    try:
        outline = drawable_outline(el)
    except DegenerateShape:
        report.count_drop("degenerate_shape")
        return None
    if isinstance(el, ShapeElement):
        ops, xy = _shape_columns(el, outline)
        report.count_shape(el.tag)
    else:
        # one per relative argument group; a z has none and counts once
        report.relative_resolved += len(el.ops) - len(el.ops.translate(_RELATIVE))
        ops, xy = _to_mlc(outline, report)

    if not ops.strip("M"):
        report.count_drop("no_geometry")
        return None
    if not el.transform.is_identity:
        xy = _map_columns(el.transform, xy)
        report.transforms_flattened += 1
    return outline, (ops, xy)


def convert_element(
    el: Drawable, report: NormalizeReport | None = None
) -> PathElement | None:
    """Convert one raw drawable to a flattened M/L/C path element.

    Returns ``None`` when the element is dropped under the documented
    rules: explicit ``fill="none"``, degenerate shape, singular transform,
    or no drawing commands after simplification. The same predicate drives
    both normalization and geometric verification.
    """
    kept = element_columns(el, report)
    if kept is None:
        return None
    ops, xy = kept[1]
    return PathElement(fill=_resolved(el.fill), ops=ops, args=xy, is_raw=False)


def _resolved(fill: Paint | None) -> Paint:
    return BLACK if fill is None else fill


#: One normalized path: its M/L/C columns and its fill.
_ColumnPath = tuple[str, list[float], Paint]
_MLC = frozenset("MLC")


def _as_is(doc: Document) -> list[_ColumnPath] | None:
    """The normalized paths, as columns and fill, of a parsed document that
    already is in normalized form, or ``None``.

    That holds for the view box 0 0 1024 1024, at least one path and no
    shape, every path raw with an identity transform, a fill that is
    present and not ``none``, and only absolute M/L/C letters that start
    with M and hold no consecutive or trailing M. The full pipeline then
    adds no offset, fires no Z, collapse or drop rule, maps the canvas by
    the identity and counts nothing, so the same floats are its result.
    """
    if doc.view_box != NORMALIZED_VIEW_BOX or not doc.paths:
        return None
    paths = []
    for el in doc.paths:
        if (not isinstance(el, PathElement) or not el.is_raw or el.fill is None
                or el.fill == NO_FILL or not el.transform.is_identity):
            return None
        ops = el.ops
        if not _MLC.issuperset(ops) or ops[0] != "M" or ops[-1] == "M" or "MM" in ops:
            return None
        paths.append((ops, el.args, el.fill))
    return paths


def _normalized_columns(doc: Document) -> tuple[list[_ColumnPath], NormalizeReport]:
    """Each normalized path of ``doc`` as columns and fill, and the report:
    the one core of :func:`normalize_document` and :func:`normalize_slices`.

    Every drawable is converted (:func:`element_columns`) before any is
    mapped onto the canvas, so errors come in the order the typed steps
    raise them.
    """
    paths = _as_is(doc)
    if paths is not None:
        return paths, NormalizeReport()
    report = NormalizeReport()
    paths = []
    for el in doc.paths:
        kept = element_columns(el, report)
        if kept is not None:
            paths.append((*kept[1], _resolved(el.fill)))
    if not paths:
        raise EmptyDocument("no drawable path survived normalization")

    t = canvas_transform(doc.view_box)
    if not t.is_identity:
        _check_invertible(t)
        paths = [(ops, _map_columns(t, xy), fill) for ops, xy, fill in paths]
    return paths, report


def normalize_document(doc: Document) -> tuple[Document, NormalizeReport]:
    """Run the full unification pipeline over a parsed document.

    Shape conversion, command simplification, transform flattening, canvas
    normalization and fill resolution, in that order. Idempotent up to
    :func:`~svgforge.model.document_equal`. Raises :class:`EmptyDocument`
    when no drawable path survives.

    A document that already is in normalized form (say, a parsed
    ``serialize_document`` output) skips the pipeline: its columns are what
    the pipeline would give, and its report is empty. The paths hold the
    M/L/C columns; their ``commands`` are typed only when read.
    """
    paths, report = _normalized_columns(doc)
    elements = tuple(PathElement(fill=f, ops=ops, args=xy, is_raw=False) for ops, xy, f in paths)
    return Document(NORMALIZED_VIEW_BOX, elements, normalized=True), report


def normalize_slices(doc: Document) -> tuple[list[tuple[str, str]], NormalizeReport]:
    """The ``(d, fill)`` attribute texts that
    ``serialize_document(normalize_document(doc)[0])`` writes for each path,
    and the report, without building a path element.

    It raises what :func:`normalize_document` raises, in the same order.
    """
    paths, report = _normalized_columns(doc)
    return [path_slice(ops, xy, fill) for ops, xy, fill in paths], report


def normalize_text(text) -> tuple[list[tuple[str, str]], NormalizeReport, bool]:
    """The ``(d, fill)`` slices that ``normalize`` writes for SVG ``text``,
    the report, and whether ``text`` already is their canonical
    serialization up to surrounding whitespace.

    Canonical text (:func:`~svgforge.parser.canonical_paths`) gives its own
    slices and an empty report, as its parse would (:func:`_as_is`). Other
    text is parsed and its slices normalized (:func:`normalize_slices`); it
    raises what those raise.
    """
    paths = canonical_paths(text)
    if paths is not None:
        return paths, NormalizeReport(), True
    paths, report = normalize_slices(parse_document(text)[0])
    return paths, report, serialize_paths(paths) == text.strip()
