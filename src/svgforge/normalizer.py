"""Path unification: everything becomes absolute M/L/C on a 1024 canvas.

The pipeline per drawable: shapes are rewritten as path commands, raw path
data of either relativity is made absolute and simplified to the
MoveTo/LineTo/CubicTo alphabet in one walk, element transforms are
flattened into coordinates, and the whole canvas is mapped onto
(0, 0, 1024, 1024). Every conversion preserves segment
endpoints exactly; curved conversions stay within a tight analytic error
bound (arcs are split at 90 degrees, worst-case radial error about
2.7e-4 of the radius).

From the segment walk on, a path is carried as columns: one opcode string
such as ``"MLCC"`` and one flat float list, 2 numbers per M or L and 6 per
C (:mod:`svgforge.model`). The command mapping (``_to_mlc``), the element
transform and the canvas map (both ``_map_columns``) all work on them, and
each raises :class:`ValidationError` for the first non-finite coordinate
in coordinate order, as building M/L/C commands one by one would.
:func:`normalize_slices` formats the columns into ``(d, fill)`` text, which
is what the CLI writes, and builds no command object;
:func:`normalize_document` types them as MoveTo/LineTo/CubicTo once, for
library callers. The typed public functions (:func:`convert_element`,
:func:`simplify_commands`, :func:`apply_transform`,
:func:`normalize_canvas`, :func:`shape_to_path` and
:func:`arc_to_cubics`) are thin wrappers over the same column code.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields

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
    COMMAND_TYPES,
    IDENTITY,
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
from .parser import path_slice

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


# --- raw command walk -------------------------------------------------------


def _walk(cmds: Iterable[RawCommand | PathCommand]):
    """Resolve raw or typed M/L/C commands, one argument group at a time.

    Yields ``(opcode, args, p0, p1)``: the uppercase opcode, its absolute
    argument group, and the current point before and after it (``p0`` is
    ``None`` for the leading moveto). A typed command reads as the absolute
    raw command of its opcode. This is the one place that tracks a current
    point: relative offsets, a leading ``m`` read as absolute, repeated
    moveto groups as linetos, and Z's return to the subpath start. Raises
    :class:`NoCurrentPoint` for a command before any moveto and
    :class:`ValidationError` when an offset overflows.
    """
    cur = start = None
    for cmd in cmds:
        op, rel = cmd.opcode.upper(), cmd.is_relative
        for group in cmd.groups():
            p0 = cur
            if p0 is None:
                if op != "M":
                    where = f"relative {cmd.opcode!r}" if rel else op
                    raise NoCurrentPoint(f"{where} before any MoveTo")
            elif op != "Z" and (rel or op in ("H", "V")):
                # an absolute H/V adds 0.0 too, so -0 comes out as 0
                dx, dy = (p0.x, p0.y) if rel else (0.0, 0.0)
                if op == "V":
                    group = (group[0] + dy,)
                else:
                    k = 5 if op == "A" else 0  # an arc offsets its endpoint only
                    group = group[:k] + tuple(
                        v + (dy if i % 2 else dx) for i, v in enumerate(group[k:])
                    )
                _require_finite(*group)
            if op == "H":
                cur = Point(group[0], p0.y)
            elif op == "V":
                cur = Point(p0.x, group[0])
            elif op == "Z":
                cur = start
            else:
                cur = Point(group[-2], group[-1])
            yield op, group, p0, cur
            if op == "M":
                start = cur
                op = "L"  # repeated moveto groups are implicit linetos


def to_absolute(cmds: Iterable[RawCommand | PathCommand]) -> list[RawCommand]:
    """Rewrite raw or typed M/L/C commands as absolute raw ones, one group each.

    Current-point bookkeeping follows SVG semantics: Z returns the current
    point to the subpath start, and a leading ``m`` is absolute. H/V/S/T
    keep their opcodes. Raises :class:`NoCurrentPoint` when a command
    requires a current point that does not exist yet.
    """
    return [RawCommand(op, args) for op, args, _, _ in _walk(cmds)]


# --- segment walk -----------------------------------------------------------


def _reflect(ctrl: Point | None, cur: Point) -> Point:
    # S/T implicit control point: the previous one mirrored about cur, else cur
    if ctrl is None:
        return cur
    return Point(2.0 * cur.x - ctrl.x, 2.0 * cur.y - ctrl.y)


def iter_segments(cmds: Iterable[RawCommand | PathCommand]):
    """Walk raw commands of either relativity, or typed M/L/C, as segments.

    Yields ``("M", p)``, ``("L", p0, p1)``, ``("C", p0, c1, c2, p1)``,
    ``("Q", p0, q, p1)``, ``("A", p0, rx, ry, rot, large_arc, sweep, p1)``
    and ``("Z", cur, start)``. On top of the current-point rules of the
    shared walk (the same one behind :func:`to_absolute`), H/V are
    projected onto lines and S/T get their reflected control point.
    """
    last_c2: Point | None = None
    last_q: Point | None = None
    for op, args, p0, p1 in _walk(cmds):
        next_c2 = next_q = None
        if op in ("L", "H", "V"):
            yield ("L", p0, p1)
        elif op in ("C", "S"):
            c1 = Point(args[0], args[1]) if op == "C" else _reflect(last_c2, p0)
            next_c2 = Point(args[-4], args[-3])
            yield ("C", p0, c1, next_c2, p1)
        elif op in ("Q", "T"):
            next_q = Point(args[0], args[1]) if op == "Q" else _reflect(last_q, p0)
            yield ("Q", p0, next_q, p1)
        elif op == "M":
            yield ("M", p1)
        elif op == "A":
            yield ("A", p0, *args[:5], p1)
        else:  # Z
            yield ("Z", p0, p1)
        last_c2, last_q = next_c2, next_q


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


def _require_finite_columns(xy: list[float]) -> None:
    # the first non-finite value raises, as the typed constructors would
    if not all(map(math.isfinite, xy)):
        _require_finite(*xy)


def _to_mlc(segments, report: NormalizeReport) -> tuple[str, list[float]]:
    """Map typed segments (those of :func:`iter_segments`) to M/L/C columns.

    Q is degree-elevated exactly, arcs become the cubics of
    :func:`arc_to_cubics`, and Z materializes as a LineTo back to the subpath start unless the
    current point is already there. Runs of MoveTo collapse to the last
    one and a trailing MoveTo is dropped, so empty subpaths leave no
    residue.

    Raises :class:`ValidationError` for the first non-finite coordinate,
    ahead of any error that a later segment raises, as building the
    commands one by one would; values are checked once, at the end or on
    that error.
    """
    ops: list[str] = []
    xy: list[float] = []
    try:
        for seg in segments:
            kind = seg[0]
            if kind == "L":
                ops.append("L")
                xy += seg[2]
            elif kind == "C":
                ops.append("C")
                xy += (*seg[2], *seg[3], *seg[4])
            elif kind == "Q":
                # exact degree elevation: c = p + (2/3)(q - p)
                _, p0, q, p1 = seg
                ops.append("C")
                xy += (p0.x + 2.0 * (q.x - p0.x) / 3.0, p0.y + 2.0 * (q.y - p0.y) / 3.0,
                       p1.x + 2.0 * (q.x - p1.x) / 3.0, p1.y + 2.0 * (q.y - p1.y) / 3.0,
                       p1.x, p1.y)
            elif kind == "M":
                if ops and ops[-1] == "M":
                    ops.pop()
                    del xy[-2:]
                ops.append("M")
                xy += seg[1]
            elif kind == "A":
                _arc_columns(ops, xy, *seg[1:])
                report.arcs_converted += 1
            else:  # Z
                _, cur, start = seg
                if max(abs(cur.x - start.x), abs(cur.y - start.y)) > _CLOSE_EPS:
                    ops.append("L")
                    xy += start
                    report.closures_materialized += 1
    except Exception:
        _require_finite_columns(xy)
        raise
    _require_finite_columns(xy)

    if ops and ops[-1] == "M":
        ops.pop()
        del xy[-2:]
    return "".join(ops), xy


def simplify_commands(
    cmds: Iterable[RawCommand | PathCommand],
    report: NormalizeReport | None = None,
) -> list[PathCommand]:
    """Reduce raw commands of either relativity, or typed M/L/C, to M/L/C.

    The segments of :func:`iter_segments`, mapped by the one segment to
    M/L/C rule that :func:`shape_to_path` uses too.
    """
    report = NormalizeReport() if report is None else report
    return list(typed_commands(*_to_mlc(iter_segments(cmds), report)))


# --- shape conversion -------------------------------------------------------


def shape_segments(element: ShapeElement) -> list[tuple]:
    """A basic shape as the typed segments of :func:`iter_segments`.

    SVG defines every basic shape as an equivalent path (SVG 1.1, 9.1), so
    a shape is ``("M", p)``, ``("L", p0, p1)`` lines and ``("A", p0, rx, ry,
    0.0, False, True, p1)`` quarter arcs: a rect runs clockwise from its
    top edge, with an arc per rounded corner and no line where a pill's
    corners meet; an ellipse is four arcs from its rightmost point; a
    polygon closes with a line to its first point unless it is already
    there. A missing rect radius takes the value of the other (both
    missing is a sharp corner), then each is clamped to half its side.

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
                Point(x + rx, y), Point(x + w - rx, y), Point(x + w, y + ry),
                Point(x + w, y + h - ry), Point(x + w - rx, y + h), Point(x + rx, y + h),
                Point(x, y + h - ry), Point(x, y + ry), Point(x + rx, y),
            )
            segs: list[tuple] = [("M", ring[0])]
            for a, b, c in zip(ring[0:8:2], ring[1::2], ring[2::2]):
                if a != b:
                    segs.append(("L", a, b))
                segs.append(("A", b, rx, ry, 0.0, False, True, c))
            return segs
        points = (Point(x, y), Point(x + w, y), Point(x + w, y + h), Point(x, y + h), Point(x, y))
    elif tag in ("circle", "ellipse"):
        rx, ry = (get("r"), get("r")) if tag == "circle" else (get("rx"), get("ry"))
        if rx <= 0 or ry <= 0:
            raise DegenerateShape(f"{tag} {rx}x{ry}")
        cx, cy = get("cx"), get("cy")
        ring = (Point(cx + rx, cy), Point(cx, cy + ry), Point(cx - rx, cy),
                Point(cx, cy - ry), Point(cx + rx, cy))
        return [("M", ring[0])] + [
            ("A", a, rx, ry, 0.0, False, True, b) for a, b in zip(ring, ring[1:])
        ]
    elif tag == "line":
        points = (Point(get("x1"), get("y1")), Point(get("x2"), get("y2")))
    else:  # polyline / polygon
        points = get("points", ())
        if not isinstance(points, tuple) or len(points) < 2:
            raise DegenerateShape(f"{tag} with fewer than 2 points")
        if tag == "polygon" and points[-1] != points[0]:
            points += (points[0],)
    return [("M", points[0])] + [("L", a, b) for a, b in zip(points, points[1:])]


def _shape_columns(element: ShapeElement) -> tuple[str, list[float]]:
    """The M/L/C columns of :func:`shape_to_path`."""
    segments = shape_segments(element)
    if element.tag not in ("circle", "ellipse"):
        return _to_mlc(segments, NormalizeReport())
    _, _, rx, ry, *_ = segments[1]
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

    Maps :func:`shape_segments` to M/L/C as :func:`simplify_commands` maps
    raw path data, so rect corners become 90-degree arc cubics. Circles
    and ellipses instead take four cubics with the handle ``KAPPA`` times
    each radius, written directly from the center: for an axis-aligned
    quarter this is what :func:`arc_to_cubics` computes, without the
    rounding of a center recovered from the endpoints, so every control
    point is exact. Raises :class:`DegenerateShape` as
    :func:`shape_segments` does.
    """
    return PathElement(typed_commands(*_shape_columns(element)), element.fill, element.transform)


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
    ops, xy = command_columns(path.commands)
    return PathElement(typed_commands(ops, _map_columns(m, xy)), path.fill, path.transform)


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


def element_columns(
    el: Drawable, report: NormalizeReport | None = None
) -> tuple[str, list[float]] | None:
    """The M/L/C columns of :func:`convert_element`, or ``None`` when it
    drops ``el``; it counts in ``report`` and raises as that does."""
    if report is None:
        report = NormalizeReport()
    if el.fill == NO_FILL:
        report.count_drop("fill_none")
        return None
    if abs(el.transform.det) < _SINGULAR_EPS:
        report.count_drop("singular_transform")
        return None

    if isinstance(el, ShapeElement):
        try:
            ops, xy = _shape_columns(el)
        except DegenerateShape:
            report.count_drop("degenerate_shape")
            return None
        report.count_shape(el.tag)
    else:
        # one per argument group of each relative command; a z has none and counts once
        report.relative_resolved += sum(
            len(c.args) // PARAM_COUNTS[c.opcode.upper()] if c.args else 1
            for c in el.commands if c.opcode.islower())
        ops, xy = _to_mlc(iter_segments(el.commands), report)

    if not ops.strip("M"):
        report.count_drop("no_geometry")
        return None
    if not el.transform.is_identity:
        xy = _map_columns(el.transform, xy)
        report.transforms_flattened += 1
    return ops, xy


def convert_element(
    el: Drawable, report: NormalizeReport | None = None
) -> PathElement | None:
    """Convert one raw drawable to a flattened M/L/C path element.

    Returns ``None`` when the element is dropped under the documented
    rules: explicit ``fill="none"``, degenerate shape, singular transform,
    or no drawing commands after simplification. The same predicate drives
    both normalization and geometric verification.
    """
    columns = element_columns(el, report)
    if columns is None:
        return None
    return PathElement(typed_commands(*columns), _resolved(el.fill), IDENTITY)


def _resolved(fill: Paint | None) -> Paint:
    return BLACK if fill is None else fill


#: One normalized path: its M/L/C columns and its fill.
_ColumnPath = tuple[str, list[float], Paint]


def _as_is(doc: Document) -> list[_ColumnPath] | None:
    """The normalized paths, as columns and fill, of a parsed document that
    already is in normalized form, or ``None``.

    That holds for the view box 0 0 1024 1024, at least one path and no
    shape, every path with an identity transform, a fill that is present
    and not ``none``, and only absolute M/L/C raw commands of one argument
    group each that start with M and hold no consecutive or trailing M.
    The full pipeline then adds no offset, fires no Z, collapse or drop
    rule, maps the canvas by the identity and counts nothing, so the same
    floats are its result.
    """
    if doc.view_box != NORMALIZED_VIEW_BOX or not doc.paths:
        return None
    paths = []
    for el in doc.paths:
        if (not isinstance(el, PathElement) or el.fill is None or el.fill == NO_FILL
                or not el.transform.is_identity):
            return None
        opcodes: list[str] = []
        xy: list[float] = []
        for cmd in el.commands:
            if (not isinstance(cmd, RawCommand) or cmd.opcode not in COMMAND_TYPES
                    or len(cmd.args) != PARAM_COUNTS[cmd.opcode]):
                return None
            opcodes.append(cmd.opcode)
            xy += cmd.args
        ops = "".join(opcodes)
        if not ops.startswith("M") or ops.endswith("M") or "MM" in ops:
            return None
        paths.append((ops, xy, el.fill))
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
        columns = element_columns(el, report)
        if columns is not None:
            paths.append((*columns, _resolved(el.fill)))
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
    ``serialize_document`` output) skips the pipeline: its M/L/C commands
    are typed from the same floats, which is what the pipeline would give,
    and its report is empty. The commands are typed once, from the
    columns the pipeline works on (module docstring).
    """
    paths, report = _normalized_columns(doc)
    typed = tuple(PathElement(typed_commands(ops, xy), fill) for ops, xy, fill in paths)
    return Document(NORMALIZED_VIEW_BOX, typed, normalized=True), report


def normalize_slices(doc: Document) -> tuple[list[tuple[str, str]], NormalizeReport]:
    """The ``(d, fill)`` attribute texts that
    ``serialize_document(normalize_document(doc)[0])`` writes for each path,
    and the report, without typing a command.

    It raises what :func:`normalize_document` raises, in the same order.
    """
    paths, report = _normalized_columns(doc)
    return [path_slice(ops, xy, fill) for ops, xy, fill in paths], report
