import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    colored_icons,
    full_corpus,
    random_normalized_document,
    random_raw_svg,
    write_corpus,
)
from svgforge import normalizer
from svgforge.errors import (
    DegenerateShape,
    EmptyDocument,
    NoCurrentPoint,
    SingularTransform,
    ValidationError,
)
from svgforge.model import (
    AffineTransform,
    BLACK,
    CubicTo,
    Document,
    Hex,
    IDENTITY,
    LineTo,
    MoveTo,
    NORMALIZED_VIEW_BOX,
    PathElement,
    Point,
    RawCommand,
    ShapeElement,
    document_equal,
)
from svgforge.normalizer import (
    KAPPA,
    NormalizeReport,
    apply_transform,
    arc_center,
    arc_to_cubics,
    canvas_transform,
    iter_segments,
    normalize_canvas,
    normalize_document,
    normalize_slices,
    shape_segments,
    shape_to_path,
    simplify_commands,
    to_absolute,
)
from svgforge.parser import parse_document, serialize_document, serialize_paths
from svgforge.pipeline import EXIT_OK, run_normalize
from svgforge.rewards import integrity_indicator
from svgforge.verifier import sample_outline, verify_normalization


def cubic_at(p0, c1, c2, p1, t):
    s = 1 - t
    return Point(
        s**3 * p0.x + 3 * s * s * t * c1.x + 3 * s * t * t * c2.x + t**3 * p1.x,
        s**3 * p0.y + 3 * s * s * t * c1.y + 3 * s * t * t * c2.y + t**3 * p1.y,
    )


def quad_at(p0, q, p1, t):
    s = 1 - t
    return Point(
        s * s * p0.x + 2 * s * t * q.x + t * t * p1.x,
        s * s * p0.y + 2 * s * t * q.y + t * t * p1.y,
    )


class TestToAbsolute:
    def test_relative_offsets(self):
        out = to_absolute([RawCommand("m", (10, 10)), RawCommand("l", (5, 0))])
        assert [(c.opcode, c.args) for c in out] == [("M", (10, 10)), ("L", (15, 10))]

    def test_h_kept_absolute_pending_simplify(self):
        out = to_absolute([RawCommand("M", (10, 10)), RawCommand("h", (5,))])
        assert [(c.opcode, c.args) for c in out] == [("M", (10, 10)), ("H", (15,))]

    def test_z_resets_current_point(self):
        out = to_absolute(
            [RawCommand("M", (10, 10)), RawCommand("l", (5, 5)),
             RawCommand("z"), RawCommand("l", (1, 1))]
        )
        assert (out[-1].opcode, out[-1].args) == ("L", (11, 11))

    def test_relative_before_moveto(self):
        with pytest.raises(NoCurrentPoint):
            to_absolute([RawCommand("l", (1, 1))])

    def test_relative_curve_offsets_all_pairs(self):
        out = to_absolute([RawCommand("M", (10, 20)), RawCommand("c", (1, 2, 3, 4, 5, 6))])
        assert out[1].args == (11, 22, 13, 24, 15, 26)

    def test_relative_arc_offsets_endpoint_only(self):
        out = to_absolute([RawCommand("M", (10, 20)), RawCommand("a", (5, 6, 30, 1, 0, 7, 8))])
        assert out[1].args == (5, 6, 30, 1, 0, 17, 28)

    def test_multigroup_input_splits(self):
        out = to_absolute([RawCommand("M", (0, 0)), RawCommand("l", (1, 1, 2, 2))])
        assert [(c.opcode, c.args) for c in out] == [
            ("M", (0, 0)), ("L", (1, 1)), ("L", (3, 3)),
        ]

    def test_multigroup_moveto_is_implicit_lineto(self):
        out = to_absolute([RawCommand("m", (10, 10, 5, 5))])
        assert [(c.opcode, c.args) for c in out] == [("M", (10, 10)), ("L", (15, 15))]

    def test_multigroup_moveto_simplifies_to_lineto(self):
        out = simplify_commands([RawCommand("M", (0, 0, 7, 7))])
        assert out == [MoveTo(Point(0, 0)), LineTo(Point(7, 7))]


_ARITY = {"M": 2, "L": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "T": 2, "A": 7, "Z": 0}
# small integers make coincident points (closed subpaths, zero-length arcs) likely
_walk_coord = st.one_of(st.integers(-20, 20).map(float), st.floats(-1e4, 1e4))
_walk_radius = st.one_of(st.just(0.0), st.floats(1e-6, 400))


@st.composite
def _raw_command(draw, opcodes="MLHVCSQTAZ"):
    upper = draw(st.sampled_from(opcodes))
    groups = 1 if upper == "Z" else draw(st.integers(1, 3))
    args: tuple[float, ...] = ()
    for _ in range(groups):
        if upper == "A":
            # radii far below 1e-100 make arc_center overflow or return NaN
            rx, ry = draw(_walk_radius), draw(_walk_radius)
            flags = (float(draw(st.booleans())), float(draw(st.booleans())))
            rot = draw(st.floats(-360, 360))
            args += (rx, ry, rot, *flags, draw(_walk_coord), draw(_walk_coord))
        else:
            args += tuple(draw(_walk_coord) for _ in range(_ARITY[upper]))
    return RawCommand(upper.lower() if draw(st.booleans()) else upper, args)


_raw_paths = st.builds(
    lambda first, rest: [first, *rest],
    _raw_command("M"),
    st.lists(_raw_command(), max_size=12),
)


class TestOneWalk:
    """``to_absolute`` and ``iter_segments`` share one current-point walk, so
    resolving relative commands first changes nothing downstream."""

    @settings(max_examples=400, deadline=None)
    @given(_raw_paths)
    def test_raw_input_walks_like_its_absolute_form(self, cmds):
        absolute = to_absolute(cmds)
        assert list(iter_segments(cmds)) == list(iter_segments(absolute))
        assert simplify_commands(cmds) == simplify_commands(absolute)

    def test_typed_path_walks_like_its_raw_text(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 10 10"><path d="M1 2L3 4C5 6 7 8 9 1M2 3L4.5 6"/></svg>'
        )
        p = Point
        typed = [MoveTo(p(1, 2)), LineTo(p(3, 4)), CubicTo(p(5, 6), p(7, 8), p(9, 1)),
                 MoveTo(p(2, 3)), LineTo(p(4.5, 6))]
        expected = [("M", p(1, 2)), ("L", p(1, 2), p(3, 4)),
                    ("C", p(3, 4), p(5, 6), p(7, 8), p(9, 1)),
                    ("M", p(2, 3)), ("L", p(2, 3), p(4.5, 6))]
        assert list(iter_segments(typed)) == expected
        assert list(iter_segments(doc.paths[0].commands)) == expected

    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("opcode", list("LHVCSQTAZ"))
    def test_no_current_point_before_moveto(self, opcode, relative):
        args = (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0)[: _ARITY[opcode]]
        cmds = [RawCommand(opcode.lower() if relative else opcode, args),
                RawCommand("M", (0.0, 0.0))]
        for walk in (to_absolute, simplify_commands, lambda c: list(iter_segments(c))):
            with pytest.raises(NoCurrentPoint):
                walk(cmds)

    @pytest.mark.parametrize(
        "d", ["M1e308 0 l1e308 0", "M1e308 0 c1e308 0 -1e308 0 -1e308 0"]
    )
    def test_overflowing_offset_is_invalid(self, d):
        doc, _ = parse_document(f'<svg viewBox="0 0 10 10"><path d="{d}"/></svg>')
        el = doc.paths[0]
        for stage in (
            lambda: to_absolute(el.commands),
            lambda: simplify_commands(el.commands),
            lambda: sample_outline(el),
            lambda: normalize_document(doc),
        ):
            with pytest.raises(ValidationError, match="non-finite"):
                stage()


class TestSimplify:
    def test_h_projection(self):
        out = simplify_commands([RawCommand("M", (0, 0)), RawCommand("H", (10,))])
        assert out == [MoveTo(Point(0, 0)), LineTo(Point(10, 0))]

    def test_quadratic_elevation_exact_values(self):
        out = simplify_commands([RawCommand("M", (0, 0)), RawCommand("Q", (5, 10, 10, 0))])
        cubic = out[1]
        expected = CubicTo(Point(10 / 3, 20 / 3), Point(20 / 3, 20 / 3), Point(10, 0))
        for got, want in zip(
            (*cubic.c1, *cubic.c2, *cubic.end), (*expected.c1, *expected.c2, *expected.end)
        ):
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_quadratic_elevation_matches_curve(self):
        # independent oracle: sampled quadratic equals the elevated cubic
        p0, q, p1 = Point(0, 0), Point(5, 10), Point(10, 0)
        out = simplify_commands([RawCommand("M", (0, 0)), RawCommand("Q", (5, 10, 10, 0))])
        cubic = out[1]
        for t in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            expected = quad_at(p0, q, p1, t)
            actual = cubic_at(p0, cubic.c1, cubic.c2, cubic.end, t)
            assert math.hypot(actual.x - expected.x, actual.y - expected.y) < 1e-9

    def test_closure_materialized(self):
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("L", (10, 0)), RawCommand("Z")]
        )
        assert out == [MoveTo(Point(0, 0)), LineTo(Point(10, 0)), LineTo(Point(0, 0))]

    def test_closure_dropped_when_already_closed(self):
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("L", (10, 0)),
             RawCommand("L", (0, 0)), RawCommand("Z")]
        )
        assert out == [MoveTo(Point(0, 0)), LineTo(Point(10, 0)), LineTo(Point(0, 0))]

    def test_smooth_cubic_reflection(self):
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("C", (0, 5, 5, 10, 10, 10)),
             RawCommand("S", (20, 5, 20, 0))]
        )
        # c1 of S = reflection of previous c2 (5,10) about current point (10,10)
        assert out[2].c1 == Point(15, 10)

    def test_smooth_after_non_curve_uses_current_point(self):
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("L", (10, 10)),
             RawCommand("S", (20, 5, 20, 0))]
        )
        assert out[2].c1 == Point(10, 10)

    def test_smooth_quad_reflection_chain(self):
        p0, q0, p1 = Point(0, 0), Point(5, 10), Point(10, 0)
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("Q", (5, 10, 10, 0)),
             RawCommand("T", (20, 0))]
        )
        # reflected control: 2*(10,0) - (5,10) = (15,-10)
        reflected = Point(15, -10)
        cubic = out[2]
        for t in (0.25, 0.5, 0.75):
            expected = quad_at(p1, reflected, Point(20, 0), t)
            actual = cubic_at(p1, cubic.c1, cubic.c2, cubic.end, t)
            assert math.hypot(actual.x - expected.x, actual.y - expected.y) < 1e-9

    def test_consecutive_movetos_collapse(self):
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("M", (5, 5)), RawCommand("L", (9, 9))]
        )
        assert out == [MoveTo(Point(5, 5)), LineTo(Point(9, 9))]

    def test_trailing_moveto_dropped(self):
        out = simplify_commands(
            [RawCommand("M", (0, 0)), RawCommand("L", (1, 1)), RawCommand("M", (5, 5))]
        )
        assert out == [MoveTo(Point(0, 0)), LineTo(Point(1, 1))]

    def test_alphabet_closure_on_corpus(self):
        for name, text in full_corpus().items():
            doc, _ = parse_document(text)
            for el in doc.paths:
                if isinstance(el, PathElement) and el.is_raw:
                    out = simplify_commands(to_absolute(el.commands))
                    assert all(
                        isinstance(c, (MoveTo, LineTo, CubicTo)) for c in out
                    ), name


class TestArcToCubics:
    def test_quarter_circle_constant(self):
        segs = arc_to_cubics(Point(1, 0), 1, 1, 0, 0, 1, Point(0, 1))
        assert len(segs) == 1
        k = 4 / 3 * math.tan(math.pi / 8)
        c = segs[0]
        assert math.isclose(c.c1.x, 1) and math.isclose(c.c1.y, k, rel_tol=1e-12)
        assert math.isclose(c.c2.x, k, rel_tol=1e-12) and math.isclose(c.c2.y, 1)
        assert c.end == Point(0, 1)

    def test_degenerate_radius_is_line(self):
        assert arc_to_cubics(Point(0, 0), 0, 5, 0, 0, 1, Point(3, 4)) == [
            LineTo(Point(3, 4))
        ]

    def test_identical_endpoints_omitted(self):
        assert arc_to_cubics(Point(1, 1), 5, 5, 0, 1, 1, Point(1, 1)) == []

    def test_half_circle_two_segments(self):
        segs = arc_to_cubics(Point(1, 0), 1, 1, 0, 0, 1, Point(-1, 0))
        assert len(segs) == 2
        junction = segs[0].end
        assert abs(math.hypot(junction.x, junction.y) - 1) < 1e-9
        assert segs[-1].end == Point(-1, 0)

    def test_endpoints_exact_all_flag_combos(self):
        start, end = Point(10, 20), Point(42, 7)
        for large in (0, 1):
            for sweep in (0, 1):
                segs = arc_to_cubics(start, 30, 18, 25, large, sweep, end)
                assert segs[-1].end == end

    def test_radial_error_bound(self):
        # unit quarter arc: max radial deviation of the cubic < 3e-4
        segs = arc_to_cubics(Point(1, 0), 1, 1, 0, 0, 1, Point(0, 1))
        c = segs[0]
        worst = 0.0
        for i in range(2001):
            t = i / 2000
            p = cubic_at(Point(1, 0), c.c1, c.c2, c.end, t)
            worst = max(worst, abs(math.hypot(p.x, p.y) - 1.0))
        assert worst < 3e-4

    def test_out_of_range_radii_scaled(self):
        # radii too small to span the endpoints get scaled up uniformly
        segs = arc_to_cubics(Point(0, 0), 1, 1, 0, 0, 1, Point(10, 0))
        assert segs[-1].end == Point(10, 0)
        mid = cubic_at(Point(0, 0), segs[0].c1, segs[0].c2, segs[0].end, 0.5)
        assert abs(mid.y) > 1  # actually curved, not collapsed

    @pytest.mark.parametrize("sweep", [0, 1])
    def test_full_turn_large_arc(self, sweep):
        # a large arc whose endpoints nearly coincide is a whole circle either way
        doc, _ = parse_document(
            '<svg viewBox="0 0 1024 1024">'
            f'<path d="M500 500A100 100 0 1 {sweep} 500.000001 500Z"/></svg>'
        )
        norm, _ = normalize_document(doc)
        xs = [c.end.x for c in norm.paths[0].commands]
        assert max(xs) - min(xs) == pytest.approx(200.0, abs=1e-3)


_coord = st.floats(-500, 500, allow_nan=False)
_radius = st.floats(0.01, 400, allow_nan=False)


class TestArcCenter:
    """Properties of the one endpoint-to-center conversion behind both the
    arc converter and the verifier's analytic arc sampling."""

    @settings(max_examples=400, deadline=None)
    @given(_coord, _coord, _coord, _coord, _radius, _radius,
           st.floats(-720, 720, allow_nan=False), st.booleans(), st.booleans())
    def test_center_parameterization(self, x0, y0, x1, y1, rx, ry, rot, large, sweep):
        start, end = Point(x0, y0), Point(x1, y1)
        assume(math.hypot(x1 - x0, y1 - y0) > 1e-6)
        # the radius scale factor squared, from the rotated half chord
        phi = math.radians(rot % 360.0)
        hx, hy = (x0 - x1) / 2.0, (y0 - y1) / 2.0
        lam = ((math.cos(phi) * hx + math.sin(phi) * hy) / rx) ** 2 + (
            (-math.sin(phi) * hx + math.cos(phi) * hy) / ry
        ) ** 2
        assume(abs(lam - 1.0) > 1e-6)

        cx, cy, arx, ary, aphi, theta1, delta = arc_center(
            start, rx, ry, rot, large, sweep, end
        )
        scale = max(1.0, arx, ary, *map(abs, (x0, y0, x1, y1)))

        def at(theta):
            ct, st_ = math.cos(theta), math.sin(theta)
            return Point(
                cx + arx * ct * math.cos(aphi) - ary * st_ * math.sin(aphi),
                cy + arx * ct * math.sin(aphi) + ary * st_ * math.cos(aphi),
            )

        # the angles come from acos, which keeps only about half its digits
        # next to 0 and pi: there they are good to about sqrt(eps)
        def near_half_turns(a):
            return min(abs(a) % math.pi, math.pi - abs(a) % math.pi) <= 1e-6

        tol = 1e-7 if near_half_turns(theta1) or near_half_turns(delta) else 1e-9
        for p, q in ((at(theta1), start), (at(theta1 + delta), end)):
            assert math.hypot(p.x - q.x, p.y - q.y) <= tol * scale
        assert (delta > 0) == sweep
        if lam < 1.0:
            assert (abs(delta) > math.pi) == large
            assert (arx, ary) == (rx, ry)
        else:  # radii scaled up until the chord is a diameter: a half turn
            assert abs(abs(delta) - math.pi) < 1e-6
            assert arx / rx == pytest.approx(math.sqrt(lam), rel=1e-12)


class TestShapeToPath:
    def test_rect_exact(self):
        el = ShapeElement(
            "rect", (("x", 0.0), ("y", 0.0), ("width", 10.0), ("height", 10.0)), Hex("000000")
        )
        path = shape_to_path(el)
        assert list(path.commands) == [
            MoveTo(Point(0, 0)), LineTo(Point(10, 0)), LineTo(Point(10, 10)),
            LineTo(Point(0, 10)), LineTo(Point(0, 0)),
        ]

    def test_circle_four_cubics(self):
        el = ShapeElement("circle", (("cx", 0.0), ("cy", 0.0), ("r", 1.0)), Hex("000000"))
        cmds = list(shape_to_path(el).commands)
        assert isinstance(cmds[0], MoveTo) and cmds[0].end == Point(1, 0)
        assert len(cmds) == 5
        k = KAPPA
        assert cmds[1] == CubicTo(Point(1, k), Point(k, 1), Point(0, 1))
        assert cmds[2] == CubicTo(Point(-k, 1), Point(-1, k), Point(-1, 0))
        assert cmds[3] == CubicTo(Point(-1, -k), Point(-k, -1), Point(0, -1))
        assert cmds[4] == CubicTo(Point(k, -1), Point(1, -k), Point(1, 0))

    def test_circle_radial_deviation(self):
        # the tangent-handle construction peaks at ~2.725e-4 of the radius
        el = ShapeElement("circle", (("cx", 0.0), ("cy", 0.0), ("r", 1.0)), Hex("000000"))
        cmds = list(shape_to_path(el).commands)
        cur = cmds[0].end
        worst = 0.0
        for c in cmds[1:]:
            for i in range(501):
                p = cubic_at(cur, c.c1, c.c2, c.end, i / 500)
                worst = max(worst, abs(math.hypot(p.x, p.y) - 1.0))
            cur = c.end
        assert worst < 3e-4

    def test_polygon_closure(self):
        el = ShapeElement(
            "polygon", (("points", (Point(0, 0), Point(10, 0), Point(5, 10))),), Hex("000000")
        )
        assert list(shape_to_path(el).commands) == [
            MoveTo(Point(0, 0)), LineTo(Point(10, 0)), LineTo(Point(5, 10)), LineTo(Point(0, 0)),
        ]

    def test_line_and_polyline(self):
        line = ShapeElement("line", (("x1", 1.0), ("y1", 2.0), ("x2", 3.0), ("y2", 4.0)))
        assert list(shape_to_path(line).commands) == [MoveTo(Point(1, 2)), LineTo(Point(3, 4))]
        poly = ShapeElement("polyline", (("points", (Point(0, 0), Point(1, 0), Point(1, 1))),))
        assert list(shape_to_path(poly).commands) == [
            MoveTo(Point(0, 0)), LineTo(Point(1, 0)), LineTo(Point(1, 1)),
        ]

    def test_rounded_rect_on_corner_ellipse(self):
        el = ShapeElement(
            "rect",
            (("x", 0.0), ("y", 0.0), ("width", 40.0), ("height", 20.0), ("rx", 5.0), ("ry", 8.0)),
            Hex("000000"),
        )
        cmds = list(shape_to_path(el).commands)
        assert isinstance(cmds[0], MoveTo) and cmds[0].end == Point(5, 0)
        # corner cubic endpoints land exactly on the corner ellipse
        cur = cmds[0].end
        for c in cmds[1:]:
            if isinstance(c, CubicTo):
                for t in (0.25, 0.5, 0.75):
                    p = cubic_at(cur, c.c1, c.c2, c.end, t)
                    assert -1e-9 <= p.x <= 40 + 1e-9 and -1e-9 <= p.y <= 20 + 1e-9
            cur = c.end
        assert cur == Point(5, 0)  # closed exactly

    def test_rx_clamped_to_half(self):
        el = ShapeElement(
            "rect",
            (("x", 0.0), ("y", 0.0), ("width", 10.0), ("height", 10.0), ("rx", 50.0)),
            Hex("000000"),
        )
        cmds = list(shape_to_path(el).commands)
        assert cmds[0].end == Point(5, 0)

    @pytest.mark.parametrize(
        "tag,params",
        [
            ("rect", (("width", 0.0), ("height", 5.0))),
            ("rect", (("width", 5.0), ("height", -1.0))),
            ("circle", (("r", 0.0),)),
            ("ellipse", (("rx", 1.0), ("ry", 0.0))),
            ("polyline", (("points", (Point(0, 0),)),)),
        ],
    )
    def test_degenerate_shapes(self, tag, params):
        with pytest.raises(DegenerateShape):
            shape_to_path(ShapeElement(tag, params))


class TestShapeSegments:
    """Explicit values of the one shape outline shared by normalizer and verifier."""

    QUARTER = (0.0, False, True)  # rotation, large-arc flag, sweep flag

    def test_rounded_rect(self):
        el = ShapeElement(
            "rect",
            (("x", 0.0), ("y", 0.0), ("width", 40.0), ("height", 20.0), ("rx", 5.0), ("ry", 8.0)),
        )
        arc = (5.0, 8.0, *self.QUARTER)
        assert shape_segments(el) == [
            ("M", Point(5, 0)),
            ("L", Point(5, 0), Point(35, 0)), ("A", Point(35, 0), *arc, Point(40, 8)),
            ("L", Point(40, 8), Point(40, 12)), ("A", Point(40, 12), *arc, Point(35, 20)),
            ("L", Point(35, 20), Point(5, 20)), ("A", Point(5, 20), *arc, Point(0, 12)),
            ("L", Point(0, 12), Point(0, 8)), ("A", Point(0, 8), *arc, Point(5, 0)),
        ]

    def test_pill_rect_has_no_straight_edges(self):
        # rx is clamped to w/2; the missing ry takes rx's 30, clamped to h/2
        el = ShapeElement(
            "rect", (("x", 0.0), ("y", 0.0), ("width", 20.0), ("height", 10.0), ("rx", 30.0))
        )
        arc = (10.0, 5.0, *self.QUARTER)
        assert shape_segments(el) == [
            ("M", Point(10, 0)),
            ("A", Point(10, 0), *arc, Point(20, 5)),
            ("A", Point(20, 5), *arc, Point(10, 10)),
            ("A", Point(10, 10), *arc, Point(0, 5)),
            ("A", Point(0, 5), *arc, Point(10, 0)),
        ]

    def test_sharp_rect_and_ellipse(self):
        rect = ShapeElement("rect", (("x", 1.0), ("y", 2.0), ("width", 3.0), ("height", 4.0)))
        assert shape_segments(rect) == [
            ("M", Point(1, 2)), ("L", Point(1, 2), Point(4, 2)), ("L", Point(4, 2), Point(4, 6)),
            ("L", Point(4, 6), Point(1, 6)), ("L", Point(1, 6), Point(1, 2)),
        ]
        ellipse = ShapeElement("ellipse", (("cx", 1.0), ("cy", 2.0), ("rx", 3.0), ("ry", 4.0)))
        arc = (3.0, 4.0, *self.QUARTER)
        assert shape_segments(ellipse) == [
            ("M", Point(4, 2)),
            ("A", Point(4, 2), *arc, Point(1, 6)),
            ("A", Point(1, 6), *arc, Point(-2, 2)),
            ("A", Point(-2, 2), *arc, Point(1, -2)),
            ("A", Point(1, -2), *arc, Point(4, 2)),
        ]

    def test_closed_polygon_gets_no_duplicate_closing_segment(self):
        pts = (Point(0, 0), Point(10, 0), Point(5, 10), Point(0, 0))
        assert shape_segments(ShapeElement("polygon", (("points", pts),))) == [
            ("M", Point(0, 0)),
            ("L", Point(0, 0), Point(10, 0)),
            ("L", Point(10, 0), Point(5, 10)),
            ("L", Point(5, 10), Point(0, 0)),
        ]


class TestApplyTransform:
    def _path(self):
        return PathElement(
            (MoveTo(Point(0, 0)), LineTo(Point(1, 1)),
             CubicTo(Point(1, 2), Point(2, 2), Point(3, 1))),
            Hex("000000"),
        )

    def test_identity_unchanged(self):
        p = self._path()
        assert apply_transform(p, IDENTITY) is p

    def test_translation(self):
        p = PathElement((MoveTo(Point(0, 0)), LineTo(Point(1, 1))), Hex("000000"))
        out = apply_transform(p, AffineTransform.translate(5, 5))
        assert list(out.commands) == [MoveTo(Point(5, 5)), LineTo(Point(6, 6))]

    def test_affine_commutes_with_bezier(self):
        p = self._path()
        m = AffineTransform.scale(2)
        out = apply_transform(p, m)
        orig = p.commands[2]
        tran = out.commands[2]
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = cubic_at(Point(2, 2), tran.c1, tran.c2, tran.end, t)
            b = cubic_at(Point(1, 1), orig.c1, orig.c2, orig.end, t)
            assert math.isclose(a.x, 2 * b.x, abs_tol=1e-12)
            assert math.isclose(a.y, 2 * b.y, abs_tol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            apply_transform(self._path(), AffineTransform.scale(0))


class TestNormalizeCanvas:
    def test_identity_fixed_point(self):
        doc = Document(
            (0, 0, 1024, 1024),
            (PathElement((MoveTo(Point(1, 2)), LineTo(Point(3, 4))), Hex("000000")),),
        )
        out = normalize_canvas(doc)
        assert document_equal(out, doc)

    def test_uniform_doubling(self):
        t = canvas_transform((0, 0, 512, 512))
        assert t.apply(256, 256) == (512, 512)

    def test_letterbox_short_axis(self):
        t = canvas_transform((0, 0, 200, 100))
        assert t.apply(0, 0) == (0, 256)
        assert t.apply(200, 100) == (1024, 768)

    def test_offset_origin(self):
        t = canvas_transform((-50, -50, 100, 100))
        assert t.apply(-50, -50) == (0, 0)
        assert t.apply(50, 50) == (1024, 1024)


class TestNormalizeDocument:
    def test_minimal_rect_document(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 1024 1024"><rect x="0" y="0" width="10" height="10"/></svg>'
        )
        norm, report = normalize_document(doc)
        assert len(norm.paths) == 1
        assert len(norm.paths[0].commands) == 5
        assert report.shapes_converted == {"rect": 1}

    def test_idempotent_over_corpus(self, corpus):
        for name, text in corpus.items():
            doc, _ = parse_document(text)
            once, _ = normalize_document(doc)
            twice, _ = normalize_document(once)
            assert document_equal(once, twice), name

    def test_typed_trailing_moveto_dropped_like_raw(self):
        raw, _ = parse_document(
            '<svg viewBox="0 0 1024 1024"><path d="M0 0L8 8M5 5" fill="#f00"/></svg>'
        )
        cmds = (MoveTo(Point(0, 0)), LineTo(Point(8, 8)), MoveTo(Point(5, 5)))
        typed = Document(raw.view_box, (PathElement(cmds, Hex("ff0000")),))
        for doc in (raw, typed):
            norm, _ = normalize_document(doc)
            assert norm.paths[0].commands == cmds[:2]

    def test_fill_none_dropped_and_default_black(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 10 10"><path d="M0 0L1 1" fill="none"/><path d="M0 0L2 2"/></svg>'
        )
        norm, report = normalize_document(doc)
        assert len(norm.paths) == 1
        assert norm.paths[0].fill == BLACK
        assert report.paths_dropped == {"fill_none": 1}

    def test_empty_document_error(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 10 10"><path d="M0 0" fill="#000"/></svg>'
        )
        with pytest.raises(EmptyDocument):
            normalize_document(doc)

    def test_gradient_reference_survives(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 10 10"><rect x="0" y="0" width="5" height="5" fill="url(#g)"/></svg>'
        )
        norm, _ = normalize_document(doc)
        assert norm.paths[0].fill.ref_id == "g"

    def test_endpoint_exactness_through_pipeline(self):
        # endpoints survive conversion bit-for-bit before canvas scaling
        doc, _ = parse_document(
            '<svg viewBox="0 0 1024 1024"><path d="M100 100Q200 50 300 100T500 100'
            'A50 50 0 0 1 600 100L700 100" fill="#000"/></svg>'
        )
        norm, _ = normalize_document(doc)
        ends = [c.end for c in norm.paths[0].commands]
        for expected in (Point(300, 100), Point(500, 100), Point(600, 100), Point(700, 100)):
            assert expected in ends

    def test_random_raw_documents_normalize(self):
        rng = random.Random(99)
        for _ in range(200):
            doc, _ = parse_document(random_raw_svg(rng))
            norm, _ = normalize_document(doc)
            assert norm.normalized
            once, _ = normalize_document(norm)
            assert document_equal(once, norm)


def _normalized_outcome(doc):
    try:
        norm, report = normalize_document(doc)
    except EmptyDocument as exc:
        return "EmptyDocument", str(exc)
    return norm, report.as_dict()


def _both_ways(doc, monkeypatch):
    """``normalize_document(doc)`` as it is, and with the direct path off."""
    direct = _normalized_outcome(doc)
    with monkeypatch.context() as mp:
        mp.setattr(normalizer, "_as_is", lambda doc: None)
        full = _normalized_outcome(doc)
    return direct, full


def _icon(body, view_box="0 0 1024 1024"):
    return parse_document(f'<svg viewBox="{view_box}">{body}</svg>')[0]


_TWO = (RawCommand("M", (0.0, 0.0)), RawCommand("L", (8.0, 8.0)))


class TestAlreadyNormalized:
    """Typing an already-normalized document directly equals the full pipeline."""

    def _serialized_outputs(self):
        rng = random.Random(7)
        texts = list(full_corpus().values()) + list(colored_icons(40, seed=5).values())
        texts += [random_raw_svg(rng) for _ in range(60)]
        for text in texts:
            yield serialize_document(normalize_document(parse_document(text)[0])[0])
        for _ in range(40):
            yield serialize_document(random_normalized_document(rng))

    def test_serialized_outputs_take_the_direct_path(self, monkeypatch):
        for text in self._serialized_outputs():
            doc, _ = parse_document(text)
            assert normalizer._as_is(doc) is not None, text
            direct, full = _both_ways(doc, monkeypatch)
            assert direct == full, text
            assert direct[1] == NormalizeReport().as_dict()

    @pytest.mark.parametrize("doc", [
        _icon('<path d="M0 0L8 8M5 5" fill="#f00"/>'),
        _icon('<path d="M1 1M2 2L3 3" fill="#f00"/>'),
        _icon('<path d="M0 0L8 8"/>'),
        _icon('<path d="M0 0L8 8" fill="none"/><path d="M1 1L9 9" fill="#0f0"/>'),
        _icon('<path d="M0 0L8 8" fill="none"/>'),
        _icon('<path d="M0 0L8 8L0 8Z" fill="#f00"/>'),
        _icon('<path d="M0 0l8 8" fill="#f00"/>'),
        _icon('<path d="M0 0L8 8" fill="#f00"/>', view_box="0 0 1024 512"),
        _icon('<path d="" fill="#f00"/><path d="M0 0L8 8" fill="#f00"/>'),
        _icon('<path d="M0 0L8 8" fill="#f00" transform="translate(1 2)"/>'),
        _icon('<path d="M0 0L8 8" fill="#f00"/><rect x="1" y="1" width="4" height="4"/>'),
        Document(NORMALIZED_VIEW_BOX, (PathElement(
            (RawCommand("M", (0.0, 0.0)), RawCommand("L", (1.0, 1.0, 2.0, 2.0))), BLACK),)),
        Document(NORMALIZED_VIEW_BOX, (PathElement(
            (MoveTo(Point(0, 0)), LineTo(Point(8, 8))), BLACK),)),
        Document(NORMALIZED_VIEW_BOX, (PathElement(_TWO, BLACK),
                                       PathElement(_TWO, BLACK, AffineTransform.scale(2)))),
        Document(NORMALIZED_VIEW_BOX, ()),
    ], ids=[
        "trailing_m", "m_after_m", "missing_fill", "fill_none", "only_fill_none", "z",
        "relative_l", "view_box_1024x512", "empty_d", "transform", "rect",
        "two_groups_in_one_command", "typed_commands", "second_path_transformed",
        "no_paths",
    ])
    def test_near_misses_take_the_full_path(self, doc, monkeypatch):
        assert normalizer._as_is(doc) is None
        direct, full = _both_ways(doc, monkeypatch)
        assert direct == full


class TestUnresolvableChord:
    """An arc whose chord underflows against its radii has no computable
    center; it is drawn as its chord on both sides of the verifier."""

    CMDS = [RawCommand("M", (17.0, 0.0)), RawCommand("m", (-5.0, 5e-324)),
            RawCommand("h", (-11.0,)), RawCommand("A", (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0))]

    def test_arc_becomes_its_chord(self):
        out = simplify_commands(self.CMDS)
        assert out[-1] == LineTo(Point(1.0, 0.0))
        assert simplify_commands(to_absolute(self.CMDS)) == out

    @pytest.mark.parametrize("large_arc", [0, 1])
    def test_document_normalizes_and_verifies(self, large_arc):
        d = f"M17 0m-5 5e-324h-11A1 1 0 {large_arc} 1 1 0Z"
        doc, _ = parse_document(f'<svg viewBox="0 0 20 20"><path d="{d}"/></svg>')
        norm, _ = normalize_document(doc)
        assert verify_normalization(doc, norm).passed


_TRI = '<path d="M0 0L10 10L0 10Z" fill="#ff0000"/>'


class TestSilentDecisions:
    """What parsing and normalization decide without raising: the warning
    each decision leaves, and what the document keeps."""

    @pytest.mark.parametrize(
        "body,warnings,paths,dropped",
        [
            ('<path d="M0 0L10 10L0 10Z" transform="rotate(45"/>',
             ["ignored transform: unexpected transform text 'rotate(45'"], 1, {}),
            (f'<x:blob xmlns:x="urn:x"/>{_TRI}', ["dropped foreign element <blob>"], 1, {}),
            (f"<svg>{_TRI}</svg>", ["nested <svg> treated as a group"], 1, {}),
            ('<polygon points="0 0 5 5 0"/>', ["odd coordinate count in <polygon> points"], 1, {}),
            (f'<rect width="abc" height="4"/>{_TRI}', ["dropped <rect> with bad width='abc'"], 1, {}),
            (f'<path d="M0 0L10 10" transform="scale(0)"/>{_TRI}', [], 1,
             {"singular_transform": 1}),
        ],
        ids=["bad_transform", "foreign", "nested_svg", "odd_points", "bad_width", "scale0"],
    )
    def test_warning_and_what_survives(self, body, warnings, paths, dropped):
        text = f'<svg viewBox="0 0 24 24">{body}</svg>'
        doc, diag = parse_document(text)
        assert [message for _, message in diag.warnings] == warnings
        norm, report = normalize_document(doc)
        assert len(norm.paths) == paths
        assert report.paths_dropped == dropped
        # a parse warning does not cost the reward's integrity
        assert integrity_indicator(text) == 1

    def test_ignored_transform_is_the_identity(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 24 24"><path d="M0 0L9 9" transform="rotate(45"/></svg>'
        )
        assert doc.paths[0].transform == IDENTITY


def _typed_route(doc):
    """``serialize_document(normalize_document(doc)[0])`` and the report, or
    the error's type and message."""
    try:
        norm, report = normalize_document(doc)
        return serialize_document(norm), report.as_dict()
    except Exception as exc:
        return type(exc), str(exc)


def _slices_route(doc):
    try:
        paths, report = normalize_slices(doc)
        return serialize_paths(paths), report.as_dict()
    except Exception as exc:
        return type(exc), str(exc)


_COEFFICIENT = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e150, -1e150, 1e300, -1e300]),
    st.floats(-1e3, 1e3),
)


@st.composite
def _transformed_documents(draw):
    """A ``random_raw_svg`` document whose drawables each may take one more
    random transform, some of them overflowing, on one of a few canvases."""
    doc, _ = parse_document(random_raw_svg(random.Random(draw(st.integers(0, 2**32 - 1)))))
    drawables = []
    for el in doc.paths:
        if draw(st.booleans()):
            try:
                el = dataclasses.replace(
                    el, transform=AffineTransform(*draw(st.lists(_COEFFICIENT, min_size=6,
                                                                 max_size=6))) @ el.transform)
            except ValidationError:  # a determinant that overflows
                pass
        drawables.append(el)
    view_box = draw(st.sampled_from([(0.0, 0.0, 96.0, 96.0), NORMALIZED_VIEW_BOX,
                                     (-5.0, 3.0, 1e-100, 2e-100), (0.0, 0.0, 1e10, 1e10)]))
    return Document(view_box, tuple(drawables))


class TestSlicesRoute:
    """``normalize_slices`` gives what serializing ``normalize_document``'s
    result gives, and raises what it raises, first error first."""

    @settings(max_examples=300, deadline=None)
    @given(_transformed_documents())
    def test_same_bytes_reports_and_errors_as_the_typed_route(self, doc):
        assert _slices_route(doc) == _typed_route(doc)

    @pytest.mark.parametrize("body,view_box,error", [
        ('<path d="M1e10 0L0 5" transform="scale(1e300 1e-300)"/>', "0 0 96 96",
         "ValidationError: non-finite coordinate inf"),
        ('<path d="M-1e10 1e10L1e10 0" transform="matrix(1e300 0 0 1e-300 0 0)"/>',
         "0 0 96 96", "ValidationError: non-finite coordinate -inf"),
        # the elevated quadratic overflows before the arc's own error
        ('<path d="M1e308 0Q-1e308 0 0 0M-1e308 0Q1e308 0 0 0A1 1e-199 0 0 0 0 1"/>',
         "0 0 96 96", "ValidationError: non-finite coordinate -inf"),
        ('<path d="M0 0A1 1e-199 0 0 0 0 1M-1e308 0Q1e308 0 0 0"/>', "0 0 96 96",
         "OverflowError: (34, 'Numerical result out of range')"),
        ('<path d="M0 0A1e-320 1e-320 0 0 1 10 5"/>', "0 0 96 96",
         "ValidationError: non-finite coordinate nan"),
        ('<path d="M1e308 0C0 0 -1e308 0 1e308 0S0 0 0 0l1e308 0"/>', "0 0 96 96",
         "ValidationError: non-finite coordinate inf"),
        ('<rect x="0" y="0" width="1e999" height="5" rx="1"/>', "0 0 96 96",
         "ValidationError: non-finite coordinate inf"),
        # the canvas map: first non-finite value in coordinate order
        ('<path d="M0 -1e250L1e250 0"/>', "0 0 1e-100 1e-100",
         "ValidationError: non-finite coordinate -inf"),
        # every drawable is converted before the canvas is mapped
        ('<path d="M1e300 0L0 5"/><path d="M0 0A1 1e-199 0 0 0 0 1"/>', "0 0 1e-10 1e-10",
         "OverflowError: (34, 'Numerical result out of range')"),
        ('<path d="M1e10 0L0 5" transform="scale(1e300 1e-300)"/>'
         '<path d="M0 0A1 1e-199 0 0 0 0 1"/>',
         "0 0 96 96", "ValidationError: non-finite coordinate inf"),
        ('<path d="M0 0A1 1e-199 0 0 0 0 1"/>'
         '<path d="M1e10 0L0 5" transform="scale(1e300 1e-300)"/>',
         "0 0 96 96", "OverflowError: (34, 'Numerical result out of range')"),
        ('<path d="M1e10 0L0 5"/>', "0 0 1e10 1e10",
         "SingularTransform: determinant 1.0485760000000001e-14"),
    ], ids=["scale", "matrix_signs", "quad_before_arc", "arc_before_quad", "subnormal_arc",
            "smooth_reflection", "rect_inf", "canvas_signs", "element_before_canvas",
            "transform_before_arc", "arc_before_transform", "canvas_singular"])
    def test_first_error_in_the_same_place(self, body, view_box, error):
        doc, _ = parse_document(f'<svg viewBox="{view_box}">{body}</svg>')
        for route in (_typed_route, _slices_route):
            kind, message = route(doc)
            assert f"{kind.__name__}: {message}" == error

    def test_the_cli_route_types_no_command(self, tmp_path, corpus, monkeypatch):
        write_corpus(tmp_path / "raw", corpus)
        expected = {name: _typed_route(parse_document(text)[0])[0]
                    for name, text in corpus.items()}

        def refuse(*_):
            raise AssertionError("built a command object")

        for kind in (MoveTo, LineTo, CubicTo):
            monkeypatch.setattr(kind, "__post_init__", refuse)
        assert run_normalize(tmp_path / "raw", tmp_path / "norm") == EXIT_OK
        for name, text in expected.items():
            assert (tmp_path / "norm" / f"{name}.svg").read_text() == text
