import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import curved_icon, random_raw_svg
from svgforge import verifier
from svgforge.errors import PathCountMismatch, ValidationError
from svgforge.model import (
    AffineTransform,
    CubicTo,
    Document,
    Hex,
    LineTo,
    MoveTo,
    NORMALIZED_VIEW_BOX,
    PathElement,
    Point,
    ShapeElement,
    command_columns,
)
from svgforge.normalizer import (
    KAPPA,
    arc_center,
    arc_spans,
    canvas_transform,
    convert_element,
    drawable_outline,
    iter_segments,
    normalize_document,
    shape_segments,
    shape_to_path,
)
from svgforge.parser import parse_document, serialize_document
from svgforge.verifier import (
    DeviationReport,
    Polyline,
    flatten_cubic,
    max_deviation,
    polyline,
    sample_outline,
    set_deviation,
    verify_normalization,
)


class TestFlattenCubic:
    def test_collinear_is_two_points(self):
        out = flatten_cubic(Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3), 1e-3)
        assert len(out) == 2
        assert out.points == (Point(0, 0), Point(3, 3))

    def test_quarter_circle_stays_near_circle(self):
        k = KAPPA
        out = flatten_cubic(Point(1, 0), Point(1, k), Point(k, 1), Point(0, 1), 1e-3)
        for p in out.points:
            assert abs(math.hypot(p.x, p.y) - 1.0) < 1e-3 + 2.8e-4

    def test_halving_tolerance_never_decreases_points(self):
        k = KAPPA
        counts = []
        tol = 0.1
        for _ in range(8):
            out = flatten_cubic(Point(1, 0), Point(1, k), Point(k, 1), Point(0, 1), tol)
            counts.append(len(out))
            tol /= 2
        for a, b in zip(counts, counts[1:]):
            assert b >= a

    def test_endpoints_exact(self):
        out = flatten_cubic(Point(3, 7), Point(50, -20), Point(-10, 90), Point(11, 13), 0.01)
        assert out.points[0] == Point(3, 7)
        assert out.points[-1] == Point(11, 13)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValidationError):
            flatten_cubic(Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3), 0)

    def test_hairpin_is_not_its_chord(self):
        # the control points lie on the chord's line but beyond its end, so
        # the curve x(t) = 12t(1-t) + t^3 runs out past x = 3 and back to 1
        out = flatten_cubic(Point(0, 0), Point(4, 0), Point(4, 0), Point(1, 0), 1e-3)
        farthest = max(12 * t * (1 - t) + t ** 3 for t in (i / 10000 for i in range(10001)))
        assert farthest > 3
        assert max(p.x for p in out.points) >= farthest - 1e-3

    def test_nan_tolerance_is_rejected(self):
        # a NaN is never <= 0, and no piece is ever within it: this would split 2**24 times
        with pytest.raises(ValidationError):
            flatten_cubic(Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3), math.nan)


def _segment_distance(p, a, b):
    dx, dy = b.x - a.x, b.y - a.y
    t = max(0.0, min(1.0, ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)))
    return math.hypot(p.x - a.x - t * dx, p.y - a.y - t * dy)


def _ellipse_gap(p, cx, cy, rx, ry):
    """A bound on the distance from ``p`` to the axis-aligned ellipse: the
    ellipse point at the same parameter is ``|g - 1|`` radii away."""
    g = math.hypot((p.x - cx) / rx, (p.y - cy) / ry)
    return abs(g - 1.0) * max(rx, ry)


class TestSampleOutline:
    def test_unit_circle_points_on_circle(self):
        el = ShapeElement("circle", (("cx", 0.0), ("cy", 0.0), ("r", 1.0)))
        polys = sample_outline(el, n_per_segment=4)
        assert len(polys) == 1
        pts = polys[0].points
        assert len(set(pts)) == 16
        for p in pts:
            assert abs(math.hypot(p.x, p.y) - 1.0) < 1e-12

    def test_line_samples_collinear(self):
        el = ShapeElement("line", (("x1", 0.0), ("y1", 0.0), ("x2", 10.0), ("y2", 5.0)))
        polys = sample_outline(el, 8)
        for p in polys[0].points:
            assert math.isclose(p.y, p.x / 2, abs_tol=1e-12)

    def test_rect_samples_on_boundary(self):
        el = ShapeElement("rect", (("x", 1.0), ("y", 2.0), ("width", 4.0), ("height", 3.0)))
        polys = sample_outline(el, 5)
        for p in polys[0].points:
            on_x = math.isclose(p.x, 1) or math.isclose(p.x, 5)
            on_y = math.isclose(p.y, 2) or math.isclose(p.y, 5)
            assert on_x or on_y

    def test_subpaths_split(self):
        el = PathElement(
            (MoveTo(Point(0, 0)), LineTo(Point(1, 0)),
             MoveTo(Point(5, 5)), LineTo(Point(6, 5))),
            Hex("000000"),
        )
        assert len(sample_outline(el, 4)) == 2

    def test_raw_path_arc_sampled_analytically(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 100 100"><path d="M10 50A20 20 0 0 1 50 50" fill="#000"/></svg>'
        )
        polys = sample_outline(doc.paths[0], 16)
        center, r = Point(30, 50), 20.0
        for p in polys[0].points:
            assert abs(math.hypot(p.x - center.x, p.y - center.y) - r) < 1e-9

    def test_rounded_rect_on_analytic_outline(self):
        x, y, w, h, rx, ry = 3.7, -1.3, 40.0, 20.0, 5.0, 8.0
        el = ShapeElement(
            "rect", (("x", x), ("y", y), ("width", w), ("height", h), ("rx", rx), ("ry", ry))
        )
        (pl,) = sample_outline(el, 16)
        assert len(pl) == 8 * 16 + 1 and pl.points[0] == pl.points[-1]
        edges = [
            (Point(x + rx, y), Point(x + w - rx, y)), (Point(x + w, y + ry), Point(x + w, y + h - ry)),
            (Point(x + rx, y + h), Point(x + w - rx, y + h)), (Point(x, y + ry), Point(x, y + h - ry)),
        ]
        # corner-ellipse centers, with the signs of the quadrant each corner covers
        corners = [
            (x + w - rx, y + ry, 1, -1), (x + w - rx, y + h - ry, 1, 1),
            (x + rx, y + h - ry, -1, 1), (x + rx, y + ry, -1, -1),
        ]
        for p in pl.points:
            dists = [_segment_distance(p, *e) for e in edges]
            for cx, cy, sx, sy in corners:
                if (p.x - cx) * sx >= -1e-12 and (p.y - cy) * sy >= -1e-12:
                    dists.append(_ellipse_gap(p, cx, cy, rx, ry))
            assert min(dists) <= 1e-9

    def test_ellipse_on_analytic_outline(self):
        cx, cy, rx, ry = 3.7, -1.3, 7.0, 2.5
        el = ShapeElement("ellipse", (("cx", cx), ("cy", cy), ("rx", rx), ("ry", ry)))
        (pl,) = sample_outline(el, 16)
        assert len(pl) == 4 * 16 + 1 and pl.points[0] == pl.points[-1]
        for p in pl.points:
            assert _ellipse_gap(p, cx, cy, rx, ry) <= 1e-9

    def test_n_must_be_at_least_two(self):
        el = ShapeElement("line", (("x1", 0.0), ("y1", 0.0), ("x2", 1.0), ("y2", 1.0)))
        with pytest.raises(ValidationError):
            sample_outline(el, 1)


class TestMaxDeviation:
    def _line(self, y):
        return Polyline((Point(0, y), Point(1, y)))

    def test_identical_is_zero(self):
        a = self._line(0)
        assert max_deviation(a, a).max_deviation == 0.0

    def test_parallel_offset(self):
        report = max_deviation(self._line(0), self._line(0.5))
        assert math.isclose(report.max_deviation, 0.5, abs_tol=1e-12)

    def test_symmetric(self):
        a = Polyline((Point(0, 0), Point(2, 0), Point(2, 2)))
        b = Polyline((Point(0, 0.3), Point(2.2, 0)))
        assert math.isclose(
            max_deviation(a, b).max_deviation,
            max_deviation(b, a).max_deviation,
            abs_tol=1e-12,
        )

    def test_circle_vs_four_cubics(self):
        el = ShapeElement("circle", (("cx", 0.0), ("cy", 0.0), ("r", 1.0)))
        analytic = sample_outline(el, 64)
        cmds = list(shape_to_path(el).commands)
        chains = []
        cur = cmds[0].end
        flat = [cur]
        for c in cmds[1:]:
            flat.extend(flatten_cubic(cur, c.c1, c.c2, c.end, 1e-4).points[1:])
            cur = c.end
        chains.append(polyline(flat))
        report = set_deviation(analytic, chains)
        assert report.max_deviation < 3e-4 + 1e-4

    def test_no_segment_joins_two_chains(self):
        gap = [Polyline((Point(0, 0), Point(1, 0))), Polyline((Point(3, 0), Point(4, 0)))]
        whole = [Polyline((Point(0, 0), Point(2, 0), Point(4, 0)))]
        for report in (set_deviation(gap, whole), set_deviation(whole, gap)):
            assert report.max_deviation == 1.0
            assert report.argmax_point == Point(2, 0)
            assert report.samples_used == 7

    def test_report_fields(self):
        report = max_deviation(self._line(0), self._line(1))
        assert isinstance(report, DeviationReport)
        assert report.samples_used == 4
        assert report.argmax_point.y in (0.0, 1.0)


class TestVerifyNormalization:
    def _roundtrip(self, svg):
        doc, _ = parse_document(svg)
        norm, _ = normalize_document(doc)
        return doc, norm

    def test_pure_lines_deviation_zero(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 1024 1024"><path d="M0 0L100 0L100 100L0 100Z" fill="#000"/></svg>'
        )
        result = verify_normalization(doc, norm, 0.5)
        assert result.passed and result.worst == 0.0

    def test_circle_fixture_passes_default_tolerance(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 1024 1024"><circle cx="512" cy="512" r="500" fill="#000"/></svg>'
        )
        assert verify_normalization(doc, norm, 0.5).passed

    def test_hairpin_quadratic_passes(self):
        # the quadratic turns back along its own chord's line; flattened as
        # that chord it read 10.35 units off
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 100 100"><path d="M10 10L29.8 44.3q-17.6 -26.4 0.4 0.6Z"/></svg>'
        )
        result = verify_normalization(doc, norm, 0.5)
        assert result.passed and result.worst < 0.05

    def test_tiny_tolerance_fails_on_curves(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 1024 1024"><circle cx="512" cy="512" r="400" fill="#000"/></svg>'
        )
        assert not verify_normalization(doc, norm, 1e-6).passed

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 1024 1024"><path d="M0 0L100 0" fill="#000"/></svg>'
        )
        with pytest.raises(ValidationError, match="finite and positive"):
            verify_normalization(doc, norm, tolerance)

    def test_corrupted_converter_detected(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 1024 1024"><circle cx="512" cy="512" r="400" fill="#000"/></svg>'
        )
        # scale the cubic handles 1.1x around each anchor, a subtle bug
        mutated_paths = []
        for p in norm.paths:
            cmds = []
            cur = None
            for c in p.commands:
                if isinstance(c, CubicTo):
                    c1 = Point(cur.x + 1.1 * (c.c1.x - cur.x), cur.y + 1.1 * (c.c1.y - cur.y))
                    c2 = Point(c.end.x + 1.1 * (c.c2.x - c.end.x), c.end.y + 1.1 * (c.c2.y - c.end.y))
                    cmds.append(CubicTo(c1, c2, c.end))
                    cur = c.end
                else:
                    cmds.append(c)
                    cur = c.end
            mutated_paths.append(PathElement(tuple(cmds), p.fill))
        mutated = Document(NORMALIZED_VIEW_BOX, tuple(mutated_paths), normalized=True)
        result = verify_normalization(doc, mutated, 0.5)
        assert not result.passed
        assert result.worst > 0.5

    def test_path_count_mismatch(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 10 10"><path d="M0 0L1 1L1 0Z" fill="#000"/>'
            '<path d="M5 5L6 6L6 5Z" fill="#000"/></svg>'
        )
        truncated = Document(NORMALIZED_VIEW_BOX, norm.paths[:1], normalized=True)
        with pytest.raises(PathCountMismatch):
            verify_normalization(doc, truncated, 0.5)

    def test_dropped_elements_accounted(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 10 10"><path d="M0 0L9 0L9 9Z" fill="none"/>'
            '<rect x="0" y="0" width="0" height="5"/>'
            '<path d="M0 0L9 0L9 9Z" fill="#000"/></svg>'
        )
        result = verify_normalization(doc, norm, 0.5)
        assert result.passed

    def test_transformed_shapes_verified(self):
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 100 100"><g transform="rotate(37 50 50) translate(3 1)">'
            '<ellipse cx="50" cy="50" rx="30" ry="12" fill="#000"/></g></svg>'
        )
        result = verify_normalization(doc, norm, 0.5)
        assert result.passed

    def test_corpus_passes(self, corpus):
        for name, text in corpus.items():
            doc, _ = parse_document(text)
            norm, _ = normalize_document(doc)
            result = verify_normalization(doc, norm, 0.5)
            assert result.passed, (name, result.worst)

    def test_full_turn_large_arc_verifies(self):
        # near-coincident endpoints with large-arc set draw a whole circle
        doc, norm = self._roundtrip(
            '<svg viewBox="0 0 1024 1024">'
            '<path d="M500 500A100 100 0 1 1 500.000001 500Z"/></svg>'
        )
        assert verify_normalization(doc, norm, 0.5).passed

    def test_flattening_converges_to_true_curve(self):
        p0, c1, c2, p1 = Point(0, 0), Point(120, -80), Point(-40, 160), Point(100, 100)

        def at(t):
            s = 1 - t
            return Point(
                s**3 * p0.x + 3 * s * s * t * c1.x + 3 * s * t * t * c2.x + t**3 * p1.x,
                s**3 * p0.y + 3 * s * s * t * c1.y + 3 * s * t * t * c2.y + t**3 * p1.y,
            )

        true_curve = [polyline(at(i / 4000) for i in range(4001))]
        devs = []
        for tol in (1e-1, 1e-2, 1e-3):
            flat = flatten_cubic(p0, c1, c2, p1, tol)
            devs.append(set_deviation([flat], true_curve).max_deviation)
        assert devs[0] >= devs[1] >= devs[2]
        assert devs[2] < 1e-2


def _dense_reference(points, a, b):
    """The whole (points x segments x 2) distance kernel the chunked one must match."""
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    len2 = np.where(len2 < 1e-30, 1.0, len2)
    diff = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("nmj,mj->nm", diff, d) / len2, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - proj, axis=2)
    return dist.min(axis=1)


# small integers give duplicate points, zero-length segments and tied maxima
_coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-40, 40, allow_subnormal=False))
_chain = st.tuples(
    st.lists(st.tuples(_coord, _coord), min_size=2, max_size=10),
    st.sampled_from([(0.0, 0.0), (1e3, 0.0), (-2e5, 7e5)]),  # far-apart chains
)


def _chain_arrays(chains):
    points, starts, ends = [], [], []
    for pts, (ox, oy) in chains:
        moved = [(x + ox, y + oy) for x, y in pts]
        points += moved
        starts += moved[:-1]
        ends += moved[1:]
    return np.array(points), np.array(starts), np.array(ends)


def _moved(chains):
    """Each ``_chain`` value as an ``(n, 2)`` array, moved by its offset."""
    return [np.array([(x + ox, y + oy) for x, y in pts]) for pts, (ox, oy) in chains]


def _kernel(points, a, b):
    """``_dist_points_to_segments`` from ``points`` to the segments [a_j, b_j]."""
    return verifier._dist_points_to_segments(points, verifier._segment_terms(a, b),
                                             verifier._safe_scale(points, a, b))


def _one_sided(point_chains, segment_chains):
    """``_one_sided`` from the points of one list of ``(n, 2)`` chains to the
    segments of another, each prepared as ``set_deviation`` prepares a side."""
    p, s = (verifier._Side([verifier._Chain(c) for c in chains])
            for chains in (point_chains, segment_chains))
    return verifier._one_sided(p, s, verifier._safe_scale(p.points, s.points))


class TestDistanceKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_chain, min_size=1, max_size=4), st.lists(_chain, min_size=1, max_size=4),
           st.integers(1, 40))
    def test_chunked_kernel_matches_dense(self, chains_p, chains_s, budget):
        points, _, _ = _chain_arrays(chains_p)
        _, a, b = _chain_arrays(chains_s)
        want = _dense_reference(points, a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "PAIR_BUDGET", budget)
            got = _kernel(points, a, b)
            worst, where = _one_sided(_moved(chains_p), _moved(chains_s))
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        i = int(np.argmax(want))
        assert int(np.argmax(got)) == i
        assert worst.hex() == float(want[i]).hex()
        assert where == Point(float(points[i, 0]), float(points[i, 1]))

    def test_budget_splits_points_evenly(self, monkeypatch):
        # 257 points against 256 segments, the shape of a grid icon, with a budget
        # of 256 rows per chunk: two chunks of 128 and 129, never 256 and 1
        seen = []
        real = verifier._min_dist2

        def spy(x, *rest):
            seen.append(len(x))
            return real(x, *rest)

        monkeypatch.setattr(verifier, "_min_dist2", spy)
        monkeypatch.setattr(verifier, "PAIR_BUDGET", 256 * 256)
        t = np.linspace(0.0, 1.0, 257)
        _kernel(np.c_[t, t], np.c_[t[:-1], 0 * t[:-1]], np.c_[t[1:], 0 * t[1:]])
        assert seen == [128, 129]

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1e300])
    def test_out_of_scale_coordinates_match_dense(self, monkeypatch, bad):
        monkeypatch.setattr(verifier, "PAIR_BUDGET", 8)
        points = np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0], [9.0, 1.0], [3.0, 3.0]])
        chain = np.array([[0.0, 1.0], [4.0, 4.0], [bad, 2.0], [8.0, 8.0], [2.0, 0.0]])
        with np.errstate(invalid="ignore", over="ignore"):
            want = _dense_reference(points, chain[:-1], chain[1:])
            got = _kernel(points, chain[:-1], chain[1:])
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_one_chunk_is_not_culled(self, monkeypatch):
        seen = []
        real = verifier._min_dist2
        monkeypatch.setattr(verifier, "_min_dist2", lambda *a: seen.append(len(a[2])) or real(*a))
        a = np.array([[0.0, 0.0], [100.0, 0.0]])
        _kernel(np.array([[0.0, 1.0], [1.0, 1.0]]), a, a + 1.0)
        assert seen == [2]


def _ring(kind, size, radius, turn, start):
    """One closed outline around the origin, as a ``_chain`` value, starting at vertex ``start``:
    a square with a vertex at each integer point of its sides, or a circle
    of ``size`` vertices turned by ``turn``.

    Concentric squares of integer radii put every point of one at exactly
    the same distance from the other; concentric circles nearly so.
    """
    if kind == "square":
        r = radius
        side = [(float(i), float(-r)) for i in range(-r, r)]
        pts = side + [(-y, x) for x, y in side] + [(-x, -y) for x, y in side] + [(y, -x) for x, y in side]
    else:
        pts = [(radius * math.cos(turn + 2 * math.pi * i / size),
                radius * math.sin(turn + 2 * math.pi * i / size)) for i in range(size)]
    start %= len(pts)
    pts = pts[start:] + pts[:start]
    return [(pts + pts[:1], (0.0, 0.0))]


_rings = st.builds(_ring, st.sampled_from(["square", "circle"]), st.integers(3, 40),
                   st.integers(1, 6), st.floats(0, 2 * math.pi), st.integers(0, 100))
_side = st.one_of(st.lists(_chain, min_size=1, max_size=4), _rings)


class TestEarlyBreak:
    """``_one_sided`` measures exactly only the points that can be the farthest."""

    @settings(max_examples=300, deadline=None)
    @given(_side, _side, st.sampled_from([0, 1, 2]), st.integers(1, 40))
    def test_matches_dense_reference(self, chains_p, chains_s, window, budget):
        points, _, _ = _chain_arrays(chains_p)
        _, a, b = _chain_arrays(chains_s)
        want = _dense_reference(points, a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "_FULL_PASS_PAIRS", 0)
            mp.setattr(verifier, "_WINDOW", window)
            mp.setattr(verifier, "PAIR_BUDGET", budget)
            worst, where = _one_sided(_moved(chains_p), _moved(chains_s))
        i = int(np.argmax(want))
        assert worst.hex() == float(want[i]).hex()
        assert where == Point(float(points[i, 0]), float(points[i, 1]))

    @pytest.mark.parametrize("side", ["points", "segments"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1e300])
    def test_out_of_scale_coordinates_take_the_full_pass(self, monkeypatch, bad, side):
        monkeypatch.setattr(verifier, "_FULL_PASS_PAIRS", 0)
        monkeypatch.setattr(verifier, "_WINDOW", 0)
        points = np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0], [9.0, 1.0], [3.0, 3.0]])
        chain = np.array([[0.0, 1.0], [4.0, 4.0], [6.0, 2.0], [8.0, 8.0], [2.0, 0.0]])
        (points if side == "points" else chain)[2, 0] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            want = _dense_reference(points, chain[:-1], chain[1:])
            worst, where = _one_sided([points], [chain])
        i = int(np.argmax(want))
        assert worst.hex() == float(want[i]).hex()
        assert _hex_points([where]) == _hex_points([points[i]])

    def test_long_curve_measures_few_points(self, monkeypatch):
        """Both sides of a 150-segment curve hold thousands of points; under
        5 % of them can be the farthest, and only those are measured."""
        raw, _ = parse_document(curved_icon(150))
        norm, _ = normalize_document(raw)
        measured = []
        real = verifier._dist_points_to_segments
        monkeypatch.setattr(verifier, "_dist_points_to_segments",
                            lambda points, *segs: measured.append(len(points)) or real(points, *segs))
        got = verify_normalization(raw, norm)
        early = sum(measured)
        monkeypatch.setattr(verifier, "_FULL_PASS_PAIRS", math.inf)
        full = verify_normalization(raw, norm)

        def key(result):
            return result.passed, [(r.max_deviation.hex(), r.argmax_point, r.samples_used)
                                   for r in result.reports]

        assert key(got) == key(full)
        samples = sum(r.samples_used for r in got.reports)
        assert samples > 5000
        assert early < 0.05 * samples, (measured, samples)


def _reference_deviation(chains_a, chains_b):
    """``set_deviation`` measured naively: every point of each side against
    every segment of the other, a one-point chain being its own segment."""
    def side(chains):
        starts = [c if len(c) == 1 else c[:-1] for c in chains]
        ends = [c if len(c) == 1 else c[1:] for c in chains]
        return np.concatenate(chains), np.concatenate(starts), np.concatenate(ends)

    points_a, *segs_a = side(chains_a)
    points_b, *segs_b = side(chains_b)
    d_ab = _dense_reference(points_a, *segs_b)
    d_ba = _dense_reference(points_b, *segs_a)
    i, j = int(np.argmax(d_ab)), int(np.argmax(d_ba))
    worst, where = (d_ab[i], points_a[i]) if d_ab[i] >= d_ba[j] else (d_ba[j], points_b[j])
    return DeviationReport(float(worst), Point(*map(float, where)), len(points_a) + len(points_b))


def _report_key(report):
    return report.max_deviation.hex(), _hex_points([report.argmax_point]), report.samples_used


def _set_deviation(chains_a, chains_b):
    """``set_deviation`` between two lists of ``(n, 2)`` chains, as verify passes them."""
    return set_deviation([verifier._Chain(c) for c in chains_a], [verifier._Chain(c) for c in chains_b])


# one-point chains and duplicate points; far-apart chains
_any_chain = st.tuples(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30),
                       st.sampled_from([(0.0, 0.0), (1e3, 0.0), (-2e5, 7e5)]))
# a side whose total length is 0: one point, repeated, in one chain or several
_still_side = st.builds(lambda p, sizes: [([p] * k, (0.0, 0.0)) for k in sizes],
                        st.tuples(_coord, _coord),
                        st.lists(st.integers(1, 4), min_size=1, max_size=3))
_deviation_side = st.one_of(st.lists(_any_chain, min_size=1, max_size=4), _still_side, _rings)


class TestSetDeviation:
    """``set_deviation`` prepares each side once; its report equals the naive all-pairs one."""

    @settings(max_examples=400, deadline=None)
    @given(_deviation_side, _deviation_side, st.sampled_from([0, 8, 64, 1 << 14]),
           st.sampled_from([0, 1, 2, 4]), st.integers(1, 60))
    def test_matches_all_pairs_reference(self, side_a, side_b, full_pass, window, budget):
        chains_a, chains_b = _moved(side_a), _moved(side_b)
        want = _reference_deviation(chains_a, chains_b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "_FULL_PASS_PAIRS", full_pass)
            mp.setattr(verifier, "_WINDOW", window)
            mp.setattr(verifier, "PAIR_BUDGET", budget)
            got = _set_deviation(chains_a, chains_b)
        assert _report_key(got) == _report_key(want)

    def test_each_path_runs(self, monkeypatch):
        """On two concentric rings of 41 and 161 points, with small knobs, one
        direction takes the full pass and the other the early break, and the
        points are measured in chunks; the report is still the reference's."""
        # 41 x 160 pairs one way, 161 x 40 the other
        monkeypatch.setattr(verifier, "_FULL_PASS_PAIRS", 6500)
        monkeypatch.setattr(verifier, "_WINDOW", 1)
        monkeypatch.setattr(verifier, "PAIR_BUDGET", 64)
        inner = _moved(_ring("circle", 40, 3, 0.1, 0))
        outer = _moved(_ring("circle", 160, 5, 0.0, 7))
        calls = {}
        for name in ("_window_bounds", "_min_dist2"):
            real = getattr(verifier, name)
            monkeypatch.setattr(verifier, name, lambda *a, _real=real, _name=name:
                                calls.__setitem__(_name, calls.get(_name, 0) + 1) or _real(*a))
        got = _set_deviation(inner, outer)
        assert calls["_window_bounds"] == 1
        assert calls["_min_dist2"] > 4
        assert _report_key(got) == _report_key(_reference_deviation(inner, outer))

    @pytest.mark.parametrize("at", [0, 7, 19])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_bad_coordinate_on_the_second_side_only(self, monkeypatch, bad, at):
        """A NaN or inf on the second side alone still makes the drawable
        unsafe: every point is measured, none culled, and the report is the
        reference's."""
        monkeypatch.setattr(verifier, "_FULL_PASS_PAIRS", 0)
        monkeypatch.setattr(verifier, "_WINDOW", 0)
        monkeypatch.setattr(verifier, "PAIR_BUDGET", 8)
        t = np.linspace(0.0, 1.0, 20)
        first = [np.c_[t, t * t]]
        second = np.c_[t, 0.5 + 0 * t]
        second[at, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            want = _reference_deviation(first, [second])
            got = _set_deviation(first, [second])
        assert _report_key(got) == _report_key(want)
        assert not math.isfinite(got.max_deviation)


# --- the scalar reference ----------------------------------------------------
#
# The Point-per-sample sampler and flattener that the verifier's column code
# replaced, copied as they were. The only change: ``_ref_chains`` returns the
# chains before deduplication, so that the verify side can keep a chain that
# collapses to one point (``_dedupe``) while the public functions still drop
# it (``_ref_polyline``).


def _dedupe(points):
    deduped = []
    for p in points:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    return deduped


def _ref_polyline(points):
    deduped = _dedupe(points)
    return Polyline(tuple(deduped)) if len(deduped) >= 2 else None


def _ref_flatness(p0, c1, c2, p1):
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


def _ref_split_cubic(p0, c1, c2, p1):
    m01 = Point((p0.x + c1.x) / 2, (p0.y + c1.y) / 2)
    m12 = Point((c1.x + c2.x) / 2, (c1.y + c2.y) / 2)
    m23 = Point((c2.x + p1.x) / 2, (c2.y + p1.y) / 2)
    m012 = Point((m01.x + m12.x) / 2, (m01.y + m12.y) / 2)
    m123 = Point((m12.x + m23.x) / 2, (m12.y + m23.y) / 2)
    mid = Point((m012.x + m123.x) / 2, (m012.y + m123.y) / 2)
    return (p0, m01, m012, mid), (mid, m123, m23, p1)


def _ref_flatten_cubic(p0, c1, c2, p1, tolerance):
    points = [p0]

    def recurse(a, b, c, d, depth):
        if depth >= 24 or _ref_flatness(a, b, c, d) <= tolerance:
            points.append(d)
            return
        left, right = _ref_split_cubic(a, b, c, d)
        recurse(*left, depth + 1)
        recurse(*right, depth + 1)

    recurse(p0, c1, c2, p1, 0)
    return _ref_polyline(points) or Polyline((p0, p1))


def _ref_cubic_point(p0, c1, c2, p1, t):
    s = 1.0 - t
    return Point(
        s * s * s * p0.x + 3 * s * s * t * c1.x + 3 * s * t * t * c2.x + t * t * t * p1.x,
        s * s * s * p0.y + 3 * s * s * t * c1.y + 3 * s * t * t * c2.y + t * t * t * p1.y,
    )


def _ref_quad_point(p0, q, p1, t):
    s = 1.0 - t
    return Point(
        s * s * p0.x + 2 * s * t * q.x + t * t * p1.x,
        s * s * p0.y + 2 * s * t * q.y + t * t * p1.y,
    )


def _ref_sample_line(p0, p1, n):
    return [Point(p0.x + (p1.x - p0.x) * i / n, p0.y + (p1.y - p0.y) * i / n)
            for i in range(1, n + 1)]


def _ref_chains(segments, expand):
    chains = []
    current = []
    for seg in segments:
        if seg[0] == "M":
            if len(current) > 1:
                chains.append(current)
            current = [seg[1]]
        else:
            current.extend(expand(seg))
    if len(current) > 1:
        chains.append(current)
    return chains


def _ref_sample_segment(seg, n):
    kind, p0 = seg[0], seg[1]
    if kind == "L":
        return _ref_sample_line(p0, seg[2], n)
    if kind == "C":
        return [_ref_cubic_point(p0, seg[2], seg[3], seg[4], i / n) for i in range(1, n + 1)]
    if kind == "Q":
        return [_ref_quad_point(p0, seg[2], seg[3], i / n) for i in range(1, n + 1)]
    if kind == "Z":
        return _ref_sample_line(p0, seg[2], n) if p0 != seg[2] else []
    end = seg[7]  # A
    center = arc_center(*seg[1:])
    if center is None:
        return _ref_sample_line(p0, end, n) if p0 != end else []
    cx, cy, rx, ry, phi, theta1, delta = center
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    m = n * arc_spans(delta)
    pts = []
    for i in range(1, m + 1):
        t = theta1 + delta * i / m
        ct, st_ = math.cos(t), math.sin(t)
        pts.append(Point(cx + rx * ct * cos_phi - ry * st_ * sin_phi,
                         cy + rx * ct * sin_phi + ry * st_ * cos_phi))
    pts[-1] = end
    return pts


def _ref_segments(el):
    return shape_segments(el) if isinstance(el, ShapeElement) else iter_segments(el.commands)


def _ref_sample_outline(el, n):
    chains = _ref_chains(_ref_segments(el), lambda seg: _ref_sample_segment(seg, n))
    return [pl for pl in map(_ref_polyline, chains) if pl is not None]


def _ref_transform_polys(el, t, n):
    chains = [_dedupe(c) for c in _ref_chains(_ref_segments(el), lambda seg: _ref_sample_segment(seg, n))]
    if t.is_identity:
        return chains
    return [_dedupe(t.apply_point(p) for p in c) for c in chains]


def _ref_flatten_path(path, tolerance):
    def expand(seg):
        if seg[0] == "L":
            return (seg[2],)
        return _ref_flatten_cubic(*seg[1:], tolerance).points[1:]

    return [_dedupe(c) for c in _ref_chains(iter_segments(path.commands), expand)]


def _hex_points(points):
    return [(float(x).hex(), float(y).hex()) for x, y in points]


def _hex_chains(chains):
    return [_hex_points(getattr(c, "points", c)) for c in chains]


_num = st.floats(-100, 100, allow_subnormal=False)
_size = st.floats(0.01, 60, allow_subnormal=False)
_xy = st.builds(Point, _num, _num)
_shape = st.one_of(
    st.builds(lambda x, y, w, h, r: ShapeElement(
        "rect", (("x", x), ("y", y), ("width", w), ("height", h)) + r),
        _num, _num, _size, _size,
        st.sampled_from([(), (("rx", 3.0),), (("ry", 2.5),), (("rx", 1e3), ("ry", 4.0))])),
    st.builds(lambda x, y, r: ShapeElement("circle", (("cx", x), ("cy", y), ("r", r))),
              _num, _num, _size),
    st.builds(lambda x, y, rx, ry: ShapeElement(
        "ellipse", (("cx", x), ("cy", y), ("rx", rx), ("ry", ry))), _num, _num, _size, _size),
    st.builds(lambda a, b: ShapeElement(
        "line", (("x1", a.x), ("y1", a.y), ("x2", b.x), ("y2", b.y))), _xy, _xy),
    st.builds(lambda tag, pts: ShapeElement(tag, (("points", tuple(pts)),)),
              st.sampled_from(["polyline", "polygon"]), st.lists(_xy, min_size=2, max_size=6)),
)
# identity, a rotation with scale, a shear, one that collapses everything to a point
_transform = st.one_of(
    st.sampled_from([AffineTransform(), AffineTransform(1e-30, 0.0, 0.0, 1e-30, 5.0, 5.0)]),
    st.builds(AffineTransform, _num, _num, _num, _num, _num, _num),
)


class TestColumnsMatchScalarReference:
    """The column sampler and flattener give the scalar reference's points to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), _transform, st.sampled_from([2, 5, 16, 64]),
           st.sampled_from([0.02, 1e-3, 0.3]))
    def test_random_documents(self, seed, t, n, tol):
        raw, _ = parse_document(random_raw_svg(random.Random(seed)))
        norm, _ = normalize_document(raw)
        for el in raw.paths:
            if convert_element(el) is None:
                continue
            for m in (t, t @ el.transform):
                assert (_hex_chains(verifier._transform_polys(el, m, n))
                        == _hex_chains(_ref_transform_polys(el, m, n)))
            assert (_hex_chains(sample_outline(el, n))
                    == _hex_chains(_ref_sample_outline(el, n)))
        for path in norm.paths:
            assert _hex_chains(verifier._flatten_path(path, tol)) == _hex_chains(
                _ref_flatten_path(path, tol))

    @settings(max_examples=150, deadline=None)
    @given(_shape, _transform, st.sampled_from([2, 7, 64]))
    def test_every_shape_kind(self, el, t, n):
        assert _hex_chains(verifier._transform_polys(el, t, n)) == _hex_chains(
            _ref_transform_polys(el, t, n))
        assert _hex_chains(sample_outline(el, n)) == _hex_chains(_ref_sample_outline(el, n))

    @settings(max_examples=200, deadline=None)
    @given(_xy, _xy, _xy, _xy, st.sampled_from([1e-4, 0.02, 0.5, 10.0]))
    def test_flatten_cubic(self, p0, c1, c2, p1, tol):
        got = flatten_cubic(p0, c1, c2, p1, tol)
        assert type(got) is Polyline and all(type(p) is Point for p in got.points)
        assert _hex_points(got.points) == _hex_points(_ref_flatten_cubic(p0, c1, c2, p1, tol).points)

    @pytest.mark.parametrize("d", [
        "M0 0M5 5L6 6",
        "M0 0L5 5M9 9",
        "M0 0L5 0L0 0Z",
        "M0 0A5 5 0 0 1 0 0L1 1",
        "M0 0A0 5 0 0 1 9 9",
        "M17 0m-5 5e-324h-11A1 1 0 1 1 1 0",
    ], ids=["moveto_alone", "trailing_moveto", "z_at_its_start", "arc_back_to_its_start",
            "zero_radius_arc", "unresolvable_chord"])
    def test_each_sampling_rule(self, d):
        (el,) = parse_document(f'<svg viewBox="0 0 24 24"><path d="{d}"/></svg>')[0].paths
        for n in (2, 5, 64):
            for t in (AffineTransform(), AffineTransform(2.0, 0.5, -1.0, 3.0, 7.0, -4.0)):
                assert (_hex_chains(verifier._transform_polys(el, t, n))
                        == _hex_chains(_ref_transform_polys(el, t, n)))
            assert _hex_chains(sample_outline(el, n)) == _hex_chains(_ref_sample_outline(el, n))

    def test_collapsed_subpath_stays_as_a_point(self):
        raw, _ = parse_document(
            '<svg viewBox="0 0 24 24"><path d="M5 5L5 5M10 10L20 20L10 20Z"/></svg>')
        (el,) = raw.paths
        chains = verifier._transform_polys(el, AffineTransform(), 4)
        assert [c.points.tolist() for c in chains][0] == [[5.0, 5.0]]
        assert [len(c.points) for c in chains] == [1, 13]
        # the public sampler keeps its Polyline contract and drops the point
        assert [len(pl) for pl in sample_outline(el, 4)] == [13]


def _report_keys(reports):
    return [(r.max_deviation.hex(), r.argmax_point.x.hex(), r.argmax_point.y.hex(),
             r.samples_used) for r in reports]


def _one_at_a_time(raw, columns):
    """The reports of ``verify_columns(raw, columns)`` measured as verify did
    before its document pass: each drawable sampled, flattened and measured
    in turn."""
    kept = [el for el in raw.paths if convert_element(el) is not None]
    canvas = canvas_transform(raw.view_box)
    reports = []
    for el, path in zip(kept, columns):
        original = verifier._transform_polys(el, canvas @ el.transform, verifier.SAMPLES_PER_SPAN)
        flattened = verifier._flatten_document([path], 0.02)[0]
        if original or flattened:
            reports.append(set_deviation(original, flattened))
    return reports


class TestDocumentPass:
    """Sampling or flattening a whole document at once gives each drawable
    the chains it gets alone, to the bit."""

    @staticmethod
    def assert_sampled_alone(drawables, transforms, n):
        together = verifier._sample_document(list(map(drawable_outline, drawables)), transforms, n)
        assert len(together) == len(drawables)
        for chains, el, t in zip(together, drawables, transforms):
            assert _hex_chains(chains) == _hex_chains(verifier._transform_polys(el, t, n))
        return together

    @staticmethod
    def assert_flattened_alone(paths, tolerance):
        together = verifier._flatten_document([command_columns(p.commands) for p in paths],
                                              tolerance)
        assert len(together) == len(paths)
        for chains, path in zip(together, paths):
            assert _hex_chains(chains) == _hex_chains(verifier._flatten_path(path, tolerance))
        return together

    @staticmethod
    def document(body, view_box="0 0 1024 1024"):
        raw, _ = parse_document(f'<svg viewBox="{view_box}">{body}</svg>')
        kept = [el for el in raw.paths if convert_element(el) is not None]
        canvas = canvas_transform(raw.view_box)
        return raw, kept, [canvas @ el.transform for el in kept]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.lists(_transform, min_size=1, max_size=4),
           st.sampled_from([2, 5, 64]), st.sampled_from([0.02, 1e-3, 0.3]))
    def test_random_documents(self, seed, transforms, n, tol):
        raw, _ = parse_document(random_raw_svg(random.Random(seed)))
        kept = [el for el in raw.paths if convert_element(el) is not None]
        self.assert_sampled_alone(kept, [transforms[k % len(transforms)]
                                         for k in range(len(kept))], n)
        norm, _ = normalize_document(raw)
        self.assert_flattened_alone(norm.paths, tol)
        cols = [command_columns(p.commands) for p in norm.paths]
        assert _report_keys(verifier.verify_columns(raw, cols).reports) == _report_keys(
            _one_at_a_time(raw, cols))

    def test_no_point_is_dropped_across_drawables(self):
        # each path starts where the one before it ends, on both sides
        raw, kept, ts = self.document('<path d="M0 0L10 0"/><path d="M10 0L10 10"/>'
                                      '<rect x="10" y="10" width="5" height="5"/>')
        together = self.assert_sampled_alone(kept, ts, 4)
        assert [[len(c.points) for c in chains] for chains in together] == [[5], [5], [17]]
        assert together[1][0].points[0].tolist() == [10.0, 0.0]
        flat = self.assert_flattened_alone(normalize_document(raw)[0].paths, 0.02)
        assert [[len(c.points) for c in chains] for chains in flat] == [[2], [2], [5]]

    def test_a_collapsed_subpath_stays_a_point(self):
        raw, kept, ts = self.document('<path d="M5 5L5 5M10 10L20 20"/><path d="M20 20L20 20"/>')
        together = self.assert_sampled_alone(kept, ts, 4)
        assert [[len(c.points) for c in chains] for chains in together] == [[1, 5], [1]]
        assert together[1][0].points.tolist() == [[20.0, 20.0]]
        flat = self.assert_flattened_alone(normalize_document(raw)[0].paths, 0.02)
        assert [[len(c.points) for c in chains] for chains in flat] == [[1, 2], [1]]

    def test_a_trailing_moveto_verifies_as_its_path_without_it(self):
        raw, _ = parse_document('<svg viewBox="0 0 24 24"><path d="M2 2L20 21L3 18"/></svg>')
        (path,) = normalize_document(raw)[0].paths
        trailing = PathElement((*path.commands, MoveTo(Point(7, 9))), path.fill)
        assert trailing.ops == "MLLM" and not trailing.is_raw
        assert (_hex_chains(verifier._flatten_path(trailing, 0.02))
                == _hex_chains(verifier._flatten_path(path, 0.02)))
        with_m, without = (verify_normalization(raw, Document(NORMALIZED_VIEW_BOX, (p,), True))
                           for p in (trailing, path))
        assert with_m.passed
        assert _report_keys(with_m.reports) == _report_keys(without.reports)

    def test_an_identity_is_not_applied(self):
        # an identity between two transformed drawables keeps its -0.0, which
        # multiplying through would make 0.0
        raw, kept, ts = self.document(
            '<path d="M1 1L2 2" transform="translate(1 0)"/><path d="M-0 -0L10 -0"/>'
            '<path d="M-0 -0L10 -0" transform="scale(2)"/>')
        assert [t.is_identity for t in ts] == [False, True, False]
        together = self.assert_sampled_alone(kept, ts, 4)
        assert _hex_points(together[1][0].points[:1]) == [("-0x0.0p+0", "-0x0.0p+0")]
        assert _hex_points(together[2][0].points[:1]) == [("0x0.0p+0", "0x0.0p+0")]

    def test_an_overflowing_canvas_gives_what_one_drawable_at_a_time_gave(self):
        # the canvas scales by about 1e153: the second path's 1e160 overflows,
        # its M/L/C columns do not
        raw, kept, ts = self.document(
            '<path d="M0 0L1e-150 0"/><path d="M0 0L1e160 0L0 1e-150Z"/>', "0 0 1e-150 1e-150")
        columns = [("ML", [0.0, 0.0, 1024.0, 0.0]), ("MLL", [0.0, 0.0, 1.0, 0.0, 0.0, 1024.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning) as together:
                verifier.verify_columns(raw, columns)
            with pytest.raises(RuntimeWarning) as alone:
                _one_at_a_time(raw, columns)
        assert str(together.value) == str(alone.value)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.assert_sampled_alone(kept, ts, 64)
            got = verifier.verify_columns(raw, columns)
            want = _one_at_a_time(raw, columns)
        assert _report_keys(got.reports) == _report_keys(want)
        assert not math.isfinite(got.reports[1].max_deviation)

    @pytest.mark.parametrize("order", [1, -1], ids=["nan_last", "nan_first"])
    def test_a_nan_deviation_fails_wherever_it_is(self, order):
        bodies = ['<path d="M0 0L1e-150 0"/>', '<path d="M0 0L1e160 0L0 1e-150Z"/>']
        columns = [("ML", [0.0, 0.0, 1024.0, 0.0]), ("MLL", [0.0, 0.0, 1.0, 0.0, 0.0, 1024.0])]
        raw, _, _ = self.document("".join(bodies[::order]), "0 0 1e-150 1e-150")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = verifier.verify_columns(raw, columns[::order])
        assert [math.isnan(r.max_deviation) for r in got.reports] == [False, True][::order]
        assert not got.passed
        assert math.isnan(got.worst)

    def test_verify_normalization_reads_the_paths_as_columns(self):
        raw, _ = parse_document(random_raw_svg(random.Random(7)))
        norm, _ = normalize_document(raw)
        cols = [command_columns(p.commands) for p in norm.paths]
        expected = verifier.verify_columns(raw, cols)
        assert verify_normalization(raw, norm) == expected
        # normalized text parsed but not normalized holds raw M/L/C commands
        parsed, _ = parse_document(serialize_document(norm))
        assert parsed.paths[0].is_raw
        assert verify_normalization(raw, parsed) == verify_normalization(
            raw, normalize_document(parsed)[0])


def test_long_curve_verifies_in_bounded_memory():
    """A closed 150-segment curve: the whole pair matrix would need about 5 GB.

    The child reports its own peak, ``VmHWM``: on Linux a child's
    ``ru_maxrss`` can carry the peak of the process that started it, here
    pytest's, whatever ran before this test.
    """
    script = (
        "import json, re, sys\n"
        "from svgforge import normalize_document, parse_document, verify_normalization\n"
        "raw, _ = parse_document(sys.stdin.read())\n"
        "norm, _ = normalize_document(raw)\n"
        "result = verify_normalization(raw, norm)\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = re.search(r'^VmHWM:\\s*(\\d+) kB', fh.read(), re.M)\n"
        "print(json.dumps({'passed': result.passed, 'worst': result.worst,\n"
        "                  'maxrss_kb': int(hwm.group(1))}))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], input=curved_icon(150), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
    )
    out = json.loads(proc.stdout) if proc.returncode == 0 else {}
    # every message names each check, so a failure says which one tripped
    why = (f"exit code {proc.returncode}, passed {out.get('passed')}, "
           f"maxrss_kb {out.get('maxrss_kb')}, stderr tail {proc.stderr[-1500:]!r}")
    assert proc.returncode == 0, why
    assert out["passed"], why
    assert out["maxrss_kb"] < 150 * 1024, why


def test_numpy_loads_on_the_first_distance():
    """Every public name imports, and sampling and flattening run, without numpy."""
    script = (
        "import json, sys\n"
        "from svgforge import *\n"
        "loaded = ['numpy' in sys.modules]\n"
        "raw, _ = parse_document(sys.stdin.read())\n"
        "sample_outline(raw.paths[0])\n"
        "flatten_cubic(Point(0, 0), Point(0, 9), Point(9, 9), Point(9, 0), 0.01)\n"
        "loaded.append('numpy' in sys.modules)\n"
        "passed = verify_normalization(raw, normalize_document(raw)[0]).passed\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(json.dumps({'loaded': loaded, 'passed': passed}))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        input='<svg viewBox="0 0 24 24"><circle cx="12" cy="12" r="9" fill="#f00"/></svg>',
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [False, False, True], "passed": True}
