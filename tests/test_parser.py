import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svgforge.errors import (
    MalformedXml,
    MissingRoot,
    NoCanvas,
    NotNormalized,
    PathSyntax,
    ValidationError,
)
from svgforge.model import (
    CubicTo,
    Document,
    Hex,
    LineTo,
    MoveTo,
    NO_FILL,
    NORMALIZED_VIEW_BOX,
    PathElement,
    Point,
    Reference,
    ShapeElement,
    document_equal,
)
from svgforge.normalizer import normalize_document
from svgforge.parser import (
    parse_document,
    parse_paint,
    parse_transform,
    serialize_document,
)

MINIMAL = '<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10" fill="#ff0000"/></svg>'


class TestParseDocument:
    def test_minimal(self):
        doc, diag = parse_document(MINIMAL)
        assert doc.view_box == (0, 0, 1024, 1024)
        assert len(doc.paths) == 1
        path = doc.paths[0]
        assert path.is_raw and len(path.commands) == 2
        assert path.fill == Hex("ff0000")
        assert diag.element_counts == {"svg": 1, "path": 1}

    def test_truncated_is_malformed(self):
        with pytest.raises(MalformedXml):
            parse_document('<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10"')

    def test_missing_root(self):
        with pytest.raises(MissingRoot):
            parse_document("<html><body/></html>")

    def test_no_canvas(self):
        with pytest.raises(NoCanvas):
            parse_document('<svg><path d="M0 0L1 1"/></svg>')

    def test_width_height_fallback(self):
        doc, _ = parse_document('<svg width="48px" height="24"><rect x="0" y="0" width="8" height="8"/></svg>')
        assert doc.view_box == (0, 0, 48, 24)

    def test_group_composition(self):
        svg = (
            '<svg viewBox="0 0 100 100"><g transform="translate(10,20)" fill="#112233">'
            '<rect x="0" y="0" width="5" height="5"/><circle cx="1" cy="1" r="1"/>'
            '<path d="M0 0L1 1"/></g></svg>'
        )
        doc, diag = parse_document(svg)
        assert diag.element_counts == {"svg": 1, "g": 1, "rect": 1, "circle": 1, "path": 1}
        assert len(doc.paths) == 3
        for el in doc.paths:
            assert el.transform.apply(0, 0) == (10, 20)
            assert el.fill == Hex("112233")

    def test_child_fill_overrides_group(self):
        svg = (
            '<svg viewBox="0 0 10 10" fill="#111111"><g fill="#222222">'
            '<path d="M0 0L1 1" fill="#333333"/><path d="M0 0L2 2"/></g>'
            '<path d="M0 0L3 3"/></svg>'
        )
        doc, _ = parse_document(svg)
        assert [p.fill for p in doc.paths] == [Hex("333333"), Hex("222222"), Hex("111111")]

    def test_document_order_preserved(self):
        svg = (
            '<svg viewBox="0 0 10 10"><rect x="0" y="0" width="1" height="1"/>'
            '<path d="M0 0L1 1"/><circle cx="5" cy="5" r="2"/></svg>'
        )
        doc, _ = parse_document(svg)
        kinds = [el.tag if isinstance(el, ShapeElement) else "path" for el in doc.paths]
        assert kinds == ["rect", "path", "circle"]

    def test_metadata_dropped_and_counted(self):
        svg = (
            '<svg viewBox="0 0 10 10"><title>x</title><desc>y</desc>'
            "<!-- note --><metadata>z</metadata>"
            '<path d="M0 0L1 1"/></svg>'
        )
        doc, diag = parse_document(svg)
        assert len(doc.paths) == 1
        assert diag.element_counts["title"] == 1
        assert diag.element_counts["#comment"] == 1

    def test_unknown_elements_warned_not_fatal(self):
        svg = '<svg viewBox="0 0 10 10"><text x="0" y="0">hi</text><path d="M0 0L1 1"/></svg>'
        doc, diag = parse_document(svg)
        assert len(doc.paths) == 1
        assert any("text" in msg for _, msg in diag.warnings)

    def test_warning_offsets_in_bounds(self):
        svg = '<svg viewBox="0 0 10 10"><image href="x.png"/><path d="M0 0L1 1"/></svg>'
        _, diag = parse_document(svg)
        assert diag.warnings
        for offset, _ in diag.warnings:
            assert 0 <= offset <= len(svg.encode("utf-8"))

    def test_defs_content_not_drawn(self):
        svg = (
            '<svg viewBox="0 0 10 10"><defs><rect x="0" y="0" width="5" height="5"/></defs>'
            '<path d="M0 0L1 1"/></svg>'
        )
        doc, _ = parse_document(svg)
        assert len(doc.paths) == 1

    def test_bad_path_data_propagates(self):
        with pytest.raises(PathSyntax):
            parse_document('<svg viewBox="0 0 10 10"><path d="M0 0 L"/></svg>')

    def test_style_vs_attribute_precedence(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 10 10"><path d="M0 0L1 1" fill="#00ff00" style="fill:#0000ff"/></svg>'
        )
        assert doc.paths[0].fill == Hex("00ff00")

    def test_absent_fill_is_recorded_distinctly(self):
        doc, _ = parse_document('<svg viewBox="0 0 10 10"><path d="M0 0L1 1"/></svg>')
        assert doc.paths[0].fill is None


class TestParsePaint:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("#ff0000", Hex("ff0000")),
            ("#AbC", Hex("aabbcc")),
            ("none", NO_FILL),
            ("red", Hex("ff0000")),
            ("steelblue", Hex("4682b4")),
            ("rgb(255, 0, 0)", Hex("ff0000")),
            ("rgb(100%, 50%, 0%)", Hex("ff8000")),
            ("url(#grad)", Reference("grad")),
            ("currentColor", Hex("000000")),
            ("inherit", None),
            ("no-such-color", None),
        ],
    )
    def test_values(self, value, expected):
        assert parse_paint(value) == expected

    def test_broken_hex_raises(self):
        with pytest.raises(ValueError):
            parse_paint("#12345")

    def test_rgb_clamped(self):
        assert parse_paint("rgb(300, -5, 12)") == Hex("ff000c")

    @pytest.mark.parametrize(
        "value", ["rgb(1e999,0,0)", "rgb(0, inf, 0)", "rgb(0,0,1e999%)", "rgb(nan,0,0)"]
    )
    def test_non_finite_rgb_channel_raises(self, value):
        with pytest.raises(ValueError):
            parse_paint(value)


class TestParseTransform:
    def test_matrix(self):
        m = parse_transform("matrix(1 2 3 4 5 6)")
        assert (m.a, m.b, m.c, m.d, m.e, m.f) == (1, 2, 3, 4, 5, 6)

    def test_list_composes_left_to_right(self):
        m = parse_transform("translate(10) scale(2)")
        assert m.apply(1, 1) == (12, 2)

    def test_rotate_with_center(self):
        m = parse_transform("rotate(180 5 5)")
        x, y = m.apply(0, 0)
        assert math.isclose(x, 10, abs_tol=1e-12) and math.isclose(y, 10, abs_tol=1e-12)

    def test_bad_transform(self):
        with pytest.raises(ValueError):
            parse_transform("wobble(3)")
        with pytest.raises(ValueError):
            parse_transform("matrix(1 2 3)")


class TestSerialize:
    def test_minimal_exact(self):
        doc = Document(
            NORMALIZED_VIEW_BOX,
            (PathElement((MoveTo(Point(0, 0)), LineTo(Point(10, 10))), Hex("ff0000")),),
            normalized=True,
        )
        assert serialize_document(doc) == MINIMAL.replace(
            "<svg ", '<svg xmlns="http://www.w3.org/2000/svg" '
        )

    def test_empty_document(self):
        doc = Document(NORMALIZED_VIEW_BOX, (), normalized=True)
        assert serialize_document(doc) == (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024"></svg>'
        )

    def test_requires_normalized(self):
        doc, _ = parse_document(MINIMAL)
        with pytest.raises(NotNormalized):
            serialize_document(doc)

    def test_reference_fill_roundtrips(self):
        doc = Document(
            NORMALIZED_VIEW_BOX,
            (PathElement((MoveTo(Point(0, 0)), LineTo(Point(1, 1))), Reference("g1")),),
            normalized=True,
        )
        text = serialize_document(doc)
        assert 'fill="url(#g1)"' in text
        assert document_equal(parse_document(text)[0], doc)

    @settings(max_examples=300, deadline=None)
    @given(st.text(min_size=1, max_size=6))
    def test_every_accepted_reference_id_roundtrips(self, ref_id):
        try:
            fill = Reference(ref_id)
        except ValidationError:
            return
        doc = Document(
            NORMALIZED_VIEW_BOX,
            (PathElement((MoveTo(Point(0, 0)), LineTo(Point(1, 1))), fill),),
            normalized=True,
        )
        assert parse_document(serialize_document(doc))[0].paths[0].fill == fill


class TestSerializeCommands:
    def test_mlc_path_data_exact(self):
        commands = (
            MoveTo(Point(0, 0)),
            LineTo(Point(10.5, -2)),
            CubicTo(Point(1 / 3, 2), Point(3.25, -0.001), Point(1024, 6.006)),
            MoveTo(Point(7, 8)),
            LineTo(Point(9, 9)),
        )
        doc = Document(NORMALIZED_VIEW_BOX, (PathElement(commands, Hex("00ff00")),),
                       normalized=True)
        assert serialize_document(doc) == (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024">'
            '<path d="M0 0L10.5 -2C0.33 2 3.25 0 1024 6.01M7 8L9 9" fill="#00ff00"/></svg>'
        )


class TestRoundtrip:
    def test_corpus_roundtrip(self, corpus):
        for name, text in corpus.items():
            doc, _ = parse_document(text)
            normalized, _ = normalize_document(doc)
            serialized = serialize_document(normalized)
            reparsed, _ = parse_document(serialized)
            assert document_equal(reparsed, normalized), name
            # serialization is bit-stable
            renorm, _ = normalize_document(reparsed)
            assert serialize_document(renorm) == serialized, name
