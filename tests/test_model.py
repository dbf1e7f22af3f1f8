import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svgforge.errors import ValidationError
from svgforge.model import (
    AffineTransform,
    CubicTo,
    Document,
    Hex,
    IDENTITY,
    LineTo,
    MoveTo,
    NORMALIZED_VIEW_BOX,
    NoFill,
    PathElement,
    Point,
    RawCommand,
    Reference,
    command_columns,
    document_equal,
    format_columns,
    format_number,
    typed_commands,
)


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (-0.0, "0"),
            (10.0, "10"),
            (0.5, "0.5"),
            (1 / 3, "0.33"),
            (-0.004, "0"),
            (-5.25, "-5.25"),
            (1024.0, "1024"),
            (2.50, "2.5"),
        ],
    )
    def test_canonical(self, value, expected):
        assert format_number(value) == expected

    def test_round_then_format_is_stable(self):
        for v in (0.005, 123.456, -7.891, 1e-3, 999.999):
            once = format_number(v)
            assert format_number(float(once)) == once


_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-0.01, 0.01),  # rounds to 0, -0 included
    st.integers(-2000, 2000).map(lambda n: n / 100),  # .d0 and .00 decimals
)


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("MLC"), st.lists(_COORD, min_size=6, max_size=6)),
                    max_size=8))
    def test_format_columns_writes_format_number_per_value(self, commands):
        ops = "".join(op for op, _ in commands)
        xy = [v for op, values in commands for v in values[:6 if op == "C" else 2]]
        expected, i = "", 0
        for op in ops:
            n = 6 if op == "C" else 2
            expected += op + " ".join(map(format_number, xy[i:i + n]))
            i += n
        assert format_columns(ops, xy) == expected

    def test_typed_and_columns_convert_both_ways(self):
        cmds = (MoveTo(Point(0, 1)), LineTo(Point(2, 3)),
                CubicTo(Point(4, 5), Point(6, 7), Point(8, 9)))
        assert command_columns(cmds) == ("MLC", [float(v) for v in range(10)])
        assert typed_commands(*command_columns(cmds)) == cmds

    def test_typed_commands_reject_the_first_non_finite_value(self):
        with pytest.raises(ValidationError, match="non-finite coordinate -inf"):
            typed_commands("MC", [0.0, 0.0, 1.0, -math.inf, math.nan, 2.0, 3.0, 4.0])


class TestRawCommand:
    def test_arity_multiple_allowed(self):
        cmd = RawCommand("L", (1, 2, 3, 4))
        assert command_columns([cmd]) == ("LL", [1, 2, 3, 4])

    def test_bad_arity(self):
        with pytest.raises(ValidationError):
            RawCommand("L", (1, 2, 3))

    def test_empty_args_rejected(self):
        with pytest.raises(ValidationError):
            RawCommand("M", ())

    def test_z_takes_no_args(self):
        assert command_columns([RawCommand("z")]) == ("z", [])
        with pytest.raises(ValidationError):
            RawCommand("Z", (1.0, 2.0))

    def test_unknown_opcode(self):
        with pytest.raises(ValidationError):
            RawCommand("B", (1, 2))

    def test_arc_flags_validated(self):
        RawCommand("a", (1, 1, 0, 0, 1, 5, 5))
        with pytest.raises(ValidationError):
            RawCommand("A", (1, 1, 0, 2, 1, 5, 5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            RawCommand("L", (float("inf"), 0))


class TestCommands:
    def test_finite_enforced(self):
        with pytest.raises(ValidationError):
            MoveTo(Point(float("nan"), 0))
        with pytest.raises(ValidationError):
            CubicTo(Point(0, 0), Point(float("inf"), 1), Point(2, 2))


class TestCommandLayout:
    COMMANDS = [
        (MoveTo(Point(1, 2)), "M"),
        (LineTo(Point(-3.5, 4)), "L"),
        (CubicTo(Point(1, 2), Point(3, 4), Point(5, 6)), "C"),
    ]

    @pytest.mark.parametrize("cmd,opcode", COMMANDS)
    def test_points_rebuild_the_command(self, cmd, opcode):
        assert cmd.opcode == type(cmd).opcode == opcode
        assert type(cmd)(*cmd.points) == cmd
        assert cmd.points[-1] == cmd.end

    def test_cubic_points_in_constructor_order(self):
        c1, c2, end = Point(1, 2), Point(3, 4), Point(5, 6)
        assert CubicTo(c1, c2, end).points == (c1, c2, end)

    def test_moveto_and_lineto_stay_distinct(self):
        p = Point(1, 2)
        assert MoveTo(p) != LineTo(p)
        assert not isinstance(LineTo(p), MoveTo) and not isinstance(MoveTo(p), LineTo)


class TestPathElement:
    def test_first_must_be_moveto(self):
        with pytest.raises(ValidationError):
            PathElement((LineTo(Point(1, 1)),))

    def test_no_consecutive_moveto(self):
        with pytest.raises(ValidationError):
            PathElement((MoveTo(Point(0, 0)), MoveTo(Point(1, 1))))

    @pytest.mark.parametrize("opcodes,error", [
        ("MLM", None),
        ("MLMLCML", None),
        ("MLMM", "consecutive MoveTo commands"),
        ("MCLMMC", "consecutive MoveTo commands"),
        ("LM", "first command must be MoveTo"),
        ("LMM", "first command must be MoveTo"),
    ])
    def test_moveto_rules_anywhere_in_the_path(self, opcodes, error):
        p = Point(1, 2)
        kinds = {"M": MoveTo, "L": LineTo, "C": lambda p: CubicTo(p, p, p)}
        cmds = tuple(kinds[op](p) for op in opcodes)
        if error is None:
            assert PathElement(cmds).commands == cmds
        else:
            with pytest.raises(ValidationError, match=error):
                PathElement(cmds)

    def test_mixing_is_checked_before_order(self):
        with pytest.raises(ValidationError, match="cannot mix"):
            PathElement((LineTo(Point(1, 1)), RawCommand("M", (0, 0))))

    def test_no_mixing_raw_and_normalized(self):
        with pytest.raises(ValidationError):
            PathElement((RawCommand("M", (0, 0)), LineTo(Point(1, 1))))

    def test_raw_commands_unconstrained_order(self):
        # raw mode predates normalization; ordering rules apply only after
        PathElement((RawCommand("M", (0, 0)), RawCommand("M", (1, 1))))


class TestReference:
    @pytest.mark.parametrize("ref_id", ["", "a)", "a b", "a\tb", "a\nb", "a\u00a0b", " a"])
    def test_ids_that_url_cannot_read_back_are_rejected(self, ref_id):
        with pytest.raises(ValidationError):
            Reference(ref_id)

    @pytest.mark.parametrize("ref_id", [
        "a\x01b", "\x00", "a\x1f", "\x0b", "a\ud800", "\udfff", "a\ufffe", "\uffff"])
    def test_ids_that_xml_cannot_carry_are_rejected(self, ref_id):
        with pytest.raises(ValidationError, match="XML 1.0 cannot carry"):
            Reference(ref_id)

    @pytest.mark.parametrize(
        "ref_id", ["g1", "a&b", "#'é(", "a#b", "a\x7fb", "\ufffd", "\U0001f600"])
    def test_other_ids_are_kept(self, ref_id):
        assert Reference(ref_id).ref_id == ref_id


class TestDocument:
    def test_positive_dimensions(self):
        with pytest.raises(ValidationError):
            Document((0, 0, 0, 100))
        with pytest.raises(ValidationError):
            Document((0, 0, 100, -5))

    def test_normalized_requires_canonical_viewbox(self):
        with pytest.raises(ValidationError):
            Document((0, 0, 100, 100), (), normalized=True)

    def test_normalized_rejects_raw_commands(self):
        raw = PathElement((RawCommand("M", (0, 0)), RawCommand("L", (1, 1))), Hex("000000"))
        with pytest.raises(ValidationError):
            Document(NORMALIZED_VIEW_BOX, (raw,), normalized=True)

    def test_normalized_rejects_unresolved_fill(self):
        p = PathElement((MoveTo(Point(0, 0)), LineTo(Point(1, 1))), None)
        with pytest.raises(ValidationError):
            Document(NORMALIZED_VIEW_BOX, (p,), normalized=True)

    def test_normalized_rejects_transform(self):
        p = PathElement(
            (MoveTo(Point(0, 0)), LineTo(Point(1, 1))),
            Hex("000000"),
            AffineTransform.translate(1, 0),
        )
        with pytest.raises(ValidationError):
            Document(NORMALIZED_VIEW_BOX, (p,), normalized=True)


class TestAffineTransform:
    def test_identity(self):
        assert IDENTITY.apply(3.5, -2.0) == (3.5, -2.0)
        assert IDENTITY.is_identity

    def test_compose_order(self):
        # (m1 @ m2)(p) == m1(m2(p))
        m1 = AffineTransform.translate(10, 0)
        m2 = AffineTransform.scale(2)
        composed = m1 @ m2
        assert composed.apply(3, 4) == m1.apply(*m2.apply(3, 4)) == (16, 8)

    def test_rotate_about_center(self):
        m = AffineTransform.rotate_deg(90, 10, 10)
        x, y = m.apply(20, 10)
        assert math.isclose(x, 10, abs_tol=1e-12)
        assert math.isclose(y, 20, abs_tol=1e-12)

    def test_det(self):
        assert AffineTransform.scale(2, 3).det == 6


def _doc(*paths):
    return Document((0, 0, 1024, 1024), tuple(paths))


class TestDocumentEqual:
    def test_empty_docs_equal(self):
        assert document_equal(_doc(), _doc())

    def test_fill_difference(self):
        a = _doc(PathElement((MoveTo(Point(0, 0)),), Hex("000000")))
        b = _doc(PathElement((MoveTo(Point(0, 0)),), Hex("ff0000")))
        assert not document_equal(a, b)

    def test_raw_mlc_equals_normalized(self):
        raw = _doc(
            PathElement((RawCommand("M", (0, 0)), RawCommand("L", (10, 10))), Hex("ff0000"))
        )
        normalized = _doc(
            PathElement((MoveTo(Point(0, 0)), LineTo(Point(10, 10))), Hex("ff0000"))
        )
        assert document_equal(raw, normalized)

    def test_rounding_grid(self):
        a = _doc(PathElement((MoveTo(Point(1.004, 0)),), Hex("000000")))
        b = _doc(PathElement((MoveTo(Point(1.0, 0)),), Hex("000000")))
        c = _doc(PathElement((MoveTo(Point(1.006, 0)),), Hex("000000")))
        assert document_equal(a, b)
        assert not document_equal(b, c)

    def test_equivalence_relation(self):
        docs = [
            _doc(PathElement((MoveTo(Point(0, 0)), LineTo(Point(5, 5))), Hex("001122"))),
            _doc(PathElement((MoveTo(Point(0.001, 0)), LineTo(Point(5, 5))), Hex("001122"))),
            _doc(PathElement((MoveTo(Point(9, 9)),), Hex("001122"))),
        ]
        for x in docs:
            assert document_equal(x, x)
        for x in docs:
            for y in docs:
                assert document_equal(x, y) == document_equal(y, x)
        for x in docs:
            for y in docs:
                for z in docs:
                    if document_equal(x, y) and document_equal(y, z):
                        assert document_equal(x, z)

    def test_paint_kinds_distinct(self):
        cmds = (MoveTo(Point(0, 0)), LineTo(Point(1, 1)))
        kinds = [Hex("000000"), NoFill(), Reference("g1"), None]
        docs = [_doc(PathElement(cmds, k)) for k in kinds]
        for i, a in enumerate(docs):
            for j, b in enumerate(docs):
                assert document_equal(a, b) == (i == j)
