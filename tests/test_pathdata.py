import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svgforge.errors import PathSyntax, UnexpectedEnd
from svgforge.model import ARC_FLAG_INDICES, PARAM_COUNTS, RawCommand
from svgforge.pathdata import NUMBER, parse_path_data


def ops(commands):
    return [(c.opcode, c.args) for c in commands]


class TestBasics:
    def test_two_commands(self):
        assert ops(parse_path_data("M0,0 L10,10")) == [("M", (0, 0)), ("L", (10, 10))]

    def test_empty_is_valid(self):
        assert parse_path_data("") == []
        assert parse_path_data("   \t\n") == []

    def test_must_start_with_moveto(self):
        with pytest.raises(PathSyntax):
            parse_path_data("L10 10")

    def test_z_variants(self):
        cmds = parse_path_data("M0 0L1 1zM2 2L3 3Z")
        assert [c.opcode for c in cmds] == ["M", "L", "z", "M", "L", "Z"]


class TestImplicitRepetition:
    def test_moveto_becomes_lineto(self):
        # per the grammar, extra moveto pairs are implicit linetos
        assert ops(parse_path_data("m 0 0 10 10")) == [("m", (0, 0)), ("l", (10, 10))]

    def test_absolute_moveto_repetition(self):
        assert ops(parse_path_data("M 0 0 10 10 20 0")) == [
            ("M", (0, 0)), ("L", (10, 10)), ("L", (20, 0)),
        ]

    def test_lineto_repetition(self):
        assert ops(parse_path_data("M0 0L1 1 2 2 3 3")) == [
            ("M", (0, 0)), ("L", (1, 1)), ("L", (2, 2)), ("L", (3, 3)),
        ]

    def test_cubic_repetition(self):
        cmds = parse_path_data("M0 0C1 1 2 2 3 3 4 4 5 5 6 6")
        assert [c.opcode for c in cmds] == ["M", "C", "C"]


class TestNumbers:
    def test_scientific_notation(self):
        cmds = parse_path_data("M1e1 1.5e1L2.5e1 .5e1l1e-1 0")
        assert cmds[0].args == (10.0, 15.0)
        assert cmds[1].args == (25.0, 5.0)
        assert cmds[2].args == (0.1, 0.0)

    def test_chained_decimals(self):
        # "1.5.5" is two numbers under the grammar
        assert parse_path_data("M1.5.5")[0].args == (1.5, 0.5)

    def test_juxtaposed_signs(self):
        assert parse_path_data("M1-2")[0].args == (1.0, -2.0)

    def test_trailing_dot(self):
        assert parse_path_data("M1. 2.")[0].args == (1.0, 2.0)

    def test_overflow_is_positioned_error(self):
        with pytest.raises(PathSyntax):
            parse_path_data("M0 0L1e999 0")


class TestArcFlags:
    def test_juxtaposed_flags(self):
        cmds = parse_path_data("M0 0a1 1 0 011 1")
        assert cmds[1].args == (1, 1, 0, 0, 1, 1, 1)

    def test_fully_packed(self):
        cmds = parse_path_data("M0 0A1.5.5 0 1020 0")
        assert cmds[1].args == (1.5, 0.5, 0, 1, 0, 20, 0)

    def test_bad_flag(self):
        with pytest.raises(PathSyntax):
            parse_path_data("M0 0A1 1 0 2 1 5 5")


class TestErrors:
    def test_missing_arguments(self):
        with pytest.raises(UnexpectedEnd):
            parse_path_data("M0 0 A")

    def test_partial_group(self):
        with pytest.raises(UnexpectedEnd):
            parse_path_data("M0 0 L")

    def test_junk_token(self):
        with pytest.raises(PathSyntax) as err:
            parse_path_data("M0 0X5 5")
        assert err.value.offset == 4

    def test_error_offset_in_bounds(self):
        for text in ("M0 0 L# 3", "M0 0 Q1", "Mx"):
            with pytest.raises(PathSyntax) as err:
                parse_path_data(text)
            assert 0 <= err.value.offset <= len(text)


class TestTotality:
    @given(st.text(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_never_crashes_on_text(self, text):
        try:
            result = parse_path_data(text)
        except PathSyntax:
            return
        assert all(isinstance(c, RawCommand) for c in result)

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_on_bytes(self, data):
        text = data.decode("latin-1")
        try:
            parse_path_data(text)
        except PathSyntax:
            pass

    @given(st.text(alphabet="MmLlHhVvCcSsQqTtAaZz0123456789.,- e", max_size=80))
    @settings(max_examples=500, deadline=None)
    def test_grammar_soup(self, text):
        try:
            parse_path_data(text)
        except PathSyntax:
            pass


# --- the per-token scanner that group patterns replaced, kept as a reference ---

_REF_WSP = re.compile(r"[ \t\r\n\f,]*")


def _ref_skip(d, pos):
    return _REF_WSP.match(d, pos).end()


def _ref_number(d, pos, opcode):
    pos = _ref_skip(d, pos)
    if pos >= len(d):
        raise UnexpectedEnd(pos, f"missing arguments for {opcode!r}")
    m = NUMBER.match(d, pos)
    if m is None:
        raise PathSyntax(pos, f"expected number for {opcode!r}, got {d[pos]!r}")
    value = float(m.group())
    if not math.isfinite(value):
        raise PathSyntax(pos, f"number out of range: {m.group()!r}")
    return value, m.end()


def _ref_flag(d, pos, opcode):
    pos = _ref_skip(d, pos)
    if pos >= len(d):
        raise UnexpectedEnd(pos, f"missing arc flag for {opcode!r}")
    if d[pos] not in "01":
        raise PathSyntax(pos, f"arc flag must be 0 or 1, got {d[pos]!r}")
    return float(d[pos]), pos + 1


def _ref_group(d, pos, opcode):
    args = []
    for i in range(PARAM_COUNTS[opcode.upper()]):
        scan = _ref_flag if opcode in "Aa" and i in ARC_FLAG_INDICES else _ref_number
        value, pos = scan(d, pos, opcode)
        args.append(value)
    return tuple(args), pos


def reference_parse(d):
    commands = []
    pos = _ref_skip(d, 0)
    if pos >= len(d):
        return commands
    if d[pos] not in "Mm":
        raise PathSyntax(pos, f"path must start with a moveto, got {d[pos]!r}")
    while pos < len(d):
        opcode = d[pos]
        if opcode not in "MmLlHhVvCcSsQqTtAaZz":
            raise PathSyntax(pos, f"expected command letter, got {opcode!r}")
        pos += 1
        if opcode in "Zz":
            commands.append(RawCommand(opcode))
            pos = _ref_skip(d, pos)
            continue
        group, pos = _ref_group(d, pos, opcode)
        commands.append(RawCommand(opcode, group))
        repeat = {"M": "L", "m": "l"}.get(opcode, opcode)
        pos = _ref_skip(d, pos)
        while pos < len(d) and d[pos] in "+-.0123456789":
            group, pos = _ref_group(d, pos, repeat)
            commands.append(RawCommand(repeat, group))
            pos = _ref_skip(d, pos)
    return commands


def outcome(parse, d):
    """The commands ``parse`` reads from ``d``, or its error's type, offset and message."""
    try:
        return ops(parse(d))
    except (PathSyntax, UnexpectedEnd) as exc:
        return type(exc).__name__, exc.offset, str(exc)


# whole tokens reach deep into valid paths, which single characters rarely do
_TOKENS = st.sampled_from([
    "M", "m", "L", "l", "H", "v", "C", "c", "S", "Q", "t", "A", "a", "Z", "z",
    " ", ",", "\t", "0", "1", "01", "439", "-2.5", ".5", "5.", "+6", "1e3", "2E-2",
    "1e999", "e", ".", "-", "x",
])


class TestGroupPatterns:
    @given(st.text(alphabet="MmLlHhVvCcSsQqTtAaZz0123456789.,- e\t+", max_size=80))
    @settings(max_examples=500, deadline=None)
    @example("M\t439L+6Tm")
    @example("M0 0A1.5.5 0 1020 0a1 1 0 011 1 1 1 0 2")
    @example("M0 0L1e999 0 2e999")
    def test_matches_the_per_token_scanner(self, d):
        assert outcome(parse_path_data, d) == outcome(reference_parse, d)

    @given(st.lists(_TOKENS, max_size=40).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_token_scanner_on_tokens(self, d):
        assert outcome(parse_path_data, d) == outcome(reference_parse, d)

    def test_a_number_is_not_split_to_fill_a_group(self):
        # a pattern whose numbers could backtrack would read "439" as 43 and 9
        # and fail at offset 8 on the 'T' that follows "+6"
        assert outcome(parse_path_data, "M\t439L+6Tm") == (
            "PathSyntax", 5, "at offset 5: expected number for 'M', got 'L'"
        )
