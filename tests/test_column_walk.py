"""The column scan and the one walk against the command-object route they
replaced (``reference_walk.py``), and the CLI's path free of command objects."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_walk import reference_columns
from svgforge import pipeline
from svgforge.model import PathElement, RawCommand
from svgforge.normalizer import NormalizeReport, element_columns
from svgforge.pathdata import parse_path_data, scan_path_data

_NUMBERS = st.one_of(
    st.integers(-40, 40).map(str),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", ".5", "-.25", "5.", "+6", "2E-2", "1e3", "-3e-2", "0.000001",
                     "1e308", "-1e308", "1.7e308", "9e307", "1e-320", "1e999"]),
)
_RADII = st.one_of(st.integers(0, 30).map(str), st.sampled_from(["1e-160", "1e300", "0.5"]))
_ARITY = {"M": 2, "L": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "T": 2, "Z": 0}


@st.composite
def _group(draw, letter):
    upper = letter.upper()
    if upper == "A":
        rx, ry, rot = draw(_RADII), draw(_RADII), draw(_NUMBERS)
        flags = draw(st.sampled_from(["00", "01", "10", "11"]))
        x, y = draw(_NUMBERS), draw(_NUMBERS)
        if draw(st.booleans()):  # flags juxtaposed with the number after them
            return f"{rx} {ry} {rot} {flags}{x} {y}"
        return f"{rx},{ry} {rot} {flags[0]} {flags[1]} {x},{y}"
    return " ".join(draw(_NUMBERS) for _ in range(_ARITY[upper]))


@st.composite
def _path_data(draw):
    parts = []
    for i in range(draw(st.integers(1, 9))):
        letter = draw(st.sampled_from("Mm") if i == 0 else st.sampled_from("MmLlHhVvCcSsQqTtAaZz"))
        if letter in "Zz":
            parts.append(letter)
            continue
        repeats = draw(st.integers(1, 3))  # groups after the first repeat the letter
        parts.append(letter + " ".join(draw(_group(letter)) for _ in range(repeats)))
    d = draw(st.sampled_from(["", " ", "\n"])).join(parts)
    if draw(st.integers(0, 9)) == 0:  # a malformed tail
        d += draw(st.sampled_from(["X", "L", "A1 1 0 2 1 5 5", "C1 2", ",", "L1e999 0"]))
    return d


def _outcome(columns_of, d):
    report = NormalizeReport()
    try:
        columns = columns_of(d, report)
    except Exception as exc:
        return type(exc).__name__, str(exc), report.as_dict()
    if columns is None:
        return None, report.as_dict()
    ops, xy = columns
    return ops, [float(v).hex() for v in xy], report.as_dict()


def _column_route(d, report):
    ops, args = scan_path_data(d)
    kept = element_columns(PathElement(ops=ops, args=args), report)
    return None if kept is None else kept[1]


class TestOneWalkMatchesTheCommandRoute:
    """Columns, report counters and errors, to the bit, against the scan,
    walk and segment mapping that built a command object per group."""

    @settings(max_examples=800, deadline=None)
    @given(_path_data())
    @example("M0 0L1 1H-0V-0h-0v-0C1 2 3 4 5 6S7 8 9 10Q1 2 3 4T5 6A1 2 3 0 1 7 8Z"
             "m1 1l1 1h1v1c1 2 3 4 5 6s7 8 9 10q1 2 3 4t5 6a1 2 3 1 0 7 8z")
    @example("m1 2 3 4 5 6l1 1 2 2c1 1 2 2 3 3 4 4 5 5 6 6t1 1 2 2")
    @example("M0 0a1 1 0 011 1 1 1 0 0 1 2 2")
    @example("M0 0L5 5S1 1 2 2M3 3T4 4Q1 1 2 2T5 5")
    @example("M1 1L5 5zl1 1zm2 2zc1 1 2 2 3 3")
    @example("M1e3 2E-2l-3e-2 .5")
    @example("m1e308 0 l1e308 0")
    @example("M1e308 0 c1e308 0 -1e308 0 -1e308 0")
    @example("M0 0A1e-160 1e-160 0 0 1 10 0")
    @example("M0 0A1e-160 1e-160 0 0 1 10 0l1e308 0L1e308 0l1e308 0")
    @example("M1e308 0l1e308 0A1e-160 1e-160 0 0 1 10 0")
    @example("M0 0Q-1e308 0 1e308 0L1e308 0l1e308 0")
    @example("M-1e308 0C0 0 1e308 0 1e308 0S0 0 0 0l1e308 0L1e308 0 l1e308 0")
    @example("M-1e308 0C0 0 1e308 0 1e308 0S0 0 0 0L5 5Z")
    @example("M0 0L1 1X")
    @example("M0 0L1e999 0L1 1X")
    @example("M0 0L1 1X1e999")
    def test_same_columns_counts_and_errors(self, d):
        assert _outcome(_column_route, d) == _outcome(reference_columns, d)

    def test_relative_groups_are_the_lowercase_letters(self):
        d = "m1 1 2 2l1 1 2 2h3 4c1 1 2 2 3 3s1 1 2 2q1 1 2 2t1 1a3 3 0 0 1 2 2v5zM5 5l1 1z"
        ops, args = scan_path_data(d)
        report = NormalizeReport()
        element_columns(PathElement(ops=ops, args=args), report)
        assert report.relative_resolved == sum(map(str.islower, ops)) == 15

    def test_tiny_arc_radii_still_overflow(self):
        # an arc with radii near 1e-160 cannot be converted yet
        with pytest.raises(OverflowError):
            _column_route("M0 0A1e-160 1e-160 0 0 1 10 0", NormalizeReport())

    def test_scan_columns_type_as_the_parsed_commands(self):
        d = "M0 0 1 1a1 1 0 011 1 1 1 0 1 0 2 2zh1e3"
        ops, args = scan_path_data(d)
        assert ops == "MLaazh"
        assert [(c.opcode, c.args) for c in parse_path_data(d)] == [
            ("M", (0.0, 0.0)), ("L", (1.0, 1.0)), ("a", (1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)),
            ("a", (1.0, 1.0, 0.0, 1.0, 0.0, 2.0, 2.0)), ("z", ()), ("h", (1e3,)),
        ]
        assert math.isfinite(sum(args))


class TestNoCommandObjectOnTheCliPath:
    @pytest.fixture
    def spy(self, monkeypatch):
        built = []
        check = RawCommand.__post_init__

        def counted(self):
            built.append(self.opcode)
            check(self)

        monkeypatch.setattr(RawCommand, "__post_init__", counted)
        return built

    def test_the_spy_sees_a_raw_command(self, spy):
        parse_path_data("M0 0L1 1")
        assert spy == ["M", "L"]

    def test_normalize_and_verify_build_no_raw_command(self, spy, corpus_dir, tmp_path):
        norm = tmp_path / "norm"
        assert pipeline.run_normalize(corpus_dir, norm) == pipeline.EXIT_OK
        pipeline.run_verify(corpus_dir, norm, out_path=tmp_path / "verify.jsonl")
        assert (tmp_path / "verify.jsonl").read_text().count('"pass": true') > 10
        assert spy == []
