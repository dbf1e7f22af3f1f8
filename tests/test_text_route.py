"""The text route: canonical text is recognized, counted, spliced and typed
without a parse, and gives what the full parse-and-normalize route gives."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import colored_icons, write_corpus
from svgforge import normalizer, pipeline
from svgforge.augment import AugmentSpec
from svgforge.classifier import classify, distinct_fills
from svgforge.model import (
    NORMALIZED_VIEW_BOX,
    CubicTo,
    Document,
    Hex,
    LineTo,
    MoveTo,
    NO_FILL,
    PathElement,
    Point,
    Reference,
    command_columns,
)
from svgforge.normalizer import normalize_document, normalize_text
from svgforge.parser import (
    canonical_columns,
    canonical_paths,
    document_slices,
    parse_document,
    serialize_document,
    serialize_paths,
)
from svgforge.pipeline import (
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    DatasetRecord,
    _slices_record,
    run_augment,
    run_classify,
    run_normalize,
    run_score,
    run_verify,
)

HEAD = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024">'


def agrees(text) -> bool:
    """Whether ``canonical_paths`` matches ``text``; a match must agree with
    the full route on slices, record, distinct fills and coordinate columns."""
    paths = canonical_paths(text)
    if paths is None:
        return False
    doc = normalize_document(parse_document(text)[0])[0]
    svg = serialize_document(doc)
    assert svg == text.strip()
    assert paths == document_slices(doc)
    assert serialize_paths(paths) == svg
    c = classify(doc)
    assert _slices_record("x", paths, svg) == DatasetRecord(
        "x", svg, c.color_category.value, c.level_name, c.command_count, c.path_count)
    assert len({fill for _, fill in paths}) == len(distinct_fills(doc))
    # the columns that verify reads are the typed document's floats, to the bit
    columns = [(ops, [x.hex() for x in xy]) for ops, xy in canonical_columns(paths)]
    assert columns == [(ops, [x.hex() for x in xy])
                       for ops, xy in map(command_columns, (p.commands for p in doc.paths))]
    return True


# --- generated normalized documents ---------------------------------------------

# ids the recognizer accepts, then characters it must decline or see escaped
SAFE_ID = "aZ09_.:-&<>\""
_MODERATE = st.one_of(
    st.integers(-2000, 2000).map(float),
    st.integers(-200000, 200000).map(lambda n: n / 100),
    st.floats(-1e4, 1e4, allow_nan=False),
    st.floats(-1e-2, 1e-2, allow_nan=False),  # rounds to 0, -0 included
)
# a huge number in a document almost always crosses the 13-digit bound
_ANY = st.one_of(_MODERATE, st.floats(-1e17, 1e17, allow_nan=False))
_fills = st.one_of(
    st.text("0123456789abcdef", min_size=6, max_size=6).map(Hex),
    st.text(SAFE_ID, min_size=1, max_size=5).map(Reference),
    st.text(SAFE_ID + "#'é", min_size=1, max_size=5).map(Reference),
)


@st.composite
def normalized_documents(draw):
    numbers = draw(st.sampled_from([_MODERATE, _ANY]))
    points = st.builds(Point, numbers, numbers)
    segments = st.lists(
        st.one_of(st.builds(LineTo, points), st.builds(CubicTo, points, points, points)),
        min_size=1, max_size=4,
    )
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        cmds = []
        for subpath in draw(st.lists(segments, min_size=1, max_size=3)):
            cmds += [MoveTo(draw(points)), *subpath]
        paths.append(PathElement(tuple(cmds), draw(_fills)))
    return Document(NORMALIZED_VIEW_BOX, tuple(paths), normalized=True)


def _surely_canonical(doc) -> bool:
    """Every number well inside 13 digits and every id in the accepted set."""
    values = [v for p in doc.paths for c in p.commands for pt in c.points for v in pt]
    ids = [p.fill.ref_id for p in doc.paths if isinstance(p.fill, Reference)]
    return (all(abs(v) < 1e12 for v in values)
            and all(i and set(i) <= set(SAFE_ID) for i in ids))


def _slices_and_canonical(text):
    """``normalize_text``'s slices, and whether ``text`` is their canonical text."""
    paths, _, svg = normalize_text(text)
    return paths, svg == text.strip()


@settings(max_examples=300, deadline=None)
@given(normalized_documents())
def test_serialized_documents_are_recognized_or_declined_in_agreement(doc):
    text = serialize_document(doc)
    matched = agrees(text)
    if _surely_canonical(doc):
        assert matched
    assert agrees(f"\n {text}\t\r\n") == matched
    assert _slices_and_canonical(text) == (document_slices(doc), True)
    assert _slices_and_canonical(_uncanonical(text)) == (document_slices(doc), False)


_EDITS = "ML C0123456789.-# \"<>/&;=()abfu"


@settings(max_examples=300, deadline=None)
@given(normalized_documents(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                                                  st.sampled_from(_EDITS)), min_size=1, max_size=3))
def test_edited_text_is_declined_or_agrees(doc, edits):
    text = serialize_document(doc)
    for where, kind, char in edits:
        i = where % (len(text) + 1)
        if kind == 0:
            text = text[:i] + char + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i + 1:]
    agrees(text)  # the full route runs only on a match, so it must not raise


# --- near misses ----------------------------------------------------------------

BASE = HEAD + '<path d="M12 0L10.5 10C1 2 3 4 5 6" fill="#ff0000"/>' + "</svg>"
GRADIENT = HEAD + '<path d="M0 0L9 9L0 9L0 0" fill="url(#a&amp;b)"/>' + "</svg>"


def _path(d="M12 0L10.5 10", fill="#ff0000"):
    return f'{HEAD}<path d="{d}" fill="{fill}"/></svg>'


NEAR_MISSES = {
    "minus zero": _path("M-0 0L10.5 10"),
    "trailing zero": _path("M12 0L1.10 10"),
    "integer with a zero decimal": _path("M12.0 0L10.5 10"),
    "leading zero": _path("M012 0L10.5 10"),
    "bare fraction": _path("M.5 0L10.5 10"),
    "plus sign": _path("M+12 0L10.5 10"),
    "exponent": _path("M1e1 0L10.5 10"),
    "three decimals": _path("M12.125 0L10.5 10"),
    "non-ASCII digit": _path("M٣ 0L10.5 10"),
    "non-ASCII later digit": _path("M1٣ 0L10.5 10"),
    "non-ASCII decimal": _path("M1.٣5 0L10.5 10"),
    "five numbers to a C": _path("M12 0C1 2 3 4 5"),
    "three numbers to an L": _path("M12 0L1 2 3"),
    "uppercase hex": _path(fill="#FF0000"),
    "short hex": _path(fill="#f00"),
    "doubled M": _path("M12 0M1 1L10.5 10"),
    "trailing M": _path("M12 0L10.5 10M5 5"),
    "leading L": _path("L12 0L10.5 10"),
    "close path": _path("M12 0L10.5 10Z"),
    "relative command": _path("M12 0l10.5 10"),
    "double space": _path("M12  0L10.5 10"),
    "space before command": _path("M12 0 L10.5 10"),
    "comma": _path("M12,0L10.5 10"),
    "space before the tail": BASE.replace("/></svg>", "/> </svg>"),
    "space between paths": BASE.replace("/></svg>", '/> <path d="M0 0L1 1" fill="#000000"/></svg>'),
    "space in the head": BASE.replace("<svg ", "<svg  "),
    "swapped attributes": f'{HEAD}<path fill="#ff0000" d="M12 0L10.5 10"/></svg>',
    "swapped root attributes": BASE.replace(
        'xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024"',
        'viewBox="0 0 1024 1024" xmlns="http://www.w3.org/2000/svg"'),
    "character reference in an id": _path(fill="url(#a&#65;)"),
    "bare ampersand in an id": _path(fill="url(#a&b)"),
    "space in an id": _path(fill="url(#a b)"),
    "empty id": _path(fill="url(#)"),
    "parenthesis in an id": _path(fill="url(#a))"),
    "apostrophe in an id": _path(fill="url(#a'b)"),
    "fill none": _path(fill="none"),
    "no path": HEAD + "</svg>",
    "16-digit integer": _path("M1234567890123456 0L10.5 10"),
    "17-digit integer": _path("M12345678901234567 0L10.5 10"),
    "form feed before the root": "\f" + BASE,
    "byte order mark": "\ufeff" + BASE,
    "XML declaration": '<?xml version="1.0"?>' + BASE,
    "not a string": BASE.encode(),
}


def test_base_texts_are_recognized():
    assert agrees(BASE) and agrees(GRADIENT)
    assert agrees(_path("M9999999999999.99 -9999999999999.99L-0.01 0.1"))
    assert canonical_paths(GRADIENT) == [("M0 0L9 9L0 9L0 0", "url(#a&amp;b)")]
    assert normalize_document(parse_document(GRADIENT)[0])[0].paths[0].fill == Reference("a&b")


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_misses_are_declined(name):
    assert canonical_paths(NEAR_MISSES[name]) is None


# --- the two routes give the same rows ------------------------------------------


def _uncanonical(svg: str) -> str:
    """``svg`` with its first number written with a redundant decimal, as
    ``12`` is ``12.0``: the same document, but not canonical text."""
    m = re.search(r'd="M(-?[0-9.]+)', svg)
    number = m.group(1)
    return svg[:m.start(1)] + number + ("0" if "." in number else ".0") + svg[m.end(1):]


def _square(x, y, size, fill):
    return (f'<path d="M{x} {y}L{x + size} {y}L{x + size} {y + size}L{x} {y + size}Z" '
            f'fill="{fill}"/>')


EXTRA_ICONS = {
    "gradient_only": f'<svg viewBox="0 0 24 24">{_square(0, 0, 9, "url(#g)")}</svg>',
    "gradient_pair": (f'<svg viewBox="0 0 96 96">{_square(0, 0, 9, "url(#g)")}'
                      f'{_square(50, 50, 9, "#00ff00")}</svg>'),
    "overlap": (f'<svg viewBox="0 0 96 96">{_square(0, 0, 50, "#f00")}'
                f'{_square(25, 25, 50, "#0f0")}</svg>'),
    # boxes apart by half a unit on one axis, then touching
    "near_x": (f'<svg viewBox="0 0 1024 1024">{_square(0, 0, 100, "#f00")}'
               f'{_square(100.5, 0, 100, "#0f0")}{_square(200.5, 0, 100, "#00f")}</svg>'),
    "near_y": (f'<svg viewBox="0 0 1024 1024">{_square(0, 0, 100, "#f00")}'
               f'{_square(0, 100.5, 100, "#0f0")}{_square(0, 200.5, 100, "#00f")}</svg>'),
    "single": f'<svg viewBox="0 0 96 96">{_square(5, 5, 50, "#f00")}</svg>',
}


@pytest.fixture(scope="module")
def norm_dirs(tmp_path_factory):
    """A directory of normalized icons and the same icons with one number
    rewritten, so that every file takes the other route."""
    root = tmp_path_factory.mktemp("routes")
    raw, norm, rewritten = root / "raw", root / "norm", root / "rewritten"
    write_corpus(raw, {**colored_icons(24, seed=11), **EXTRA_ICONS})
    assert run_normalize(raw, norm) == EXIT_OK
    rewritten.mkdir()
    for path in sorted(norm.glob("*.svg")):
        text = path.read_text()
        assert canonical_paths(text) is not None
        other = _uncanonical(text)
        assert canonical_paths(other) is None
        (rewritten / path.name).write_text(other)
    return raw, norm, rewritten


def _rows(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def test_classify_rows_are_the_same_on_both_routes(norm_dirs, tmp_path):
    _, norm, rewritten = norm_dirs
    assert run_classify(norm, tmp_path / "a.jsonl") == EXIT_OK
    assert run_classify(rewritten, tmp_path / "b.jsonl") == EXIT_OK
    text_rows, full_rows = _rows(tmp_path / "a.jsonl"), _rows(tmp_path / "b.jsonl")
    assert not any("auto_normalized" in row for row in text_rows)
    assert all(row.pop("auto_normalized") is True for row in full_rows)
    assert text_rows == full_rows


@pytest.mark.parametrize("route", ["text", "full"])
def test_normalize_over_its_own_outputs_writes_the_same_bytes(norm_dirs, tmp_path, monkeypatch,
                                                              route):
    _, norm, rewritten = norm_dirs
    real, parsed = normalizer.parse_document, []
    monkeypatch.setattr(normalizer, "parse_document", lambda text: parsed.append(text) or real(text))
    again, report = tmp_path / "again", tmp_path / "report.json"
    assert run_normalize(norm if route == "text" else rewritten, again,
                         report_path=report) == EXIT_OK
    names = sorted(path.name for path in norm.glob("*.svg"))
    assert len(parsed) == (0 if route == "text" else len(names))
    assert sorted(path.name for path in again.glob("*.svg")) == names
    for name in names:
        assert (again / name).read_bytes() == (norm / name).read_bytes(), name
    counters = json.loads(report.read_text())
    assert counters.pop("files_total") == len(names)
    assert all(value in (0, {}) for value in counters.values()), counters


@pytest.mark.parametrize("ops,spec", [
    (("recolor",), {}),
    (("swap",), {}),
    (("recolor", "swap"), {}),
    (("recolor", "swap"), {"n_variants": 3}),
    (("recolor", "swap"), {"palette": ("#111111", "#222222", "#333333", "#444444")}),
    (("swap",), {"allow_overlap_swap": True, "n_variants": 2}),
    (("recolor", "swap"), {"palette": ("#111111", "#222222", "#333333"),
                           "allow_overlap_swap": True}),
])
def test_augment_rows_are_the_same_on_both_routes(norm_dirs, tmp_path, ops, spec):
    _, norm, _ = norm_dirs
    records = tmp_path / "records.jsonl"
    assert run_classify(norm, records) == EXIT_OK
    rewritten = tmp_path / "rewritten.jsonl"
    rewritten.write_text("".join(json.dumps(dict(row, svg=_uncanonical(row["svg"]))) + "\n"
                                 for row in _rows(records)))
    spec = AugmentSpec(seed=5, **spec)
    assert run_augment(records, tmp_path / "a.jsonl", spec, ops) == EXIT_OK
    assert run_augment(rewritten, tmp_path / "b.jsonl", spec, ops) == EXIT_OK
    text_rows = _rows(tmp_path / "a.jsonl")
    assert text_rows and text_rows == _rows(tmp_path / "b.jsonl")


def test_score_rows_are_the_same_on_both_routes(norm_dirs, tmp_path):
    _, norm, _ = norm_dirs
    texts = [p.read_text() for p in sorted(norm.glob("*.svg"))]
    rng = random.Random(2)
    pairs = [{"id": f"p{i}_{j}", "generated": generated, "reference": reference}
             for i, reference in enumerate(texts)
             for j, generated in enumerate([reference, rng.choice(texts), reference[:-10]])]
    sides = []
    for name, rewrite in (("a", str), ("b", _uncanonical)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(
            json.dumps(dict(row, generated=rewrite(row["generated"]),
                            reference=rewrite(row["reference"]))) + "\n" for row in pairs))
        assert run_score(path, tmp_path / f"{name}_out.jsonl") == EXIT_OK
        sides.append([{k: v for k, v in row.items() if k not in ("generated", "reference")}
                      for row in _rows(tmp_path / f"{name}_out.jsonl")])
    assert sides[0] == sides[1]
    assert {row["integrity"] for row in sides[0]} == {0.0, 1.0}


def test_verify_reports_are_the_same_on_both_routes(norm_dirs, tmp_path, monkeypatch):
    raw, norm, _ = norm_dirs
    assert run_verify(raw, norm, 0.5, tmp_path / "a.jsonl") == EXIT_OK
    monkeypatch.setattr(normalizer, "canonical_paths", lambda text: None)
    assert run_verify(raw, norm, 0.5, tmp_path / "b.jsonl") == EXIT_OK
    assert _rows(tmp_path / "a.jsonl") == _rows(tmp_path / "b.jsonl")


def test_rewritten_norm_file_fails_verify_as_not_normalized(norm_dirs, tmp_path):
    raw, norm, rewritten = norm_dirs
    only_raw, only_norm = tmp_path / "raw", tmp_path / "norm"
    only_raw.mkdir()
    only_norm.mkdir()
    for name in ("single.svg", "overlap.svg"):
        (only_raw / name).write_text((raw / name).read_text())
    (only_norm / "single.svg").write_text((norm / "single.svg").read_text())
    (only_norm / "overlap.svg").write_text((rewritten / "overlap.svg").read_text())
    report = tmp_path / "report.jsonl"
    assert run_verify(only_raw, only_norm, 0.5, report) == EXIT_VERIFY_FAILED
    overlap, single = _rows(report)
    assert single["pass"] is True
    assert overlap == {"id": "overlap", "pass": False, "worst_path_deviation": None,
                       "error": "NotNormalized: overlap.svg differs from its normalized form"}


# --- augment: a recolor with no flat fill says so ----------------------------------


@pytest.mark.parametrize("canonical", [True, False])
def test_recolor_without_flat_fill_logs_a_note(tmp_path, caplog, canonical):
    svg = GRADIENT if canonical else _uncanonical(GRADIENT)
    assert (canonical_paths(svg) is not None) is canonical
    row = {"id": "grad", "svg": svg, "color_category": "Monochrome",
           "difficulty_level": "Monocolor_easy", "command_count": 4, "path_count": 1}
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(row) + "\n")
    out = tmp_path / "aug.jsonl"
    with caplog.at_level("INFO", logger="svgforge"):
        assert run_augment(records, out, AugmentSpec(seed=1, n_variants=2), ("recolor",)) == EXIT_OK
    assert out.read_text() == ""
    notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("augment: ")]
    assert notes == [f"augment: grad variant {k}: no flat fill to recolor" for k in (0, 1)]


# --- every reader reads the slices of the written text -----------------------------


def test_swap_guard_judges_the_written_boxes(tmp_path, caplog):
    # raw boxes 0.0009 apart, which both round to a shared edge at x=10
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024">'
           '<path d="M0 0H10.004V10H0Z" fill="#ff0000"/>'
           '<path d="M10.0049 0H20V10H10.0049Z" fill="#00ff00"/></svg>')
    row = {"id": "near", "svg": svg, "color_category": "Multicolor",
           "difficulty_level": "Multicolor_easy", "command_count": 10, "path_count": 2}
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(row) + "\n")
    out = tmp_path / "aug.jsonl"
    with caplog.at_level("INFO", logger="svgforge"):
        assert run_augment(records, out, AugmentSpec(seed=1), ("swap",)) == EXIT_OK
    assert out.read_text() == ""
    notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("augment: ")]
    assert notes == ["augment: near variant 0: NoSwapAvailable: no adjacent disjoint pair"]


def test_record_from_document_classifies_as_classify_does():
    square = (MoveTo(Point(0, 0)), LineTo(Point(9, 0)), LineTo(Point(9, 9)))
    doc = Document(NORMALIZED_VIEW_BOX, (PathElement(square, NO_FILL),
                                         PathElement(square, Hex("ff0000"))), normalized=True)
    c = classify(doc)
    assert pipeline.record_from_document("x", doc) == DatasetRecord(
        "x", serialize_document(doc), c.color_category.value, c.level_name, c.command_count,
        c.path_count)
