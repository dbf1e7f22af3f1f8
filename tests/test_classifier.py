import random
import re

import pytest

from svgforge.classifier import (
    Classification,
    ColorCategory,
    classify,
    count_commands,
    detect_color_category,
)
from svgforge.model import (
    DifficultyLevel,
    Document,
    Hex,
    LineTo,
    MoveTo,
    NORMALIZED_VIEW_BOX,
    PathElement,
    Point,
    Reference,
)
from svgforge.normalizer import normalize_document
from svgforge.parser import parse_document, serialize_document


def doc_with(n_commands: int, fills: list) -> Document:
    """A normalized document with exactly ``n_commands`` total commands."""
    paths = []
    remaining = n_commands
    k = len(fills)
    for i, fill in enumerate(fills):
        budget = remaining if i == k - 1 else max(1, remaining // (k - i))
        cmds = [MoveTo(Point(0, 0))]
        cmds.extend(LineTo(Point(j + 1, j + 1)) for j in range(budget - 1))
        paths.append(PathElement(tuple(cmds), fill))
        remaining -= budget
    return Document(NORMALIZED_VIEW_BOX, tuple(paths), normalized=True)


MONO = [Hex("000000")]
MULTI = [Hex("ff0000"), Hex("00ff00")]


class TestCountCommands:
    def test_empty_document(self):
        assert count_commands(Document(NORMALIZED_VIEW_BOX, (), normalized=True)) == 0

    def test_square_rect_is_five(self):
        doc, _ = parse_document(
            '<svg viewBox="0 0 1024 1024"><rect x="0" y="0" width="10" height="10"/></svg>'
        )
        norm, _ = normalize_document(doc)
        assert count_commands(norm) == 5

    def test_exact_construction(self):
        assert count_commands(doc_with(37, MONO)) == 37
        assert count_commands(doc_with(120, MULTI)) == 120

    def test_regex_oracle_over_corpus(self, corpus):
        for name, text in corpus.items():
            doc, _ = parse_document(text)
            norm, _ = normalize_document(doc)
            serialized = serialize_document(norm)
            tokens = sum(
                len(re.findall(r"[MLC]", m.group(1)))
                for m in re.finditer(r'd="([^"]*)"', serialized)
            )
            assert count_commands(norm) == tokens, name


class TestColorCategory:
    def test_single_color(self):
        assert detect_color_category(doc_with(5, MONO)) is ColorCategory.MONOCHROME

    def test_two_colors(self):
        assert detect_color_category(doc_with(5, MULTI)) is ColorCategory.MULTICOLOR

    def test_vacuous_empty(self):
        empty = Document(NORMALIZED_VIEW_BOX, (), normalized=True)
        assert detect_color_category(empty) is ColorCategory.MONOCHROME

    def test_gradient_counts_as_pseudo_color(self):
        doc = doc_with(6, [Hex("000000"), Reference("g1")])
        assert detect_color_category(doc) is ColorCategory.MULTICOLOR

    def test_reorder_invariance(self):
        doc = doc_with(12, [Hex("aa0000"), Hex("00aa00"), Hex("0000aa")])
        flipped = Document(doc.view_box, tuple(reversed(doc.paths)), normalized=True)
        assert detect_color_category(doc) is detect_color_category(flipped)

    def test_bijective_recolor_invariance(self):
        rng = random.Random(3)
        for _ in range(25):
            n_colors = rng.randint(1, 4)
            fills = [Hex(f"{rng.randrange(1 << 24):06x}") for _ in range(n_colors)]
            fills = list(dict.fromkeys(fills))
            doc = doc_with(4 * len(fills), fills)
            remap = {f: Hex(f"{rng.randrange(1 << 24):06x}") for f in fills}
            while len(set(remap.values())) != len(fills):
                remap = {f: Hex(f"{rng.randrange(1 << 24):06x}") for f in fills}
            recolored = Document(
                doc.view_box,
                tuple(PathElement(p.commands, remap[p.fill]) for p in doc.paths),
                normalized=True,
            )
            assert detect_color_category(doc) is detect_color_category(recolored)


class TestClassifyTable:
    @pytest.mark.parametrize(
        "count,fills,expected",
        [
            (0, [], DifficultyLevel.MONOCOLOR_EASY),
            (1, MONO, DifficultyLevel.MONOCOLOR_EASY),
            (49, MONO, DifficultyLevel.MONOCOLOR_EASY),
            (50, MONO, DifficultyLevel.MONOCOLOR_DIFFICULT),
            (200, MONO, DifficultyLevel.MONOCOLOR_DIFFICULT),
            (201, MONO, None),
            (2, MULTI, DifficultyLevel.MULTICOLOR_EASY),
            (49, MULTI, DifficultyLevel.MULTICOLOR_EASY),
            (50, MULTI, DifficultyLevel.MULTICOLOR_EASY),
            (99, MULTI, DifficultyLevel.MULTICOLOR_EASY),
            (100, MULTI, DifficultyLevel.MULTICOLOR_DIFFICULT),
            (200, MULTI, DifficultyLevel.MULTICOLOR_DIFFICULT),
            (201, MULTI, None),
        ],
    )
    def test_boundaries(self, count, fills, expected):
        doc = doc_with(count, fills) if fills else Document(
            NORMALIZED_VIEW_BOX, (), normalized=True
        )
        c = classify(doc)
        assert c.level is expected
        assert c.command_count == count

    def test_out_of_range_name(self):
        assert classify(doc_with(201, MONO)).level_name == "OutOfRange"

    def test_bound_ownership_configurable(self):
        doc = doc_with(50, MONO)
        assert classify(doc).level is DifficultyLevel.MONOCOLOR_DIFFICULT

    def test_monotonic_in_count(self):
        rank = {
            DifficultyLevel.MONOCOLOR_EASY: 0,
            DifficultyLevel.MONOCOLOR_DIFFICULT: 1,
            None: 2,
        }
        last = -1
        for n in range(0, 220, 7):
            doc = doc_with(n, MONO) if n else Document(NORMALIZED_VIEW_BOX, (), normalized=True)
            level = classify(doc).level
            assert rank[level] >= last
            last = rank[level]

    def test_total_on_corpus(self, corpus):
        for name, text in corpus.items():
            doc, _ = parse_document(text)
            norm, _ = normalize_document(doc)
            c = classify(norm)
            assert isinstance(c, Classification), name
            assert c.path_count == len(norm.paths)
            assert (c.level is None) == (c.command_count > 200)
