"""Difficulty classification of normalized documents.

Icons are bucketed by color category (distinct-fill count) and total
command count. Shared bounds belong to the harder class by default:
Monochrome [0,50) is easy and [50,200] difficult, Multicolor [0,100) easy
and [100,200] difficult; anything above 200 is out of range rather than
silently clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import DifficultyLevel, Document, Hex, PathElement, Reference

MAX_COMMANDS = 200
MONO_BOUND = 50
MULTI_BOUND = 100

#: Serialized stand-in for documents beyond the 200-command corpus range.
OUT_OF_RANGE = "OutOfRange"


class ColorCategory(Enum):
    MONOCHROME = "Monochrome"
    MULTICOLOR = "Multicolor"


@dataclass(frozen=True, slots=True)
class Classification:
    """Color category, counts, and the resulting difficulty level.

    ``level`` is ``None`` for documents whose command count exceeds the
    corpus range; :attr:`level_name` then reads ``"OutOfRange"``.
    """

    color_category: ColorCategory
    command_count: int
    path_count: int
    level: DifficultyLevel | None

    @property
    def level_name(self) -> str:
        return self.level.value if self.level is not None else OUT_OF_RANGE


def count_commands(doc: Document) -> int:
    """Total M/L/C commands summed over all paths of a normalized document."""
    return sum(len(p.ops) for p in doc.paths)


def distinct_fills(doc: Document) -> set:
    """The set of distinct paints; gradient references count individually."""
    fills = set()
    for p in doc.paths:
        if isinstance(p, PathElement) and isinstance(p.fill, (Hex, Reference)):
            fills.add(p.fill)
    return fills


def _category(n_fills: int) -> ColorCategory:
    return ColorCategory.MONOCHROME if n_fills <= 1 else ColorCategory.MULTICOLOR


def detect_color_category(doc: Document) -> ColorCategory:
    """Monochrome iff at most one distinct fill appears across all paths.

    Each gradient/pattern reference counts as its own pseudo-color, so any
    reference alongside a flat fill makes the document multicolor.
    """
    return _category(len(distinct_fills(doc)))


def classify_counts(
    n_fills: int, n_commands: int, n_paths: int, *, shared_bound_to_harder: bool = True
) -> Classification:
    """Assign the difficulty level from a document's counts: distinct fills
    (as :func:`distinct_fills` counts them), M/L/C commands and paths.

    ``shared_bound_to_harder`` controls which class owns the shared table
    bounds (50 and 100): the default sends them to the harder class.
    """
    category = _category(n_fills)
    bound = MONO_BOUND if category is ColorCategory.MONOCHROME else MULTI_BOUND
    easy, hard = (
        (DifficultyLevel.MONOCOLOR_EASY, DifficultyLevel.MONOCOLOR_DIFFICULT)
        if category is ColorCategory.MONOCHROME
        else (DifficultyLevel.MULTICOLOR_EASY, DifficultyLevel.MULTICOLOR_DIFFICULT)
    )
    if n_commands > MAX_COMMANDS:
        level = None
    elif n_commands < bound or (n_commands == bound and not shared_bound_to_harder):
        level = easy
    else:
        level = hard
    return Classification(category, n_commands, n_paths, level)


def classify(doc: Document, *, shared_bound_to_harder: bool = True) -> Classification:
    """Assign the difficulty level of a normalized document (:func:`classify_counts`)."""
    return classify_counts(
        len(distinct_fills(doc)), count_commands(doc), len(doc.paths),
        shared_bound_to_harder=shared_bound_to_harder,
    )
