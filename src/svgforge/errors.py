"""Exception hierarchy for svgforge.

Every error raised by the library derives from :class:`SvgForgeError`, so
callers that need a blanket "this input is bad" check (e.g. the integrity
reward) can catch one type.
"""

from __future__ import annotations


class SvgForgeError(Exception):
    """Base class for all svgforge errors."""


class ValidationError(SvgForgeError):
    """A model type was constructed with values violating its invariants."""


# --- parsing -----------------------------------------------------------------


class MalformedXml(SvgForgeError):
    """The input is not well-formed XML (unbalanced or truncated tags)."""


class MissingRoot(SvgForgeError):
    """The document has no <svg> root element."""


class NoCanvas(SvgForgeError):
    """Neither a usable viewBox nor width/height attributes are present."""


class PathSyntax(SvgForgeError):
    """A path data string violates the SVG 1.1 path grammar.

    ``offset`` is the character offset of the offending token.
    """

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


class UnexpectedEnd(PathSyntax):
    """Path data ended while command arguments were still expected."""


class NotNormalized(SvgForgeError):
    """A document is not in normalized form where one is required.

    Raised when :func:`~svgforge.parser.serialize_document` gets a document
    not flagged normalized, by ``verify`` for a NORM file whose text is not
    the canonical serialization of its own normalization, and by
    :func:`~svgforge.verifier.verify_normalization` for an unflagged
    normalized side with another view box, a shape or a transform.
    """


# --- normalization -----------------------------------------------------------


class NoCurrentPoint(SvgForgeError):
    """A command needing a current point appeared before any MoveTo."""


class DegenerateShape(SvgForgeError):
    """A shape element has non-positive dimensions and produces no geometry."""


class SingularTransform(SvgForgeError):
    """A transform matrix is not invertible (|det| below threshold)."""


class EmptyDocument(SvgForgeError):
    """No drawable path survived normalization."""


# --- rewards -----------------------------------------------------------------


class Unparseable(SvgForgeError):
    """SVG text failed the integrity check, so it has no path count."""


class InvalidReference(SvgForgeError):
    """The reference SVG of a reward pair failed the integrity check."""


# --- augmentation ------------------------------------------------------------


class TooFewPaths(SvgForgeError):
    """Path swapping needs at least two paths."""


class PaletteTooSmall(SvgForgeError):
    """The replacement palette has fewer colors than the document has fills."""


# --- verification ------------------------------------------------------------


class PathCountMismatch(SvgForgeError):
    """Original and converted drawable counts differ beyond documented drops."""


# --- pipeline ----------------------------------------------------------------


class SchemaError(SvgForgeError):
    """A JSONL record does not match the expected schema."""
