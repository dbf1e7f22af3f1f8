"""Shared document model: geometry, paint, commands, documents.

All types are immutable after construction and safe to share between
threads. Coordinates are double-precision floats; canonical rounding to the
0.01-unit serialization grid happens only in :func:`format_number` and
:func:`format_columns`, which write the same text, never inside the model
itself.

The M/L/C commands carry their own layout: a class-level ``opcode`` and
``points`` (control points, then the endpoint, in constructor order, so
``type(c)(*c.points) == c``). Other modules read those, not the type.

A run of M/L/C commands can also be carried as columns: an opcode string
such as ``"MLCC"`` and one flat float list of 2 numbers per M or L and 6
per C, in the order of ``points``. The normalizer works on columns, and
:func:`typed_commands` and :func:`command_columns` convert between the
two forms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat
from operator import itemgetter
from typing import ClassVar, NamedTuple, Union

from .errors import ValidationError

CANVAS_SIZE = 1024.0

#: Parameter count per absolute opcode of the SVG 1.1 path grammar.
PARAM_COUNTS = {
    "M": 2, "L": 2, "H": 1, "V": 1,
    "C": 6, "S": 4, "Q": 4, "T": 2,
    "A": 7, "Z": 0,
}

#: Indices of the large-arc / sweep flags inside one arc parameter group.
ARC_FLAG_INDICES = (3, 4)


class Point(NamedTuple):
    """A 2D point in canvas units (1024-unit canvas)."""

    x: float
    y: float


def format_number(value: float) -> str:
    """Canonical number formatting for serialized output.

    Shortest decimal with at most 2 fractional digits; trailing zeros and
    the dot are stripped and ``-0`` collapses to ``0``.
    """
    s = f"{value:.2f}"
    s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        return "0"
    return s


#: The ``%`` template of each opcode's numbers, 2 decimals each.
_TEMPLATES = {"M": "M%.2f %.2f", "L": "L%.2f %.2f", "C": "C%.2f %.2f %.2f %.2f %.2f %.2f"}
_TRAILING_ZERO = re.compile(r"(\.[1-9])0")


def format_columns(ops: str, xy) -> str:
    """The ``d`` text of M/L/C columns: each opcode, then its numbers as
    :func:`format_number` writes them, separated by single spaces.

    Every number is formatted to exactly 2 decimals in one ``%`` operation.
    A ``.`` or ``-`` then appears only inside a number and every number
    ends in 2 decimals, so a ``-0.00`` is a whole number, and a ``.00`` or
    ``.d0`` is the decimals of one.
    """
    text = "".join(map(_TEMPLATES.__getitem__, ops)) % tuple(xy)
    # itemgetter(1) gives group 1, as the template r"\1" would, with no Python call per match
    return _TRAILING_ZERO.sub(itemgetter(1), text.replace("-0.00", "0").replace(".00", ""))


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"non-finite coordinate {v!r}")


# --- commands ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RawCommand:
    """One pre-normalization path command with its original opcode.

    ``args`` must hold a positive multiple of the opcode's parameter
    count (a single command letter may carry repeated argument groups).
    """

    opcode: str
    args: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        n = PARAM_COUNTS.get(self.opcode.upper())
        if n is None:
            raise ValidationError(f"unknown opcode {self.opcode!r}")
        if n == 0:
            if self.args:
                raise ValidationError("Z takes no arguments")
            return
        if not self.args or len(self.args) % n != 0:
            raise ValidationError(
                f"{self.opcode!r} takes a positive multiple of {n} args, "
                f"got {len(self.args)}"
            )
        _require_finite(*self.args)
        if self.opcode.upper() == "A":
            for g in range(0, len(self.args), 7):
                for i in ARC_FLAG_INDICES:
                    flag = self.args[g + i]
                    if flag not in (0.0, 1.0):
                        raise ValidationError(f"arc flag must be 0 or 1, got {flag}")

    @property
    def is_relative(self) -> bool:
        return self.opcode.islower()

    def groups(self) -> list[tuple[float, ...]]:
        """Split repeated argument groups into single-arity tuples."""
        n = PARAM_COUNTS[self.opcode.upper()]
        if n == 0:
            return [()]
        return [self.args[i : i + n] for i in range(0, len(self.args), n)]


@dataclass(frozen=True, slots=True)
class _Absolute:
    """What MoveTo, LineTo and CubicTo share with an absolute :class:`RawCommand`
    of their opcode: no relativity and one argument group, so the one raw
    command walk reads either kind."""

    is_relative: ClassVar[bool] = False

    def groups(self) -> list[tuple[float, ...]]:
        return [tuple(v for p in self.points for v in p)]


@dataclass(frozen=True, slots=True)
class _EndOnly(_Absolute):
    """The shared layout of MoveTo and LineTo: an endpoint and nothing else."""

    end: Point

    def __post_init__(self) -> None:
        _require_finite(*self.end)

    @property
    def points(self) -> tuple[Point]:
        return (self.end,)


@dataclass(frozen=True, slots=True)
class MoveTo(_EndOnly):
    opcode: ClassVar[str] = "M"


@dataclass(frozen=True, slots=True)
class LineTo(_EndOnly):
    opcode: ClassVar[str] = "L"


@dataclass(frozen=True, slots=True)
class CubicTo(_Absolute):
    opcode: ClassVar[str] = "C"
    c1: Point
    c2: Point
    end: Point

    def __post_init__(self) -> None:
        _require_finite(*self.c1, *self.c2, *self.end)

    @property
    def points(self) -> tuple[Point, Point, Point]:
        return (self.c1, self.c2, self.end)


#: The post-normalization command alphabet. Nothing else exists after
#: normalization.
PathCommand = Union[MoveTo, LineTo, CubicTo]

#: Each post-normalization command type by its opcode.
COMMAND_TYPES = {cls.opcode: cls for cls in (MoveTo, LineTo, CubicTo)}


def typed_commands(ops: str, xy) -> tuple[PathCommand, ...]:
    """The M/L/C commands of columns (module docstring). Raises
    :class:`ValidationError` for the first non-finite coordinate."""
    it = iter(xy)
    points = map(Point, it, it)
    return tuple(COMMAND_TYPES[op](*islice(points, 3 if op == "C" else 1)) for op in ops)


def command_columns(commands) -> tuple[str, list[float]]:
    """The columns (module docstring) of M/L/C commands."""
    return "".join(c.opcode for c in commands), [v for c in commands for p in c.points for v in p]


# --- paint ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hex:
    """A flat color in canonical lowercase 6-digit hex (no ``#``)."""

    value: str

    def __post_init__(self) -> None:
        v = self.value
        if len(v) != 6 or any(c not in "0123456789abcdef" for c in v):
            raise ValidationError(f"hex paint must be 6 lowercase hex digits, got {v!r}")

    @property
    def css(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True, slots=True)
class NoFill:
    """Explicit ``fill="none"``."""


#: A reference id that ``url(#...)`` reads back whole and an XML 1.0 attribute
#: can carry: no ``)``, whitespace, control character, surrogate, U+FFFE or U+FFFF.
REF_ID = r"[^)\s\x00-\x1f\ud800-\udfff\ufffe\uffff]+"


@dataclass(frozen=True, slots=True)
class Reference:
    """A paint server reference such as ``url(#gradient)``."""

    ref_id: str

    def __post_init__(self) -> None:
        if re.fullmatch(REF_ID, self.ref_id) is None:
            raise ValidationError(
                f"reference id {self.ref_id!r} is empty or holds ')', whitespace "
                "or a character that XML 1.0 cannot carry")


Paint = Union[Hex, NoFill, Reference]

BLACK = Hex("000000")
NO_FILL = NoFill()


# --- transforms ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AffineTransform:
    """2x3 affine matrix mapping (x, y) to (a*x + c*y + e, b*x + d*y + f)."""

    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 1.0
    e: float = 0.0
    f: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self.a, self.b, self.c, self.d, self.e, self.f)
        if not math.isfinite(self.det):
            raise ValidationError("transform determinant is not finite")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def is_identity(self) -> bool:
        return self == IDENTITY

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.a * x + self.c * y + self.e, self.b * x + self.d * y + self.f)

    def apply_point(self, p: Point) -> Point:
        return Point(self.a * p.x + self.c * p.y + self.e,
                     self.b * p.x + self.d * p.y + self.f)

    def __matmul__(self, other: AffineTransform) -> AffineTransform:
        """Compose so that ``(m1 @ m2).apply(p) == m1.apply(m2.apply(p))``."""
        return AffineTransform(
            a=self.a * other.a + self.c * other.b,
            b=self.b * other.a + self.d * other.b,
            c=self.a * other.c + self.c * other.d,
            d=self.b * other.c + self.d * other.d,
            e=self.a * other.e + self.c * other.f + self.e,
            f=self.b * other.e + self.d * other.f + self.f,
        )

    @staticmethod
    def translate(tx: float, ty: float = 0.0) -> AffineTransform:
        return AffineTransform(e=tx, f=ty)

    @staticmethod
    def scale(sx: float, sy: float | None = None) -> AffineTransform:
        return AffineTransform(a=sx, d=sx if sy is None else sy)

    @staticmethod
    def rotate_deg(angle: float, cx: float = 0.0, cy: float = 0.0) -> AffineTransform:
        r = math.radians(angle)
        cos_r, sin_r = math.cos(r), math.sin(r)
        rot = AffineTransform(a=cos_r, b=sin_r, c=-sin_r, d=cos_r)
        if cx == 0.0 and cy == 0.0:
            return rot
        return (AffineTransform.translate(cx, cy) @ rot
                @ AffineTransform.translate(-cx, -cy))

    @staticmethod
    def skew_x_deg(angle: float) -> AffineTransform:
        return AffineTransform(c=math.tan(math.radians(angle)))

    @staticmethod
    def skew_y_deg(angle: float) -> AffineTransform:
        return AffineTransform(b=math.tan(math.radians(angle)))


IDENTITY = AffineTransform()


# --- elements ------------------------------------------------------------

#: Shape tags the parser retains for later conversion to paths.
SHAPE_TAGS = frozenset({"rect", "circle", "ellipse", "line", "polyline", "polygon"})


@dataclass(frozen=True, slots=True)
class PathElement:
    """An ordered command list plus its fill.

    Normalized path elements hold only :data:`PathCommand` commands; raw
    documents may instead carry :class:`RawCommand` lists (full command
    alphabet, relative opcodes allowed) along with an unflattened
    ``transform``. ``fill=None`` means the attribute was absent, which is
    distinct from an explicit ``fill="none"`` (:data:`NO_FILL`).
    """

    commands: tuple[RawCommand, ...] | tuple[PathCommand, ...]
    fill: Paint | None = None
    transform: AffineTransform = IDENTITY

    def __post_init__(self) -> None:
        if not self.commands:
            return
        # one pass in C per check: every path is built several times per run
        kinds = {issubclass(t, RawCommand) for t in set(map(type, self.commands))}
        if len(kinds) > 1:
            raise ValidationError("cannot mix raw and normalized commands")
        if not kinds.pop():
            moves = bytes(map(isinstance, self.commands, repeat(MoveTo)))  # 1 per MoveTo
            if not moves[0]:
                raise ValidationError("first command must be MoveTo")
            if b"\x01\x01" in moves:
                raise ValidationError("consecutive MoveTo commands")

    @property
    def is_raw(self) -> bool:
        return bool(self.commands) and isinstance(self.commands[0], RawCommand)


@dataclass(frozen=True, slots=True)
class ShapeElement:
    """A basic shape (rect/circle/ellipse/line/polyline/polygon) pre-conversion.

    ``params`` holds the numeric geometry attributes; polyline/polygon carry
    ``points`` as a tuple of :class:`Point`.
    """

    tag: str
    params: tuple[tuple[str, float | tuple[Point, ...]], ...]
    fill: Paint | None = None
    transform: AffineTransform = IDENTITY

    def __post_init__(self) -> None:
        if self.tag not in SHAPE_TAGS:
            raise ValidationError(f"unknown shape tag {self.tag!r}")

    def get(self, name: str, default: float = 0.0):
        for key, value in self.params:
            if key == name:
                return value
        return default


Drawable = Union[PathElement, ShapeElement]


# --- document ------------------------------------------------------------


NORMALIZED_VIEW_BOX = (0.0, 0.0, CANVAS_SIZE, CANVAS_SIZE)


@dataclass(frozen=True, slots=True)
class Document:
    """A parsed SVG: canvas metadata plus an ordered list of drawables.

    When ``normalized`` is true the document satisfies the unified form:
    view box (0, 0, 1024, 1024), only path elements containing only
    MoveTo/LineTo/CubicTo, identity transforms, and resolved fills.
    """

    view_box: tuple[float, float, float, float]
    paths: tuple[Drawable, ...] = ()
    normalized: bool = False

    def __post_init__(self) -> None:
        _require_finite(*self.view_box)
        if self.view_box[2] <= 0 or self.view_box[3] <= 0:
            raise ValidationError("view box width and height must be positive")
        if self.normalized:
            self._check_normalized()

    def _check_normalized(self) -> None:
        if self.view_box != NORMALIZED_VIEW_BOX:
            raise ValidationError("normalized documents use view box 0 0 1024 1024")
        for p in self.paths:
            if not isinstance(p, PathElement) or p.is_raw:
                raise ValidationError("normalized documents contain only M/L/C paths")
            if not p.transform.is_identity:
                raise ValidationError("normalized paths carry no transform")
            # References survive normalization (gradients cannot be resolved
            # to a flat color); absent fills must have been resolved.
            if p.fill is None:
                raise ValidationError("normalized paths have resolved fills")


class DifficultyLevel(Enum):
    """The four difficulty classes."""

    MONOCOLOR_EASY = "Monocolor_easy"
    MONOCOLOR_DIFFICULT = "Monocolor_difficult"
    MULTICOLOR_EASY = "Multicolor_easy"
    MULTICOLOR_DIFFICULT = "Multicolor_difficult"


# --- equality ------------------------------------------------------------


def _command_keys(commands) -> list[tuple]:
    return [(cmd.opcode, tuple(map(format_number, group)))
            for cmd in commands for group in cmd.groups()]


def _element_key(el: Drawable) -> tuple:
    t = tuple(format_number(v) for v in
              (el.transform.a, el.transform.b, el.transform.c,
               el.transform.d, el.transform.e, el.transform.f))
    if isinstance(el, PathElement):
        return ("path", tuple(_command_keys(el.commands)), el.fill, t)
    params = tuple(
        (k, tuple((format_number(p.x), format_number(p.y)) for p in v)
         if isinstance(v, tuple) else format_number(v))
        for k, v in el.params
    )
    return (el.tag, params, el.fill, t)


def document_equal(a: Document, b: Document) -> bool:
    """Structural equality up to canonical coordinate rounding.

    View box, drawable order, command sequences and fills must all match;
    the ``normalized`` flag is ignored. Raw absolute M/L/C commands compare
    equal to their normalized counterparts.
    """
    if tuple(format_number(v) for v in a.view_box) != tuple(
        format_number(v) for v in b.view_box
    ):
        return False
    if len(a.paths) != len(b.paths):
        return False
    return all(_element_key(x) == _element_key(y) for x, y in zip(a.paths, b.paths))
