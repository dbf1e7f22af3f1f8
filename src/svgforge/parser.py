"""SVG text parsing and serialization.

:func:`parse_document` ingests SVG 1.1 text into a raw :class:`Document`
(full command alphabet, shapes unresolved, transform chains recorded) and
:func:`serialize_document` writes a normalized document back out in the
compact canonical form. Parsing is tolerant: unsupported elements are
dropped with a positioned warning rather than an error, keeping ingestion
auditable without sacrificing corpus yield.

The canonical form is also recognized as text. :func:`canonical_paths`
matches one whole-document pattern built from the serializer's own parts
and returns each path's ``d`` and ``fill`` slices, which a reader of
normalized text counts, splices or reads as coordinate columns
(:func:`slice_columns`, two ``str.translate`` passes) without expat or a
second serialization. It declines (returns ``None``) whenever it cannot be
sure: any number outside :func:`format_number`'s output with at most 13
integer digits, any separator or attribute order the serializer does not
write, a reference id outside a conservative ASCII set, ``fill="none"`` or
a document with no path. :func:`~svgforge.normalizer.normalize_text`, the
one caller, then takes the slices from the parsed document
(:func:`~svgforge.normalizer.normalize_slices`), so declining is always
safe. A match means that
``serialize_document(normalize_document(parse_document(t)))``
is ``t`` without its surrounding XML whitespace.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from xml.parsers import expat

from .errors import MalformedXml, MissingRoot, NoCanvas, NotNormalized
from .model import (
    IDENTITY,
    AffineTransform,
    Document,
    Drawable,
    Hex,
    NO_FILL,
    Paint,
    PathElement,
    Point,
    REF_ID,
    Reference,
    SHAPE_TAGS,
    ShapeElement,
    format_columns,
)
from .pathdata import NUMBER, scan_path_data

# Not called here, but bench/spans.py traces it by this name in this module.
from .pathdata import parse_path_data  # noqa: F401

SVG_NS = "http://www.w3.org/2000/svg"

# Containers whose content is never rendered directly.
_NON_RENDERED = frozenset({
    "defs", "symbol", "clipPath", "mask", "pattern", "marker",
    "linearGradient", "radialGradient", "filter", "style", "script",
})
_METADATA = frozenset({"title", "desc", "metadata"})

_TRANSFORM_RE = re.compile(
    r"(matrix|translate|scale|rotate|skewX|skewY)\s*\(([^)]*)\)"
)
_URL_RE = re.compile(rf"url\(\s*#({REF_ID})\s*\)")
# what a reference id must escape inside a double-quoted attribute
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})
# and back: entity name -> character
_ENTITIES = {v[1:-1]: chr(k) for k, v in _ATTR_ESCAPES.items()}

# SVG 1.1 color keywords.
NAMED_COLORS = {
    "aliceblue": "f0f8ff", "antiquewhite": "faebd7", "aqua": "00ffff",
    "aquamarine": "7fffd4", "azure": "f0ffff", "beige": "f5f5dc",
    "bisque": "ffe4c4", "black": "000000", "blanchedalmond": "ffebcd",
    "blue": "0000ff", "blueviolet": "8a2be2", "brown": "a52a2a",
    "burlywood": "deb887", "cadetblue": "5f9ea0", "chartreuse": "7fff00",
    "chocolate": "d2691e", "coral": "ff7f50", "cornflowerblue": "6495ed",
    "cornsilk": "fff8dc", "crimson": "dc143c", "cyan": "00ffff",
    "darkblue": "00008b", "darkcyan": "008b8b", "darkgoldenrod": "b8860b",
    "darkgray": "a9a9a9", "darkgreen": "006400", "darkgrey": "a9a9a9",
    "darkkhaki": "bdb76b", "darkmagenta": "8b008b", "darkolivegreen": "556b2f",
    "darkorange": "ff8c00", "darkorchid": "9932cc", "darkred": "8b0000",
    "darksalmon": "e9967a", "darkseagreen": "8fbc8f", "darkslateblue": "483d8b",
    "darkslategray": "2f4f4f", "darkslategrey": "2f4f4f",
    "darkturquoise": "00ced1", "darkviolet": "9400d3", "deeppink": "ff1493",
    "deepskyblue": "00bfff", "dimgray": "696969", "dimgrey": "696969",
    "dodgerblue": "1e90ff", "firebrick": "b22222", "floralwhite": "fffaf0",
    "forestgreen": "228b22", "fuchsia": "ff00ff", "gainsboro": "dcdcdc",
    "ghostwhite": "f8f8ff", "gold": "ffd700", "goldenrod": "daa520",
    "gray": "808080", "grey": "808080", "green": "008000",
    "greenyellow": "adff2f", "honeydew": "f0fff0", "hotpink": "ff69b4",
    "indianred": "cd5c5c", "indigo": "4b0082", "ivory": "fffff0",
    "khaki": "f0e68c", "lavender": "e6e6fa", "lavenderblush": "fff0f5",
    "lawngreen": "7cfc00", "lemonchiffon": "fffacd", "lightblue": "add8e6",
    "lightcoral": "f08080", "lightcyan": "e0ffff",
    "lightgoldenrodyellow": "fafad2", "lightgray": "d3d3d3",
    "lightgreen": "90ee90", "lightgrey": "d3d3d3", "lightpink": "ffb6c1",
    "lightsalmon": "ffa07a", "lightseagreen": "20b2aa",
    "lightskyblue": "87cefa", "lightslategray": "778899",
    "lightslategrey": "778899", "lightsteelblue": "b0c4de",
    "lightyellow": "ffffe0", "lime": "00ff00", "limegreen": "32cd32",
    "linen": "faf0e6", "magenta": "ff00ff", "maroon": "800000",
    "mediumaquamarine": "66cdaa", "mediumblue": "0000cd",
    "mediumorchid": "ba55d3", "mediumpurple": "9370db",
    "mediumseagreen": "3cb371", "mediumslateblue": "7b68ee",
    "mediumspringgreen": "00fa9a", "mediumturquoise": "48d1cc",
    "mediumvioletred": "c71585", "midnightblue": "191970",
    "mintcream": "f5fffa", "mistyrose": "ffe4e1", "moccasin": "ffe4b5",
    "navajowhite": "ffdead", "navy": "000080", "oldlace": "fdf5e6",
    "olive": "808000", "olivedrab": "6b8e23", "orange": "ffa500",
    "orangered": "ff4500", "orchid": "da70d6", "palegoldenrod": "eee8aa",
    "palegreen": "98fb98", "paleturquoise": "afeeee",
    "palevioletred": "db7093", "papayawhip": "ffefd5", "peachpuff": "ffdab9",
    "peru": "cd853f", "pink": "ffc0cb", "plum": "dda0dd",
    "powderblue": "b0e0e6", "purple": "800080", "red": "ff0000",
    "rosybrown": "bc8f8f", "royalblue": "4169e1", "saddlebrown": "8b4513",
    "salmon": "fa8072", "sandybrown": "f4a460", "seagreen": "2e8b57",
    "seashell": "fff5ee", "sienna": "a0522d", "silver": "c0c0c0",
    "skyblue": "87ceeb", "slateblue": "6a5acd", "slategray": "708090",
    "slategrey": "708090", "snow": "fffafa", "springgreen": "00ff7f",
    "steelblue": "4682b4", "tan": "d2b48c", "teal": "008080",
    "thistle": "d8bfd8", "tomato": "ff6347", "turquoise": "40e0d0",
    "violet": "ee82ee", "wheat": "f5deb3", "white": "ffffff",
    "whitesmoke": "f5f5f5", "yellow": "ffff00", "yellowgreen": "9acd32",
}


@dataclass
class ParseDiagnostics:
    """Non-fatal findings collected while parsing one document."""

    warnings: list[tuple[int, str]] = field(default_factory=list)
    element_counts: dict[str, int] = field(default_factory=dict)

    def warn(self, offset: int, message: str) -> None:
        self.warnings.append((offset, message))

    def count(self, name: str) -> None:
        self.element_counts[name] = self.element_counts.get(name, 0) + 1


# --- attribute value parsing -----------------------------------------------


def parse_paint(value: str) -> Paint | None:
    """Resolve a fill attribute value to canonical paint.

    Returns ``None`` for values that do not resolve (``inherit`` or
    unrecognized keywords), which callers treat as "not specified here".
    Raises :class:`ValueError` for values that are syntactically broken.
    """
    v = value.strip()
    if not v:
        return None
    low = v.lower()
    if low == "none" or low == "transparent":
        return NO_FILL
    if low == "inherit":
        return None
    if low == "currentcolor":
        # Initial CSS color; icons do not set `color`, so this is black.
        return Hex("000000")
    m = _URL_RE.match(v)
    if m:
        return Reference(m.group(1))
    if v.startswith("#"):
        digits = v[1:].lower()
        if len(digits) == 3 and all(c in "0123456789abcdef" for c in digits):
            digits = "".join(c * 2 for c in digits)
        if len(digits) == 6 and all(c in "0123456789abcdef" for c in digits):
            return Hex(digits)
        raise ValueError(f"bad hex color {value!r}")
    if low.startswith("rgb(") or low.startswith("rgba("):
        inner = v[v.index("(") + 1 : v.rindex(")")] if ")" in v else ""
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) not in (3, 4):
            raise ValueError(f"bad rgb() color {value!r}")
        channels = []
        for part in parts[:3]:
            if part.endswith("%"):
                channel = float(part[:-1]) * 255.0 / 100.0
            else:
                channel = float(part)
            if not math.isfinite(channel):
                raise ValueError(f"non-finite rgb() channel in {value!r}")
            channels.append(round(channel))
        r, g, b = (min(255, max(0, c)) for c in channels)
        return Hex(f"{r:02x}{g:02x}{b:02x}")
    if low in NAMED_COLORS:
        return Hex(NAMED_COLORS[low])
    return None


def parse_transform(value: str) -> AffineTransform:
    """Parse a transform attribute list into one composed matrix.

    Raises :class:`ValueError` on malformed input.
    """
    matrix = IDENTITY
    pos = 0
    for m in _TRANSFORM_RE.finditer(value):
        gap = value[pos : m.start()]
        if gap.strip(" \t\r\n,"):
            raise ValueError(f"unexpected transform text {gap!r}")
        name = m.group(1)
        args = [float(x) for x in NUMBER.findall(m.group(2))]
        if name == "matrix" and len(args) == 6:
            t = AffineTransform(*args)
        elif name == "translate" and len(args) in (1, 2):
            t = AffineTransform.translate(*args)
        elif name == "scale" and len(args) in (1, 2):
            t = AffineTransform.scale(*args)
        elif name == "rotate" and len(args) in (1, 3):
            t = AffineTransform.rotate_deg(*args)
        elif name == "skewX" and len(args) == 1:
            t = AffineTransform.skew_x_deg(args[0])
        elif name == "skewY" and len(args) == 1:
            t = AffineTransform.skew_y_deg(args[0])
        else:
            raise ValueError(f"bad transform {m.group(0)!r}")
        matrix = matrix @ t
        pos = m.end()
    if value[pos:].strip(" \t\r\n,"):
        raise ValueError(f"unexpected transform text {value[pos:]!r}")
    return matrix


def _parse_length(value: str) -> float:
    v = value.strip()
    if v.endswith("px"):
        v = v[:-2]
    return float(v)


def _parse_points(value: str) -> tuple[tuple[Point, ...], int]:
    nums = [float(x) for x in NUMBER.findall(value)]
    pairs = len(nums) // 2
    return tuple(Point(nums[2 * i], nums[2 * i + 1]) for i in range(pairs)), len(nums) % 2


# --- document parsing --------------------------------------------------------

_SHAPE_ATTRS = {
    "rect": ("x", "y", "width", "height", "rx", "ry"),
    "circle": ("cx", "cy", "r"),
    "ellipse": ("cx", "cy", "rx", "ry"),
    "line": ("x1", "y1", "x2", "y2"),
}


class _SvgBuilder:
    """Expat handler target accumulating drawables in document order."""

    def __init__(self, diagnostics: ParseDiagnostics) -> None:
        self.diag = diagnostics
        self.view_box: tuple[float, float, float, float] | None = None
        self.drawables: list[Drawable] = []
        self.saw_root = False
        # inherited (transform, fill) per open container element
        self.stack: list[tuple[AffineTransform, Paint | None]] = []
        self.suppress = 0
        self.parser = None  # set by parse_document before parsing starts

    @property
    def offset(self) -> int:
        return self.parser.CurrentByteIndex if self.parser is not None else 0

    # -- attribute helpers

    def _local(self, name: str) -> tuple[str, str]:
        if " " in name:
            ns, local = name.rsplit(" ", 1)
            return ns, local
        return "", name

    def _own_fill(self, attrs: dict[str, str]) -> Paint | None:
        # presentation attribute wins over style="fill:..."
        for source in (attrs.get("fill"), self._style_fill(attrs.get("style"))):
            if source is None:
                continue
            try:
                paint = parse_paint(source)
            except ValueError as exc:
                self.diag.warn(self.offset, str(exc))
                continue
            if paint is not None:
                return paint
        return None

    @staticmethod
    def _style_fill(style: str | None) -> str | None:
        if not style:
            return None
        for decl in style.split(";"):
            if ":" in decl:
                key, val = decl.split(":", 1)
                if key.strip() == "fill":
                    return val.strip()
        return None

    def _own_transform(self, attrs: dict[str, str]) -> AffineTransform:
        raw = attrs.get("transform")
        if not raw:
            return IDENTITY
        try:
            return parse_transform(raw)
        except ValueError as exc:
            self.diag.warn(self.offset, f"ignored transform: {exc}")
            return IDENTITY

    def _inherited(self) -> tuple[AffineTransform, Paint | None]:
        if self.stack:
            return self.stack[-1]
        return IDENTITY, None

    # -- expat handlers

    def start(self, name: str, raw_attrs: dict[str, str]) -> None:
        ns, local = self._local(name)
        self.diag.count(local)
        attrs = {self._local(k)[1]: v for k, v in raw_attrs.items()
                 if " " not in k or self._local(k)[0] == SVG_NS}

        if not self.saw_root:
            if local != "svg":
                raise MissingRoot(f"root element is <{local}>, not <svg>")
            self.saw_root = True
            self._read_canvas(attrs)
            self.stack.append((IDENTITY, self._own_fill(attrs)))
            return

        if self.suppress:
            self.suppress += 1
            return

        parent_t, parent_fill = self._inherited()
        if local in ("g", "svg", "a", "switch"):
            if local == "svg":
                self.diag.warn(self.offset, "nested <svg> treated as a group")
            own_fill = self._own_fill(attrs)
            self.stack.append((
                parent_t @ self._own_transform(attrs),
                own_fill if own_fill is not None else parent_fill,
            ))
            return
        if local in _METADATA or local in _NON_RENDERED:
            self.suppress = 1
            return
        if ns not in ("", SVG_NS):
            self.diag.warn(self.offset, f"dropped foreign element <{local}>")
            self.suppress = 1
            return

        transform = parent_t @ self._own_transform(attrs)
        fill = self._own_fill(attrs)
        if fill is None:
            fill = parent_fill

        if local == "path":
            ops, args = scan_path_data(attrs.get("d", ""))
            self.drawables.append(PathElement(fill=fill, transform=transform, ops=ops, args=args))
            self.suppress = 1
            return
        if local in SHAPE_TAGS:
            element = self._build_shape(local, attrs, fill, transform)
            if element is not None:
                self.drawables.append(element)
            self.suppress = 1
            return

        self.diag.warn(self.offset, f"dropped unsupported element <{local}>")
        self.suppress = 1

    def end(self, name: str) -> None:
        if self.suppress:
            self.suppress -= 1
            return
        _, local = self._local(name)
        if local in ("g", "svg", "a", "switch") and len(self.stack) > 1:
            self.stack.pop()

    def comment(self, _data: str) -> None:
        self.diag.count("#comment")

    # -- element builders

    def _read_canvas(self, attrs: dict[str, str]) -> None:
        vb = attrs.get("viewBox")
        if vb:
            nums = [float(x) for x in NUMBER.findall(vb)]
            if len(nums) == 4 and nums[2] > 0 and nums[3] > 0:
                self.view_box = tuple(nums)
                return
            raise NoCanvas(f"unusable viewBox {vb!r}")
        w, h = attrs.get("width"), attrs.get("height")
        if w and h:
            try:
                width, height = _parse_length(w), _parse_length(h)
            except ValueError:
                raise NoCanvas(f"unusable width/height {w!r} x {h!r}") from None
            if width > 0 and height > 0:
                self.view_box = (0.0, 0.0, width, height)
                return
            raise NoCanvas(f"non-positive width/height {w!r} x {h!r}")
        raise NoCanvas("neither viewBox nor width/height present")

    def _build_shape(
        self,
        tag: str,
        attrs: dict[str, str],
        fill: Paint | None,
        transform: AffineTransform,
    ) -> ShapeElement | None:
        params: list[tuple[str, float | tuple[Point, ...]]] = []
        if tag in ("polyline", "polygon"):
            points, leftover = _parse_points(attrs.get("points", ""))
            if leftover:
                self.diag.warn(self.offset, f"odd coordinate count in <{tag}> points")
            params.append(("points", points))
        else:
            for name in _SHAPE_ATTRS[tag]:
                if name in attrs:
                    try:
                        params.append((name, _parse_length(attrs[name])))
                    except ValueError:
                        self.diag.warn(
                            self.offset, f"dropped <{tag}> with bad {name}={attrs[name]!r}"
                        )
                        return None
        return ShapeElement(tag, tuple(params), fill, transform)


def parse_document(text: str) -> tuple[Document, ParseDiagnostics]:
    """Parse SVG text into a raw document plus diagnostics.

    The returned document keeps the original view box (or width/height
    fallback), every drawable in document order with composed transform
    chains, and group fills propagated to children. Metadata elements and
    comments are dropped and counted. Raises :class:`MalformedXml`,
    :class:`MissingRoot` or :class:`NoCanvas`; path grammar errors from
    ``d`` attributes propagate as :class:`PathSyntax`.
    """
    diagnostics = ParseDiagnostics()
    builder = _SvgBuilder(diagnostics)
    parser = expat.ParserCreate(namespace_separator=" ")
    builder.parser = parser
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CommentHandler = builder.comment
    try:
        parser.Parse(text.encode("utf-8") if isinstance(text, str) else text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc)) from None
    if not builder.saw_root:
        raise MissingRoot("no svg root element")
    if builder.view_box is None:
        raise NoCanvas("svg root carries no canvas information")
    return (
        Document(view_box=builder.view_box, paths=tuple(builder.drawables)),
        diagnostics,
    )


# --- serialization -----------------------------------------------------------


def _format_fill(fill: Paint) -> str:
    if isinstance(fill, Hex):
        return fill.css
    if isinstance(fill, Reference):
        return f"url(#{fill.ref_id.translate(_ATTR_ESCAPES)})"
    return "none"


# The canonical form's text: what serialize_paths writes and canonical_paths reads.
_HEAD = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1024 1024">'
_PATH = '<path d="{}" fill="{}"/>'
_TAIL = "</svg>"


def serialize_paths(paths) -> str:
    """Canonical text of ``(d, fill)`` attribute texts, one ``<path>`` each."""
    return _HEAD + "".join(_PATH.format(d, fill) for d, fill in paths) + _TAIL


def path_slice(ops: str, xy, fill: Paint) -> tuple[str, str]:
    """The ``(d, fill)`` attribute texts of one path given as M/L/C columns
    (:mod:`svgforge.model`) and its fill."""
    return format_columns(ops, xy), _format_fill(fill)


def document_slices(doc: Document) -> list[tuple[str, str]]:
    """The ``(d, fill)`` attribute texts that :func:`serialize_document`
    writes for each path of a normalized document."""
    if not doc.normalized:
        raise NotNormalized("serialization requires a normalized document")
    return [path_slice(p.ops, p.args, p.fill) for p in doc.paths]


def serialize_document(doc: Document) -> str:
    """Serialize a normalized document to canonical compact SVG text.

    Output is bit-exact and parses back into an equal document:
    one ``<path>`` per element, absolute M/L/C data, single-space
    separators, canonical number formatting, and reference ids with
    ``&``, ``<``, ``>`` and ``"`` escaped as XML.
    """
    return serialize_paths(document_slices(doc))


@functools.cache
def _canonical_patterns() -> tuple[re.Pattern, re.Pattern]:
    """The whole-document pattern and the ``(d, fill)`` slicer, compiled on first use."""
    # format_number's output: no -0, no trailing zero, at most 2 decimals;
    # 13 integer digits keep every number within float's 15 exact digits.
    # ASCII digits only: float() also reads other scripts' digits.
    num = r"(?!-0(?!\.))-?(?:0|[1-9][0-9]{0,12})(?:\.[0-9]?[1-9])?"
    # starts with M, and every M is followed by a segment: no M without one
    d = rf"(?=M)(?:M{num} {num}(?=[LC])|L{num} {num}|C{num}(?: {num}){{5}})+"
    ref_id = rf"(?:[A-Za-z0-9_.:-]|&(?:{'|'.join(_ENTITIES)});)+"
    fill = rf"#[0-9a-f]{{6}}|url\(#{ref_id}\)"  # never none
    before, between, after = map(re.escape, _PATH.split("{}"))
    space = "[ \t\r\n]*"  # XML whitespace, which expat accepts around the root
    document = re.compile(
        f"{space}{re.escape(_HEAD)}(?:{before}{d}{between}(?:{fill}){after})+"
        f"{re.escape(_TAIL)}{space}"
    )
    return document, re.compile(f'{before}([^"]*){between}([^"]*){after}')


def canonical_paths(text) -> list[tuple[str, str]] | None:
    """The ``(d, fill)`` attribute texts of each path of canonical ``text``, or ``None``.

    ``text`` matches when it is, up to surrounding XML whitespace, what
    :func:`serialize_document` writes and reads back unchanged (see the
    module docstring); anything else, a non-string included, is ``None``.
    """
    if not isinstance(text, str):
        return None
    document, slices = _canonical_patterns()
    if document.fullmatch(text) is None:
        return None
    return slices.findall(text)


# Path data that format_columns writes holds M, L, C, digits, ".", "-" and " ".
_OPCODES = str.maketrans("", "", "0123456789.- ")
_NUMBERS = str.maketrans("MLC", "   ")


def slice_columns(d: str) -> tuple[str, list[float]]:
    """The M/L/C columns ``(ops, xy)`` (:mod:`svgforge.model`) of a ``d``
    slice: its opcodes, and the floats of its number texts, those that
    parsing and normalizing its text give."""
    return d.translate(_OPCODES), [float(x) for x in d.translate(_NUMBERS).split()]


def canonical_columns(paths: list[tuple[str, str]]) -> list[tuple[str, list[float]]]:
    """The :func:`slice_columns` of the ``d`` of each ``(d, fill)`` slice."""
    return [slice_columns(d) for d, _ in paths]
