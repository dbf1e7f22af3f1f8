"""SVG 1.1 path data scanner.

Implements the complete ``d`` attribute grammar: implicit command
repetition, comma/whitespace separators, scientific notation, and arc
flags juxtaposed with the following number ("a1 1 0 011 1" is four
tokens ``0 1 1 1`` after the rotation). The scanner is total: any input
either yields path data or raises a positioned :class:`PathSyntax` /
:class:`UnexpectedEnd`.

:func:`scan_path_data` reads a ``d`` into the columns of :mod:`svgforge.model`,
which the parser keeps; :func:`parse_path_data` types them for library callers.

Each argument group is read by one ``match`` of a pattern compiled for
its shape (1, 2, 4 or 6 numbers, or an arc's three numbers, two
single-character flags and two numbers), separators before and after
included. Every number in such a pattern is atomic, so it matches
exactly what :data:`NUMBER` alone would: ``439`` never backtracks into
``43`` and ``9``. A group that its pattern refuses is scanned again token
by token, and that scan raises the positioned error. A number out of
range is looked for once per ``d``; if there is one, the ``d`` is scanned
again checking each group, which raises the first error.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn

from .errors import PathSyntax, UnexpectedEnd
from .model import ARC_FLAG_INDICES, PARAM_COUNTS, REPEAT, RawCommand, raw_commands

_WSP = re.compile(r"[ \t\r\n\f,]*")
#: One SVG number: sign? (digits '.' digits? | '.' digits | digits) exponent?
#: The parser reads attribute number lists with the same grammar.
NUMBER = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_COMMANDS = frozenset("MmLlHhVvCcSsQqTtAaZz")
_NUMBER_START = frozenset("+-.0123456789")


def _skip(d: str, pos: int) -> int:
    return _WSP.match(d, pos).end()


def _refused(d: str, start: int, opcode: str) -> NoReturn:
    """Raise the positioned error of the group at ``start``, scanned token by token."""
    pos = start
    for i in range(PARAM_COUNTS[opcode.upper()]):
        pos = _skip(d, pos)
        flag = opcode in "Aa" and i in ARC_FLAG_INDICES
        if pos >= len(d):
            raise UnexpectedEnd(pos, f"missing {'arc flag' if flag else 'arguments'} for {opcode!r}")
        if flag:
            if d[pos] not in "01":
                raise PathSyntax(pos, f"arc flag must be 0 or 1, got {d[pos]!r}")
            pos += 1
            continue
        m = NUMBER.match(d, pos)
        if m is None:
            raise PathSyntax(pos, f"expected number for {opcode!r}, got {d[pos]!r}")
        if not math.isfinite(float(m.group())):
            raise PathSyntax(pos, f"number out of range: {m.group()!r}")
        pos = m.end()
    raise AssertionError(f"the {opcode!r} group pattern refused a valid group at {start}")


#: The compiled group pattern of each opcode letter seen so far. Opcodes of
#: one shape build the same pattern text, which ``re``'s own cache compiles
#: once.
_GROUP_PATTERNS: dict[str, re.Pattern] = {}


def _compile_group(opcode: str) -> re.Pattern:
    """Compile the pattern that reads one ``opcode`` group and the separators
    around it, on first use.

    Each number is ``(?=(NUMBER))\\k``: a lookahead is atomic in Python's
    ``re`` and the backreference consumes what it captured. This stands in
    for a possessive quantifier, which ``re`` has only from Python 3.11.
    """
    wsp = _WSP.pattern
    parts = []
    for i in range(PARAM_COUNTS[opcode.upper()]):
        if opcode in "Aa" and i in ARC_FLAG_INDICES:
            parts.append(f"{wsp}([01])")
        else:
            parts.append(f"{wsp}(?=({NUMBER.pattern}))\\{i + 1}")
    pattern = _GROUP_PATTERNS[opcode] = re.compile("".join(parts) + wsp)
    return pattern


def _scan(d: str, ops: list[str], args: list[float], checked: bool) -> None:
    """Append the columns of ``d`` to ``ops`` and ``args``; ``checked`` also
    refuses a group holding a number out of range."""
    end = len(d)
    pos = _skip(d, 0)
    if pos >= end:
        return
    if d[pos] not in "Mm":
        raise PathSyntax(pos, f"path must start with a moveto, got {d[pos]!r}")

    while pos < end:
        opcode = d[pos]
        if opcode not in _COMMANDS:
            raise PathSyntax(pos, f"expected command letter, got {opcode!r}")
        pos += 1
        if opcode in "Zz":
            ops.append(opcode)
            pos = _skip(d, pos)
            continue
        # implicit repetition: further groups without a command letter; M and
        # its implicit L share a shape, so one pattern reads every group
        pattern = _GROUP_PATTERNS.get(opcode) or _compile_group(opcode)
        while True:
            m = pattern.match(d, pos)
            if m is None:
                _refused(d, pos, opcode)
            group = m.groups()
            if checked and not all(map(math.isfinite, map(float, group))):
                _refused(d, pos, opcode)
            ops.append(opcode)
            args += map(float, group)
            pos = m.end()
            if pos >= end or d[pos] not in _NUMBER_START:
                break
            opcode = REPEAT.get(opcode, opcode)


def scan_path_data(d: str) -> tuple[str, list[float]]:
    """The columns of a ``d`` attribute (module docstring): one opcode letter
    per argument group and the groups' numbers. An empty or whitespace-only
    string is a valid empty path."""
    ops: list[str] = []
    args: list[float] = []
    try:
        _scan(d, ops, args, False)
    finally:  # on an error too: the first one may be a number out of range
        if math.inf in args or -math.inf in args:
            _scan(d, [], [], True)
    return "".join(ops), args


def parse_path_data(d: str) -> list[RawCommand]:
    """Parse a ``d`` attribute into single-group :class:`RawCommand` items:
    :func:`scan_path_data`'s columns, one command per opcode letter."""
    return list(raw_commands(*scan_path_data(d)))
