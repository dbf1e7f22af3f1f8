"""SVG 1.1 path data scanner.

Implements the complete ``d`` attribute grammar: implicit command
repetition, comma/whitespace separators, scientific notation, and arc
flags juxtaposed with the following number ("a1 1 0 011 1" is four
tokens ``0 1 1 1`` after the rotation). The scanner is total: any input
either yields commands or raises a positioned :class:`PathSyntax` /
:class:`UnexpectedEnd`.

Each argument group is read by one ``match`` of a pattern compiled for
its shape (1, 2, 4 or 6 numbers, or an arc's three numbers, two
single-character flags and two numbers), separators before and after
included. Every number in such a pattern is atomic, so it matches
exactly what :data:`NUMBER` alone would: ``439`` never backtracks into
``43`` and ``9``. A group that its pattern refuses, or that holds a
number out of range, is scanned again token by token, and that scan
raises the positioned error; it never yields a command.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn

from .errors import PathSyntax, UnexpectedEnd
from .model import PARAM_COUNTS, ARC_FLAG_INDICES, RawCommand

_WSP = re.compile(r"[ \t\r\n\f,]*")
#: One SVG number: sign? (digits '.' digits? | '.' digits | digits) exponent?
#: The parser reads attribute number lists with the same grammar.
NUMBER = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_COMMANDS = frozenset("MmLlHhVvCcSsQqTtAaZz")
_NUMBER_START = frozenset("+-.0123456789")
_REPEAT = {"M": "L", "m": "l"}  # a moveto's extra groups are linetos


def _skip(d: str, pos: int) -> int:
    return _WSP.match(d, pos).end()


def _scan_number(d: str, pos: int, opcode: str) -> tuple[float, int]:
    pos = _skip(d, pos)
    if pos >= len(d):
        raise UnexpectedEnd(pos, f"missing arguments for {opcode!r}")
    m = NUMBER.match(d, pos)
    if m is None:
        raise PathSyntax(pos, f"expected number for {opcode!r}, got {d[pos]!r}")
    value = float(m.group())
    if not math.isfinite(value):
        raise PathSyntax(pos, f"number out of range: {m.group()!r}")
    return value, m.end()


def _scan_flag(d: str, pos: int, opcode: str) -> tuple[float, int]:
    pos = _skip(d, pos)
    if pos >= len(d):
        raise UnexpectedEnd(pos, f"missing arc flag for {opcode!r}")
    ch = d[pos]
    if ch not in "01":
        raise PathSyntax(pos, f"arc flag must be 0 or 1, got {ch!r}")
    return float(ch), pos + 1


def _scan_group(d: str, pos: int, opcode: str) -> tuple[tuple[float, ...], int]:
    # one group, token by token: only _refused calls it, for its error
    n = PARAM_COUNTS[opcode.upper()]
    args: list[float] = []
    is_arc = opcode in "Aa"
    for i in range(n):
        if is_arc and i in ARC_FLAG_INDICES:
            value, pos = _scan_flag(d, pos, opcode)
        else:
            value, pos = _scan_number(d, pos, opcode)
        args.append(value)
    return tuple(args), pos


def _refused(d: str, pos: int, opcode: str) -> NoReturn:
    """Raise the positioned error of the group at ``pos``, scanned token by token."""
    _scan_group(d, pos, opcode)
    raise AssertionError(f"the {opcode!r} group pattern refused a valid group at {pos}")


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


def parse_path_data(d: str) -> list[RawCommand]:
    """Parse a ``d`` attribute into single-group :class:`RawCommand` items.

    Implicit repetition is materialized: extra coordinate pairs after a
    moveto become explicit lineto commands of the same relativity, and
    repeated groups of any other command become repeated commands. An
    empty or whitespace-only string is a valid empty path.
    """
    commands: list[RawCommand] = []
    end = len(d)
    pos = _skip(d, 0)
    if pos >= end:
        return commands
    if d[pos] not in "Mm":
        raise PathSyntax(pos, f"path must start with a moveto, got {d[pos]!r}")

    while pos < end:
        opcode = d[pos]
        if opcode not in _COMMANDS:
            raise PathSyntax(pos, f"expected command letter, got {opcode!r}")
        pos += 1
        if opcode in "Zz":
            commands.append(RawCommand(opcode))
            pos = _skip(d, pos)
            continue
        # implicit repetition: further groups without a command letter; M and
        # its implicit L share a shape, so one pattern reads every group
        pattern = _GROUP_PATTERNS.get(opcode) or _compile_group(opcode)
        while True:
            m = pattern.match(d, pos)
            if m is None:
                _refused(d, pos, opcode)
            args = tuple(map(float, m.groups()))
            if math.inf in args or -math.inf in args:
                _refused(d, pos, opcode)
            commands.append(RawCommand(opcode, args))
            pos = m.end()
            if pos >= end or d[pos] not in _NUMBER_START:
                break
            opcode = _REPEAT.get(opcode, opcode)

    return commands
