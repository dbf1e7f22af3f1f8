"""SVG 1.1 path data scanner.

Implements the complete ``d`` attribute grammar: implicit command
repetition, comma/whitespace separators, scientific notation, and arc
flags juxtaposed with the following number ("a1 1 0 011 1" is four
tokens ``0 1 1 1`` after the rotation). The scanner is total: any input
either yields commands or raises a positioned :class:`PathSyntax` /
:class:`UnexpectedEnd`.
"""

from __future__ import annotations

import math
import re

from .errors import PathSyntax, UnexpectedEnd
from .model import PARAM_COUNTS, ARC_FLAG_INDICES, RawCommand

_WSP = re.compile(r"[ \t\r\n\f,]*")
#: One SVG number: sign? (digits '.' digits? | '.' digits | digits) exponent?
#: The parser reads attribute number lists with the same grammar.
NUMBER = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_COMMANDS = frozenset("MmLlHhVvCcSsQqTtAaZz")
_NUMBER_START = frozenset("+-.0123456789")


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


def parse_path_data(d: str) -> list[RawCommand]:
    """Parse a ``d`` attribute into single-group :class:`RawCommand` items.

    Implicit repetition is materialized: extra coordinate pairs after a
    moveto become explicit lineto commands of the same relativity, and
    repeated groups of any other command become repeated commands. An
    empty or whitespace-only string is a valid empty path.
    """
    commands: list[RawCommand] = []
    pos = _skip(d, 0)
    if pos >= len(d):
        return commands
    if d[pos] not in "Mm":
        raise PathSyntax(pos, f"path must start with a moveto, got {d[pos]!r}")

    while pos < len(d):
        opcode = d[pos]
        if opcode not in _COMMANDS:
            raise PathSyntax(pos, f"expected command letter, got {opcode!r}")
        pos += 1
        if opcode in "Zz":
            commands.append(RawCommand(opcode))
            pos = _skip(d, pos)
            continue
        group, pos = _scan_group(d, pos, opcode)
        commands.append(RawCommand(opcode, group))
        # implicit repetition: subsequent groups without a command letter
        repeat = {"M": "L", "m": "l"}.get(opcode, opcode)
        pos = _skip(d, pos)
        while pos < len(d) and d[pos] in _NUMBER_START:
            group, pos = _scan_group(d, pos, repeat)
            commands.append(RawCommand(repeat, group))
            pos = _skip(d, pos)

    return commands
