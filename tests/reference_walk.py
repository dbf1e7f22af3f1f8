"""The command-object route from path data to M/L/C columns, kept as a reference.

Before the column scan, each ``d`` went through three layouts: the scanner
built one checked :class:`RawCommand` per argument group, ``_walk`` took
each one apart into a current-point walk, and ``iter_segments`` yielded
``Point`` tuples, which ``_to_mlc`` turned into columns. This module keeps
that route, written as it was, so that tests can compare the column walk
with it as ``float.hex``: :func:`reference_parse` is the per-token scanner
that the group patterns replaced, and :func:`reference_columns` follows
``element_columns`` for a path with no transform.
"""

from __future__ import annotations

import math
import re

from svgforge.errors import NoCurrentPoint, PathSyntax, UnexpectedEnd
from svgforge.model import ARC_FLAG_INDICES, PARAM_COUNTS, Point, RawCommand, _require_finite
from svgforge.normalizer import _CLOSE_EPS, NormalizeReport, _arc_columns
from svgforge.pathdata import NUMBER

# --- the per-token scanner ----------------------------------------------------

_REF_WSP = re.compile(r"[ \t\r\n\f,]*")


def _ref_skip(d, pos):
    return _REF_WSP.match(d, pos).end()


def _ref_number(d, pos, opcode):
    pos = _ref_skip(d, pos)
    if pos >= len(d):
        raise UnexpectedEnd(pos, f"missing arguments for {opcode!r}")
    m = NUMBER.match(d, pos)
    if m is None:
        raise PathSyntax(pos, f"expected number for {opcode!r}, got {d[pos]!r}")
    value = float(m.group())
    if not math.isfinite(value):
        raise PathSyntax(pos, f"number out of range: {m.group()!r}")
    return value, m.end()


def _ref_flag(d, pos, opcode):
    pos = _ref_skip(d, pos)
    if pos >= len(d):
        raise UnexpectedEnd(pos, f"missing arc flag for {opcode!r}")
    if d[pos] not in "01":
        raise PathSyntax(pos, f"arc flag must be 0 or 1, got {d[pos]!r}")
    return float(d[pos]), pos + 1


def _ref_group(d, pos, opcode):
    args = []
    for i in range(PARAM_COUNTS[opcode.upper()]):
        scan = _ref_flag if opcode in "Aa" and i in ARC_FLAG_INDICES else _ref_number
        value, pos = scan(d, pos, opcode)
        args.append(value)
    return tuple(args), pos


def reference_parse(d):
    """One :class:`RawCommand` per argument group of ``d``, token by token."""
    commands = []
    pos = _ref_skip(d, 0)
    if pos >= len(d):
        return commands
    if d[pos] not in "Mm":
        raise PathSyntax(pos, f"path must start with a moveto, got {d[pos]!r}")
    while pos < len(d):
        opcode = d[pos]
        if opcode not in "MmLlHhVvCcSsQqTtAaZz":
            raise PathSyntax(pos, f"expected command letter, got {opcode!r}")
        pos += 1
        if opcode in "Zz":
            commands.append(RawCommand(opcode))
            pos = _ref_skip(d, pos)
            continue
        group, pos = _ref_group(d, pos, opcode)
        commands.append(RawCommand(opcode, group))
        repeat = {"M": "L", "m": "l"}.get(opcode, opcode)
        pos = _ref_skip(d, pos)
        while pos < len(d) and d[pos] in "+-.0123456789":
            group, pos = _ref_group(d, pos, repeat)
            commands.append(RawCommand(repeat, group))
            pos = _ref_skip(d, pos)
    return commands


# --- the command walk ------------------------------------------------------------


def _walk(cmds):
    """Yield ``(opcode, args, p0, p1)`` per single-group raw command."""
    cur = start = None
    for cmd in cmds:
        op, rel = cmd.opcode.upper(), cmd.is_relative
        group = cmd.args
        p0 = cur
        if p0 is None:
            if op != "M":
                where = f"relative {cmd.opcode!r}" if rel else op
                raise NoCurrentPoint(f"{where} before any MoveTo")
        elif op != "Z" and (rel or op in ("H", "V")):
            # an absolute H/V adds 0.0 too, so -0 comes out as 0
            dx, dy = (p0.x, p0.y) if rel else (0.0, 0.0)
            if op == "V":
                group = (group[0] + dy,)
            else:
                k = 5 if op == "A" else 0  # an arc offsets its endpoint only
                group = group[:k] + tuple(
                    v + (dy if i % 2 else dx) for i, v in enumerate(group[k:])
                )
            _require_finite(*group)
        if op == "H":
            cur = Point(group[0], p0.y)
        elif op == "V":
            cur = Point(p0.x, group[0])
        elif op == "Z":
            cur = start
        else:
            cur = Point(group[-2], group[-1])
        yield op, group, p0, cur
        if op == "M":
            start = cur


def _reflect(ctrl, cur):
    if ctrl is None:
        return cur
    return Point(2.0 * cur.x - ctrl.x, 2.0 * cur.y - ctrl.y)


def reference_segments(cmds):
    """The ``Point`` segments that ``iter_segments`` yielded."""
    last_c2 = last_q = None
    for op, args, p0, p1 in _walk(cmds):
        next_c2 = next_q = None
        if op in ("L", "H", "V"):
            yield ("L", p0, p1)
        elif op in ("C", "S"):
            c1 = Point(args[0], args[1]) if op == "C" else _reflect(last_c2, p0)
            next_c2 = Point(args[-4], args[-3])
            yield ("C", p0, c1, next_c2, p1)
        elif op in ("Q", "T"):
            next_q = Point(args[0], args[1]) if op == "Q" else _reflect(last_q, p0)
            yield ("Q", p0, next_q, p1)
        elif op == "M":
            yield ("M", p1)
        elif op == "A":
            yield ("A", p0, *args[:5], p1)
        else:  # Z
            yield ("Z", p0, p1)
        last_c2, last_q = next_c2, next_q


def _require_finite_columns(xy):
    if not all(map(math.isfinite, xy)):
        _require_finite(*xy)


def reference_to_mlc(segments, report):
    """The M/L/C columns of :func:`reference_segments`."""
    ops, xy = [], []
    try:
        for seg in segments:
            kind = seg[0]
            if kind == "L":
                ops.append("L")
                xy += seg[2]
            elif kind == "C":
                ops.append("C")
                xy += (*seg[2], *seg[3], *seg[4])
            elif kind == "Q":
                _, p0, q, p1 = seg
                ops.append("C")
                xy += (p0.x + 2.0 * (q.x - p0.x) / 3.0, p0.y + 2.0 * (q.y - p0.y) / 3.0,
                       p1.x + 2.0 * (q.x - p1.x) / 3.0, p1.y + 2.0 * (q.y - p1.y) / 3.0,
                       p1.x, p1.y)
            elif kind == "M":
                if ops and ops[-1] == "M":
                    ops.pop()
                    del xy[-2:]
                ops.append("M")
                xy += seg[1]
            elif kind == "A":
                _arc_columns(ops, xy, *seg[1:])
                report.arcs_converted += 1
            else:  # Z
                _, cur, start = seg
                if max(abs(cur.x - start.x), abs(cur.y - start.y)) > _CLOSE_EPS:
                    ops.append("L")
                    xy += start
                    report.closures_materialized += 1
    except Exception:
        _require_finite_columns(xy)
        raise
    _require_finite_columns(xy)
    if ops and ops[-1] == "M":
        ops.pop()
        del xy[-2:]
    return "".join(ops), xy


def reference_columns(d: str, report: NormalizeReport):
    """What ``element_columns`` gave a path of data ``d`` with a fill and
    no transform: its M/L/C columns, or ``None`` when it has no geometry."""
    cmds = reference_parse(d)
    report.relative_resolved += sum(c.is_relative for c in cmds)
    ops, xy = reference_to_mlc(reference_segments(cmds), report)
    if not ops.strip("M"):
        report.count_drop("no_geometry")
        return None
    return ops, xy
