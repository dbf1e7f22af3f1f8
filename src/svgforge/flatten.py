"""Adaptive flattening of cubic Bezier curves, one rule for two walks.

A cubic is halved at t = 0.5 (de Casteljau) until a piece is flat or
``MAX_DEPTH`` halvings deep. A piece is flat when no control point is
farther than the tolerance from the chord segment (:func:`splits`).
:func:`walk` goes through the halving tree a piece at a time, left half
first, without numpy (``flatten_cubic`` in :mod:`svgforge.verifier`);
:func:`flatten_levels` flattens any number of cubics level by level in
numpy, for verify. Both decide each piece as :func:`splits` does and halve
it with the same midpoints, so their points agree to the bit:

- each level tests every live piece at once, with the operations of
  :func:`splits` in its order;
- ``np.hypot`` and ``math.hypot`` may differ in the last bit, so a piece
  whose test lies within ``BAND`` of the tolerance, whose chord lies
  within ``BAND`` of the 1e-30 cutoff, or whose test is not finite, is
  decided again by :func:`splits` itself;
- the pieces that split are halved with the walk's sums and halvings (a
  sum is the same either way round), and each level's arrays are freed
  as the next is made;
- the leaves are put in the walk's order at the end, from the number of
  leaves under each piece, with no sort;
- the pass runs under ``np.errstate(all="ignore")``: the walk's float
  arithmetic never warns, so neither does the pass.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Halvings at most; a piece this deep is a leaf.
MAX_DEPTH = 24
#: Relative width of the band around the tolerance and the chord cutoff
#: whose pieces :func:`flatten_levels` decides again with :func:`splits`.
BAND = 1e-12


def splits(x0, y0, x1, y1, x2, y2, x3, y3, tolerance: float) -> bool:
    """Whether the piece is not flat: some control point is farther than
    ``tolerance`` from the chord segment. The curve lies in the hull of its
    control points, so it is no farther from the chord. The segment, not
    its line, so a curve that turns back beyond an endpoint is not taken
    for its chord."""
    hypot = math.hypot
    dx, dy = x3 - x0, y3 - y0
    norm = hypot(dx, dy)
    if norm < 1e-30:
        return not max(hypot(x1 - x0, y1 - y0), hypot(x2 - x0, y2 - y0)) <= tolerance
    # the farther control point is beyond the tolerance when either one is
    len2 = dx * dx + dy * dy
    for cx, cy in ((x1, y1), (x2, y2)):
        ex, ey = cx - x0, cy - y0
        along = dx * ex + dy * ey
        if along < 0.0:
            split = hypot(ex, ey) > tolerance
        elif along > len2:
            split = hypot(cx - x3, cy - y3) > tolerance
        else:
            split = abs(dx * ey - dy * ex) / norm > tolerance
        if split:
            return True
    return False


def walk(x0, y0, x1, y1, x2, y2, x3, y3, tolerance: float) -> list[tuple[float, float]]:
    """The end of each leaf of the cubic's halving tree, in order; the
    last is the cubic's end."""
    out = []
    stack: list[tuple] = []  # the right halves still to come
    depth = 0
    while True:
        if depth < MAX_DEPTH and splits(x0, y0, x1, y1, x2, y2, x3, y3, tolerance):
            ax, ay = (x0 + x1) / 2, (y0 + y1) / 2
            bx, by = (x1 + x2) / 2, (y1 + y2) / 2
            cx, cy = (x2 + x3) / 2, (y2 + y3) / 2
            abx, aby = (ax + bx) / 2, (ay + by) / 2
            bcx, bcy = (bx + cx) / 2, (by + cy) / 2
            mx, my = (abx + bcx) / 2, (aby + bcy) / 2
            depth += 1
            stack.append((bcx, bcy, cx, cy, x3, y3, depth))
            x1, y1, x2, y2, x3, y3 = ax, ay, abx, aby, mx, my
            continue
        out.append((x3, y3))
        if not stack:
            return out
        x0, y0 = x3, y3  # a right half starts where the points so far end
        x1, y1, x2, y2, x3, y3, depth = stack.pop()


def flatten_levels(pieces: np.ndarray, tolerance: np.ndarray):
    """The :func:`walk` of each cubic: ``(counts, ends)``, the number of
    leaves of each cubic and their ends, cubic by cubic, as an ``(n, 2)``
    array.

    ``pieces`` holds the cubics as ``(4, 2, k)``: their start, controls
    and end, x then y; ``tolerance`` is each cubic's, as a ``(k,)`` array.
    See the module docstring for how a level is tested and halved.
    """
    import numpy as np

    levels = []  # each level's leaves, their ends, and the pieces that split
    with np.errstate(all="ignore"):
        for depth in range(MAX_DEPTH + 1):
            if depth < MAX_DEPTH:
                split = _split_level(pieces, tolerance)
            else:  # MAX_DEPTH halvings deep: every piece is a leaf
                split = np.zeros(pieces.shape[2], dtype=bool)
            halve = np.flatnonzero(split)
            leaves = np.flatnonzero(~split)
            levels.append((leaves, pieces[3][:, leaves], halve))
            m = len(halve)
            if not m:
                break
            # de Casteljau at t = 0.5, in place: the pieces that split go to
            # the left halves, then c, b, a, bc, ab and the midpoint; a sum
            # is the same either way round
            children = np.empty((4, 2, 2 * m))
            left, right = children[:, :, :m], children[:, :, m:]
            np.compress(split, pieces, axis=2, out=left)
            del pieces, split
            right[3] = left[3]
            np.add(left[2], left[3], out=right[2])
            right[2] /= 2
            left[2] += left[1]
            left[2] /= 2
            left[1] += left[0]
            left[1] /= 2
            np.add(left[2], right[2], out=right[1])
            right[1] /= 2
            left[2] += left[1]
            left[2] /= 2
            np.add(left[2], right[1], out=left[3])
            left[3] /= 2
            right[0] = left[3]
            pieces = children
            del children, left, right
            tolerance = np.concatenate((tolerance[halve], tolerance[halve]))
    # Order the leaves as the walk does: count the leaves under each piece
    # from the deepest level up, then, from the top down, put a left half's
    # first leaf where its parent's goes and a right half's after the left
    # half's leaves.
    under = [np.ones(len(leaves) + len(halve), dtype=np.intp) for leaves, _, halve in levels]
    for depth in range(len(levels) - 2, -1, -1):
        halve = levels[depth][2]
        under[depth][halve] = under[depth + 1][:len(halve)] + under[depth + 1][len(halve):]
    first = np.cumsum(under[0]) - under[0]
    ends = np.empty((int(under[0].sum()), 2))
    for depth, (leaves, leaf_ends, halve) in enumerate(levels):
        ends[first[leaves]] = leaf_ends.T
        if len(halve):
            first = first[halve]
            first = np.concatenate((first, first + under[depth + 1][:len(halve)]))
    return under[0], ends


def _split_level(pieces: np.ndarray, tolerance: np.ndarray) -> np.ndarray:
    """:func:`splits` of each piece of ``pieces`` (see the module docstring).

    Rows 0 and 1 of ``share`` are each control point's distance from the
    chord segment as a share of the tolerance, and row 2 the chord's
    length as a share of the cutoff; a share near 1, or not finite, is in
    doubt. The distances from the start and beyond the end are computed
    only for the control points they apply to.
    """
    import numpy as np

    (x0, y0), (x3, y3) = pieces[0], pieces[3]
    dx, dy = x3 - x0, y3 - y0
    norm = np.hypot(dx, dy)
    len2 = dx * dx + dy * dy
    degenerate = norm < 1e-30
    share = np.empty((3, len(norm)))
    for d, (cx, cy) in zip(share, pieces[1:3]):
        ex, ey = cx - x0, cy - y0
        along = dx * ex + dy * ey
        np.multiply(dx, ey, out=d)
        d -= dy * ex
        np.abs(d, out=d)
        d /= norm
        at = (along > len2).nonzero()
        d[at] = np.hypot(cx[at] - x3[at], cy[at] - y3[at])
        at = ((along < 0.0) | degenerate).nonzero()
        d[at] = np.hypot(ex[at], ey[at])
        del ex, ey, along, at
    share[:2] /= tolerance
    np.multiply(norm, 1e30, out=share[2])
    split = (share[:2] > 1.0).any(axis=0)
    share -= 1.0
    np.abs(share, out=share)
    sure = share > BAND
    sure &= share < np.inf
    for i in np.flatnonzero(~sure.all(axis=0)).tolist():
        split[i] = splits(*pieces[:, :, i].ravel().tolist(), float(tolerance[i]))
    return split
