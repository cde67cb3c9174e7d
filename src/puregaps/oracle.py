"""Reference computations, straight from first principles.

Nothing here touches the box-decomposition engine; these functions are the
independent side of every cross-check.  The pure gap set is computed from
its definition, as the glbs of incomparable generating pairs, by one walk of
``gamma.descending()``, the points in decreasing first coordinate, that
keeps the passed second coordinates sorted and so needs no sort, no dedup
set and no final sort: :func:`pure_gaps_direct` lists the glbs and
:func:`count_pure_gaps_direct` counts them.  :func:`pure_gap_boxes_direct`
is the same walk with the passed coordinates kept in bands: it yields its
glbs one box column at a time, each box one period wide in the first
coordinate and a band of :func:`band_span` whole periods, at least
``BAND_BITS`` bits, in the second, each column an int bitmask as the
engine's are.  The engine compares with it box by box, one dict ``==`` per
box against its own boxes merged a band at a time, as the columns arrive.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice, repeat

from .lattice import GeneratingSet

#: The least width, in bits, of a band of the direct scan's second
#: coordinates: a band spans :func:`band_span` whole periods.
BAND_BITS = 2048


def band_span(period: int) -> int:
    """The number of whole periods in one band of the direct scan, the
    fewest that give at least ``BAND_BITS`` bits."""
    return max(1, -(-BAND_BITS // period))


def pure_gap_boxes_direct(gamma: GeneratingSet):
    """Pure gaps as glbs of incomparable generating pairs (sorted-suffix
    scan), sorted into boxes and yielded by box column, ``i`` decreasing:
    with ``width = band_span(period) * period``, ``(i, {j: {r: mask}})``
    holds the glbs ``(i*period + r, j*width + v)`` for each bit ``v`` of
    the mask, with no empty column, box or box column.  A box is one
    period wide in the first coordinate and one band, ``width`` bits, in
    the second.

    This is the walk of :func:`pure_gaps_direct`, whose docstring proves
    that the glbs at ``a`` are the passed second coordinates below ``b``,
    with the passed second coordinates kept in bands ``j = v // width``,
    each an int mask of the offsets ``v - j*width``.  With ``i, r =
    divmod(a, period)`` and ``j0, v0 = divmod(b, width)``, every non-empty
    band ``j < j0`` gives box ``(i, j)`` its whole mask, and band ``j0``
    gives box ``(i, j0)`` its prefix below ``v0``, ``band & ((1 << v0) -
    1)``.  An int is immutable, so a whole band is shared by every column
    it is given to, with no copy.  Only the non-empty bands are walked, by
    a sorted list of their indices, so work and memory are bounded by the
    number of points and the output, not by ``max b / width``, even on
    unvalidated input; a point in the lowest band walks none.  A band of
    at least ``BAND_BITS`` bits keeps the number of bands, and so the dict
    stores per point, small: a validated set's second coordinates stay
    below ``2g``, so it has at most ``2g / BAND_BITS + 1`` bands.  The
    points of one box column ``i`` are consecutive in the walk, so its
    boxes are filled one dict per band, kept beside the bands, and the
    non-empty ones yielded as the walk leaves the box column.  Cost:
    O(g log g) compares, one dict entry per column of output, and O(g *
    width/word) word operations on the masks.
    """
    period = gamma.period
    width = band_span(period) * period
    order = []    # the indices j of the non-empty bands, ascending
    bands = []    # bands[n]: the mask of the offsets of band order[n]
    boxes = []    # boxes[n]: {r: mask}, box (row_i, order[n])
    row_i = None
    for a, b in gamma.descending():
        i, r = divmod(a, period)
        j0, v0 = divmod(b, width)
        if i != row_i:
            if row := _filled(order, boxes):
                yield row_i, row
            row_i = i
            boxes = [{} for _ in order]
        n0 = bisect_left(order, j0)
        if n0:
            for column, band in zip(islice(boxes, n0), bands):
                column[r] = band
        bit = 1 << v0
        if n0 < len(order) and order[n0] == j0:
            band = bands[n0]
            if prefix := band & (bit - 1):
                boxes[n0][r] = prefix
            bands[n0] = band | bit
        else:
            order.insert(n0, j0)
            bands.insert(n0, bit)
            boxes.insert(n0, {})
    if row := _filled(order, boxes):
        yield row_i, row


def _filled(order, boxes) -> dict:
    """The boxes of a box column, ``{j: {r: mask}}``, the empty ones
    left out."""
    return {j: box for j, box in zip(order, boxes) if box}


def pure_gaps_direct(gamma: GeneratingSet) -> list:
    """Pure gaps as glbs of incomparable generating pairs (sorted-suffix
    walk), as a sorted, duplicate-free list of plain ``(a, b)`` tuples.

    Points are walked in decreasing first coordinate, as
    ``gamma.descending()`` gives them, while the second coordinates already
    passed are kept sorted.  Coordinates are pairwise distinct within each
    projection, so the points passed (all with larger first coordinates)
    that are incomparable with ``(a, b)`` are exactly those with a second
    coordinate below ``b``, and each such pair has the glb ``(a, v)``: the
    glbs at ``a`` are the passed second coordinates below ``b``, found by
    one ``bisect_left`` and appended in decreasing ``v``.  Distinct pairs
    give distinct glbs, so nothing needs deduplicating, and the list, built
    in decreasing order, is reversed once instead of sorted."""
    out = []
    extend = out.extend
    passed = []
    for a, b in gamma.descending():
        n = bisect_left(passed, b)
        extend(zip(repeat(a), reversed(passed[:n])))
        insort(passed, b)
    out.reverse()
    return out


def count_pure_gaps_direct(gamma: GeneratingSet) -> int:
    """``len(pure_gaps_direct(gamma))`` without listing the pure gaps: the
    same walk, summing each point's number of glbs, ``bisect_left(passed,
    b)``, instead of listing them."""
    total = 0
    passed = []
    for _, b in gamma.descending():
        total += bisect_left(passed, b)
        insort(passed, b)
    return total
