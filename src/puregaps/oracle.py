"""Reference computations, straight from first principles.

Nothing here touches the box-decomposition engine; these functions are the
independent side of every cross-check.  The pure gap set is computed from
its definition, as the glbs of incomparable generating pairs, by a scan
that keeps the already-passed second coordinates sorted and so needs no
dedup set and no final sort.  The scan sorts its glbs into the
period-sized boxes the engine keeps ``G0`` by, so the engine compares with
it box by box; the same scan lists the points or counts them without
listing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import repeat
from operator import itemgetter

from .lattice import GeneratingSet


def pure_gap_boxes_direct(gamma: GeneratingSet) -> dict:
    """Pure gaps as glbs of incomparable generating pairs (sorted-suffix
    scan), sorted into period-sized boxes: ``{(i, j): {r: ascending v}}``
    holds the glbs ``(i*period + r, j*period + v)``, with no empty column
    or box.

    Points are walked in decreasing first coordinate while the second
    coordinates already passed are kept sorted.  Coordinates are pairwise
    distinct within each projection, so the points passed (all with larger
    first coordinates) that are incomparable with ``(a, b)`` are exactly
    those with a second coordinate below ``b``, and each such pair has the
    glb ``(a, v)``: the glbs at ``a`` are the passed second coordinates
    below ``b``.  Distinct pairs give distinct glbs, so nothing needs
    deduplicating.

    The passed second coordinates are kept in bands ``j = v // period``,
    each a sorted list of ``v - j*period``, so no value is shifted after it
    is inserted.  With ``i, r = divmod(a, period)`` and ``j0, v0 =
    divmod(b, period)``, every non-empty band ``j < j0`` gives box
    ``(i, j)`` its whole list, and band ``j0`` gives box ``(i, j0)`` its
    prefix below ``v0``.  A whole band is one snapshot, copied when it is
    first given after its last insertion and shared by every later column
    until the band changes again, so **the returned lists may be shared and
    are read-only**.  Only the non-empty bands are walked, by a sorted list
    of their indices, so work and memory are bounded by the number of
    points and the output, not by ``max b / period``, even on unvalidated
    input.  The points of one box column ``i`` are consecutive in the walk,
    so its boxes are filled in one dict keyed by ``j``.  Cost: O(g log g)
    compares, O(g^2/word) moves for the sorted insertions, and O(|G0|)
    output.
    """
    period = gamma.period
    rows = []     # (i, {j: {r: ascending v}}), one per box column i
    order = []    # the indices j of the non-empty bands, ascending
    bands = []    # bands[n]: the sorted residues of band order[n]
    wholes = []   # wholes[n]: a copy of bands[n], or None when stale
    row_i = None
    for a, b in sorted(gamma.points, reverse=True):
        i, r = divmod(a, period)
        j0, v0 = divmod(b, period)
        if i != row_i:
            row_i = i
            row = {}
            rows.append((i, row))
        n0 = bisect_left(order, j0)
        for n in range(n0):
            whole = wholes[n]
            if whole is None:
                whole = wholes[n] = bands[n][:]
            j = order[n]
            column = row.get(j)
            if column is None:
                row[j] = {r: whole}
            else:
                column[r] = whole
        if n0 < len(order) and order[n0] == j0:
            band = bands[n0]
            cut = bisect_left(band, v0)
            if cut:
                column = row.get(j0)
                if column is None:
                    row[j0] = {r: band[:cut]}
                else:
                    column[r] = band[:cut]
            band.insert(cut, v0)
            wholes[n0] = None
        else:
            order.insert(n0, j0)
            bands.insert(n0, [v0])
            wholes.insert(n0, None)
    return {(i, j): columns for i, row in rows for j, columns in row.items()}


def points_of(boxes: dict, period: int) -> list:
    """The sorted list of plain ``(a, b)`` tuples that ``boxes``, as
    :func:`pure_gap_boxes_direct` gives them, hold."""
    by_first = {}
    for (i, j), columns in boxes.items():
        for r, vs in columns.items():
            by_first.setdefault(i * period + r, []).append((j * period, vs))
    out = []
    extend = out.extend
    for a in sorted(by_first):
        for base, vs in sorted(by_first[a], key=itemgetter(0)):
            extend(zip(repeat(a), map(base.__add__, vs)))
    return out


def pure_gaps_direct(gamma: GeneratingSet) -> list:
    """Pure gaps as glbs of incomparable generating pairs: the boxes of
    :func:`pure_gap_boxes_direct`, flattened.  Returns a sorted,
    duplicate-free list of plain ``(a, b)`` tuples."""
    return points_of(pure_gap_boxes_direct(gamma), gamma.period)


def count_pure_gaps_direct(gamma: GeneratingSet) -> int:
    """``len(pure_gaps_direct(gamma))`` without listing the pure gaps.

    The same sorted-suffix scan, summing each point's number of glbs,
    ``bisect_left(passed, b)``, instead of emitting them.
    """
    total = 0
    passed = []
    for _, b in sorted(gamma.points, reverse=True):
        total += bisect_left(passed, b)
        insort(passed, b)
    return total
