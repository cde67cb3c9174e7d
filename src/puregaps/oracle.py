"""Reference computations, straight from first principles.

Nothing here touches the box-decomposition engine; these functions are the
independent side of every cross-check.  The pure gap set is computed from
its definition, as the glbs of incomparable generating pairs, by a scan
that keeps the already-passed second coordinates sorted and so needs no
dedup set and no final sort.  The scan's natural output is by column, one
first coordinate with its ascending second coordinates; the same scan
lists the points or counts them without listing.
The period-law checker shares its routine with validation, so on a
validated set it cannot fail; it is there for tampered data.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import repeat

from .errors import InvalidParamsError
from .lattice import GeneratingSet, period_law_violations


def pure_gap_columns_direct(gamma: GeneratingSet) -> list:
    """Pure gaps as glbs of incomparable generating pairs (sorted-suffix
    scan), by column: ``[(a, ascending second coordinates at a)]`` in
    increasing ``a``, with no empty column.

    Points are walked in decreasing first coordinate while the second
    coordinates already passed are kept in a sorted list.  Coordinates are
    pairwise distinct within each projection, so the points passed (all
    with larger first coordinates) that are incomparable with
    ``(a_i, b_i)`` are exactly those with a second coordinate ``v < b_i``,
    and each such pair has the glb ``(a_i, v)``: the column at ``a_i`` is
    the prefix of the sorted list below ``b_i``.  Distinct pairs give
    distinct glbs, so nothing needs deduplicating, and the list of columns
    is reversed once.  Cost: O(g log g) compares, O(g^2/word) moves for the
    sorted insertions, and O(|G0|) output.
    """
    columns = []
    passed = []
    for a, b in sorted(gamma.points, reverse=True):
        k = bisect_left(passed, b)
        if k:
            columns.append((a, passed[:k]))
        insort(passed, b)
    columns.reverse()
    return columns


def points_of(columns) -> list:
    """The sorted list of plain ``(a, b)`` tuples that ``columns``, pairs
    ``(a, ascending bs)`` in increasing ``a``, hold."""
    out = []
    extend = out.extend
    for a, bs in columns:
        extend(zip(repeat(a, len(bs)), bs))
    return out


def pure_gaps_direct(gamma: GeneratingSet) -> list:
    """Pure gaps as glbs of incomparable generating pairs: the columns of
    :func:`pure_gap_columns_direct`, flattened.  Returns a sorted,
    duplicate-free list of plain ``(a, b)`` tuples."""
    return points_of(pure_gap_columns_direct(gamma))


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


@dataclass(frozen=True)
class PeriodPropertyReport:
    """Outcome of re-checking the period displacement law."""

    period: int
    points_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_period_property(points, period: int | None = None) -> PeriodPropertyReport:
    """Re-verify the period displacement law, collecting all violations.

    Accepts a validated GeneratingSet or a bare iterable of (beta, tau)
    pairs plus the period, so tampered data can be examined too.  A
    duplicate first coordinate among raw pairs is reported, and the larger
    image kept.  The law is checked by
    :func:`puregaps.lattice.period_law_violations` in its chain form (the
    successor rule plus one run per residue class), which is equivalent to
    both directions of the equivalence (beta + k*period is a first
    coordinate iff k*period < tau(beta)) and the displacement equation,
    for every shift count k.
    """
    if isinstance(points, GeneratingSet):
        period = points.period
        pairs = list(points.points)
    else:
        if period is None:
            raise InvalidParamsError("period is required with raw point data")
        pairs = sorted(tuple(p) for p in points)
    if period < 1:
        raise InvalidParamsError(f"period must be positive, got {period}")

    violations = []
    tau = {}
    for a, b in pairs:
        if a in tau:
            violations.append(f"duplicate first coordinate {a}")
        tau[a] = b

    violations.extend(message for _, _, message
                      in period_law_violations(tau, period))
    return PeriodPropertyReport(period=period, points_checked=len(pairs),
                                violations=tuple(violations))
