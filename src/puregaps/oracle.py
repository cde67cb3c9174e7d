"""Reference computations, straight from first principles.

Nothing here touches the box-decomposition engine; these functions are the
independent side of every cross-check.  The pure gap set is computed from
its definition, as the glbs of incomparable generating pairs, by a scan
that keeps the already-passed second coordinates sorted and so needs no
dedup set and no final sort; the same scan counts them without listing.
The period-law checker shares its routine with validation, so on a
validated set it cannot fail; it is there for tampered data.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import repeat

from .errors import InvalidParamsError
from .lattice import GeneratingSet, period_law_violations


def pure_gaps_direct(gamma: GeneratingSet) -> list:
    """Pure gaps as glbs of incomparable generating pairs (sorted-suffix scan).

    Points are walked in decreasing first coordinate while the second
    coordinates already passed are kept in a sorted list.  Coordinates are
    pairwise distinct within each projection, so the points passed (all
    with larger first coordinates) that are incomparable with
    ``(a_i, b_i)`` are exactly those with a second coordinate ``v < b_i``,
    and each such pair has the glb ``(a_i, v)``.
    Distinct pairs give distinct glbs, so nothing needs deduplicating.
    Each point's glbs are appended in decreasing ``v`` and the whole list
    is reversed once, which leaves it sorted.  Cost: O(g log g) compares,
    O(g^2/word) moves for the sorted insertions, and O(|G0|) output.
    Returns a sorted, duplicate-free list of plain ``(a, b)`` tuples.
    """
    out = []
    extend = out.extend
    passed = []
    for a, b in sorted(gamma.points, reverse=True):
        k = bisect_left(passed, b)
        if k:  # passed[-1::-1] would be the whole list
            extend(zip(repeat(a, k), passed[k - 1::-1]))
        insort(passed, b)
    out.reverse()
    return out


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
