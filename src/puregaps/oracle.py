"""Reference computations, straight from first principles.

Nothing here touches the box-decomposition engine; these functions are the
independent side of every cross-check.  The pure gap set is computed from
its definition, as the glbs of incomparable generating pairs, by a scan
that keeps the already-passed second coordinates sorted and so needs no
dedup set and no final sort.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import repeat

from .errors import InvalidParamsError
from .lattice import GeneratingSet, lub


def gap_projections(gamma: GeneratingSet):
    """The two one-place gap sets: (first coordinates, second coordinates)."""
    gaps1 = set()
    gaps2 = set()
    for a, b in gamma.points:
        gaps1.add(a)
        gaps2.add(b)
    return gaps1, gaps2


@dataclass(frozen=True)
class SemigroupBox:
    """The two-place semigroup clipped to the square [0, bound]^2."""

    bound: int
    members: frozenset


def semigroup_box(gamma: GeneratingSet, bound: int) -> SemigroupBox:
    """Semigroup members inside [0, bound]^2.

    Generated as all lubs of pairs drawn from the generating set together
    with the two axis copies of the one-place semigroups.  Any lub inside
    the box has both of its arguments inside the box, so seeds are clipped
    first.  A bound of at least twice the genus makes the region
    a+b >= 2g certify completeness.
    """
    if bound < 0:
        raise InvalidParamsError(f"bound must be nonnegative, got {bound}")
    gaps1, gaps2 = gap_projections(gamma)
    seeds = [(a, 0) for a in range(bound + 1) if a not in gaps1]
    seeds += [(0, b) for b in range(bound + 1) if b not in gaps2]
    seeds += [(a, b) for a, b in gamma.points if a <= bound and b <= bound]
    members = set()
    for x in seeds:
        for y in seeds:
            m = lub(x, y)
            if m[0] <= bound and m[1] <= bound:
                members.add(m)
    return SemigroupBox(bound=bound, members=frozenset(members))


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
    pairs plus the period, so tampered data can be examined too.  For every
    point and every shift count k it checks both directions of the
    equivalence (beta + k*period is a first coordinate iff
    k*period < tau(beta)) and the displacement equation itself.
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

    if pairs:
        amax = max(tau)
        for a, b in sorted(tau.items()):
            k = 1
            while True:
                shifted = a + k * period
                if k * period < b:
                    expect = b - k * period
                    got = tau.get(shifted)
                    if got != expect:
                        found = "absent" if got is None else f"maps to {got}"
                        violations.append(
                            f"({a}, {b}) k={k}: expected ({shifted}, {expect}),"
                            f" but {shifted} is {found}")
                else:
                    if shifted > amax:
                        break
                    if shifted in tau:
                        violations.append(
                            f"({a}, {b}) k={k}: {shifted} present although "
                            f"{k}*{period} >= {b}")
                k += 1

    return PeriodPropertyReport(period=period, points_checked=len(pairs),
                                violations=tuple(violations))
