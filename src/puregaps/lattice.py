"""Integer lattice points under the product partial order, and validated
minimal generating sets.

A :class:`LatticePoint` is a pair of nonnegative 64-bit integers ordered
coordinatewise.  A :class:`GeneratingSet` is the graph of the bijection
between the gap sets at two places together with the period of the
two-place semigroup; :func:`validate_generating_set` is the only sanctioned
way to build one and enforces, among other things, the period displacement
law: ``beta + k*period`` is a first coordinate exactly when
``k*period < tau(beta)``, and then its image is ``tau(beta) - k*period``.

Everything here is immutable and every operation is a pure function, so
values can be shared freely across threads.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    CoordinateDivisibleByPeriodError,
    DuplicateFirstCoordinateError,
    DuplicateSecondCoordinateError,
    GapBeyondGenusBoundError,
    InvalidParamsError,
    PeriodPropertyViolationError,
    ZeroOrNegativeCoordinateError,
)

#: Largest admissible coordinate (64-bit signed).
COORD_MAX = 2**63 - 1


class LatticePoint(namedtuple("LatticePoint", ("a", "b"))):
    """A point ``(a, b)`` in N0 x N0.

    Compares, hashes and sorts exactly like the plain tuple ``(a, b)``, so
    results may freely mix both representations.  Construction rejects
    negative coordinates and coordinates beyond the 64-bit signed range.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "LatticePoint":
        if a < 0 or b < 0:
            raise ValueError(f"negative coordinate in ({a}, {b})")
        if a > COORD_MAX or b > COORD_MAX:
            raise OverflowError(
                f"coordinate outside 64-bit signed range in ({a}, {b})")
        return tuple.__new__(cls, (a, b))


def lub(p, q) -> LatticePoint:
    """Least upper bound: the coordinatewise maximum of ``p`` and ``q``."""
    a1, b1 = p
    a2, b2 = q
    return LatticePoint(a1 if a1 >= a2 else a2, b1 if b1 >= b2 else b2)


def glb(p, q) -> LatticePoint:
    """Greatest lower bound: the coordinatewise minimum of ``p`` and ``q``."""
    a1, b1 = p
    a2, b2 = q
    return LatticePoint(a1 if a1 <= a2 else a2, b1 if b1 <= b2 else b2)


def incomparable(p, q) -> bool:
    """True when neither point dominates the other coordinatewise."""
    a1, b1 = p
    a2, b2 = q
    return (a1 > a2 and b1 < b2) or (a1 < a2 and b1 > b2)


@dataclass(frozen=True)
class GeneratingSet:
    """Validated minimal generating set of a two-place semigroup.

    ``points`` holds the pairs ``(beta, tau(beta))`` sorted by first
    coordinate; ``period`` is the period of the semigroup.  The genus of
    the underlying function field equals the number of points.

    Build instances through :func:`validate_generating_set`; the raw
    constructor performs no checks.
    """

    points: tuple
    period: int

    @property
    def genus(self) -> int:
        return len(self.points)

    def tau(self) -> dict:
        """The gap bijection as a dict, first coordinate to second."""
        return {a: b for a, b in self.points}

    def __iter__(self) -> Iterator[LatticePoint]:
        return iter(self.points)


def validate_generating_set(points: Iterable, period: int) -> GeneratingSet:
    """Check every generating set invariant and return the validated set.

    ``points`` is any iterable of pairs.  Checks, in order: the period is
    positive; all coordinates are strictly positive and inside the 64-bit
    range; no coordinate is a multiple of the period; coordinates are
    pairwise distinct within each projection; and, for every point, the
    period displacement law holds in both directions for every shift count
    and both coordinates are at most ``2g - 1``, the largest gap of a place
    of genus ``g``.  An empty set is valid with any period (genus zero).
    """
    if period < 1:
        raise InvalidParamsError(f"period must be a positive integer, got {period}")

    pts = []
    for p in points:
        a, b = p
        if a <= 0 or b <= 0:
            raise ZeroOrNegativeCoordinateError(
                f"({a}, {b}): generating set coordinates must be positive")
        if a % period == 0 or b % period == 0:
            raise CoordinateDivisibleByPeriodError(
                f"({a}, {b}): coordinate divisible by period {period}")
        pts.append(LatticePoint(a, b))
    pts.sort()

    tau = {}
    seen_b = {}
    for a, b in pts:
        if a in tau:
            raise DuplicateFirstCoordinateError(
                f"first coordinate {a} appears twice")
        if b in seen_b:
            raise DuplicateSecondCoordinateError(
                f"second coordinate {b} appears twice")
        tau[a] = b
        seen_b[b] = a

    if pts:
        amax = pts[-1][0]
        top = 2 * len(pts) - 1
        for a, b in pts:
            k = 1
            while True:
                shifted = a + k * period
                if k * period < b:
                    expect = b - k * period
                    got = tau.get(shifted)
                    if got != expect:
                        found = "absent" if got is None else f"maps to {got}"
                        raise PeriodPropertyViolationError(
                            f"({a}, {b}) with k={k}: requires ({shifted}, "
                            f"{expect}) in the set, but {shifted} is {found}",
                            beta=a, k=k)
                else:
                    if shifted > amax:
                        break
                    if shifted in tau:
                        raise PeriodPropertyViolationError(
                            f"({a}, {b}) with k={k}: {shifted} may not be a "
                            f"first coordinate since {k}*{period} >= {b}",
                            beta=a, k=k)
                k += 1
            if a > top or b > top:
                raise GapBeyondGenusBoundError(
                    f"({a}, {b}): coordinate exceeds 2g-1 = {top} for "
                    f"genus {len(pts)}")

    return GeneratingSet(points=tuple(pts), period=period)
