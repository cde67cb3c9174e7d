"""Integer lattice points and validated minimal generating sets.

A :class:`LatticePoint` is a pair of nonnegative 64-bit integers.  A
:class:`GeneratingSet` is the graph of the bijection between the gap sets
at two places together with the period of the two-place semigroup;
:func:`validate_generating_set` is the only sanctioned way to build one
and enforces, among other things, the period displacement law:
``beta + k*period`` is a first coordinate exactly when
``k*period < tau(beta)``, and then its image is ``tau(beta) - k*period``.
The law is checked in an equivalent chain form that takes one linear pass,
by :func:`period_law_violations`, which the tampered-data checker in
:mod:`puregaps.oracle` shares.

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
    ResidueChainStartError,
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


def period_law_violations(tau: dict, period: int) -> Iterator[tuple]:
    """Yield ``(beta, k, message)`` for each breach of the period
    displacement law by the map ``tau``, in increasing ``beta``.

    The law is checked in its chain form, in linear time after one sort:

    * successor rule: ``a + period`` is a first coordinate exactly when
      ``period < tau(a)``, and then its image is ``tau(a) - period``;
    * one run per residue class: the first coordinates in each class
      modulo the period are consecutive, ``a, a + period, a + 2*period``.

    Together these are equivalent to the law for every shift count ``k``:
    the law at ``k = 1`` is the successor rule, and a shift present at
    ``k`` forces every shorter one.  Conversely, by induction the
    successor rule puts ``beta + k*period`` in the set, with image
    ``tau(beta) - k*period``, exactly while ``k*period < tau(beta)``; a run
    that goes on past that chain's end is the law's "present although
    ``k*period >= tau(beta)``" case.  A run break after ``a`` with
    ``period < tau(a)`` breaks the successor rule and is named once, as
    that, so every yielded ``(beta, k)`` breaks the law at that shift.
    """
    firsts = sorted(tau)
    last = {}    # residue class -> largest first coordinate so far
    breaks = {}  # first coordinate -> the next one of its class, past a gap
    for a in firsts:
        r = a % period
        prev = last.get(r)
        if prev is not None and prev != a - period:
            breaks[prev] = a
        last[r] = a
    for a in firsts:
        b = tau[a]
        shifted = a + period
        if period < b:
            got = tau.get(shifted)
            if got != b - period:
                found = "absent" if got is None else f"maps to {got}"
                yield a, 1, (f"({a}, {b}) with k=1: requires ({shifted}, "
                             f"{b - period}) in the set, but {shifted} is "
                             f"{found}")
        elif shifted in tau or a in breaks:
            shifted = breaks.get(a, shifted)
            k = (shifted - a) // period
            yield a, k, (f"({a}, {b}) with k={k}: {shifted} may not be a "
                         f"first coordinate since {k}*{period} >= {b}")


def validate_generating_set(points: Iterable, period: int) -> GeneratingSet:
    """Check every generating set invariant and return the validated set.

    ``points`` is any iterable of pairs.  Checks, in order: the period is
    positive; all coordinates are strictly positive and inside the 64-bit
    range; no coordinate is a multiple of the period; coordinates are
    pairwise distinct within each projection; the period displacement law
    holds, checked by :func:`period_law_violations` in its chain form,
    which is equivalent to the law for every shift count (the first
    violation raises); in a pass of its own after the law, no coordinate
    exceeds ``2g - 1``, the largest gap of a place of genus ``g``; and
    last, ``a - period`` is a first coordinate for each first coordinate
    ``a > period``, as for the gaps of a semigroup containing the period.
    Each chain then has ``k + 1`` points if its last lies in row ``k``,
    which is the genus identity of the box decomposition.  An empty set
    is valid with any period (genus zero).
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

    for beta, k, message in period_law_violations(tau, period):
        raise PeriodPropertyViolationError(message, beta=beta, k=k)
    top = 2 * len(pts) - 1
    for a, b in pts:
        if a > top or b > top:
            raise GapBeyondGenusBoundError(
                f"({a}, {b}): coordinate exceeds 2g-1 = {top} for "
                f"genus {len(pts)}")
    for a in tau:
        if a > period and a - period not in tau:
            raise ResidueChainStartError(
                f"({a}, {tau[a]}): the first coordinates are not the gaps of a "
                f"semigroup containing the period {period}: {a} is one and "
                f"{a - period} is not", beta=a)

    return GeneratingSet(points=tuple(pts), period=period)
