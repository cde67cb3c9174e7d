"""Validated minimal generating sets of integer lattice points.

A :class:`GeneratingSet` is the graph of the bijection between the gap sets
at two places together with the period of the two-place semigroup, held
as plain ``(a, b)`` int tuples; :func:`validate_generating_set` is the
only sanctioned way to build one and enforces, among other things, the
period displacement law:
``beta + k*period`` is a first coordinate exactly when
``k*period < tau(beta)``, and then its image is ``tau(beta) - k*period``.
The law is checked in an equivalent chain form that takes one linear pass,
by :func:`period_law_violations`: on a valid set a merge walk of the
sorted points against their period shifts, which builds no table; the map
``tau`` is built only to name a breach.  Validation is where the law is
enforced: it is not re-checked on a validated set, and no report carries
it as a verdict.

Everything here is immutable and every operation is a pure function, so
values can be shared freely across threads.  Records here and across the
package are namedtuples: ``len()``, iteration and unpacking see a
record's fields, so a :class:`GeneratingSet`'s points are ``.points``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import islice
from operator import itemgetter, lt
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


class GeneratingSet(namedtuple("GeneratingSet", ("points", "period"))):
    """Validated minimal generating set of a two-place semigroup.

    ``points`` holds the pairs ``(beta, tau(beta))`` sorted by first
    coordinate, as plain ``(a, b)`` int tuples, so ``dict(points)`` is the
    gap bijection.  ``period`` is the period of the semigroup.  The genus
    of the underlying function field equals the number of points.

    Build instances through :func:`validate_generating_set`; the raw
    constructor performs no checks.
    """

    __slots__ = ()

    @property
    def genus(self) -> int:
        return len(self.points)


def period_law_violations(period: int, items: list) -> Iterator[tuple]:
    """Yield ``(beta, k, message)`` for each breach of the period
    displacement law by the pairs ``items``, in increasing ``beta``.
    ``items`` is sorted, with distinct positive first coordinates.

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

    A merge walk comes first and builds nothing: the successors
    ``(a + period, b - period)`` of the points with ``b > period``, in
    order, are exactly the points with ``a >= period`` when the law holds
    and every chain starts below the period (and only then), so when they
    are, nothing is yielded.  Otherwise the map is built and walked point
    by point, to name each breach.
    """
    if _chains_start_below(period, items):
        return
    tau = dict(items)
    last = {a % period: a for a, _ in items}  # each class's largest
    breaks = None
    for a, b in items:
        shifted = a + period
        if period < b:
            got = tau.get(shifted)
            if got != b - period:
                found = "absent" if got is None else f"maps to {got}"
                yield a, 1, (f"({a}, {b}) with k=1: requires ({shifted}, "
                             f"{b - period}) in the set, but {shifted} is "
                             f"{found}")
        elif last[a % period] != a:
            # a chain ends at a, yet its class goes on: at a + period, or
            # past a gap, at the class's next first coordinate
            if shifted not in tau:
                if breaks is None:
                    breaks = _run_breaks(items, period)
                shifted = breaks[a]
            k = (shifted - a) // period
            yield a, k, (f"({a}, {b}) with k={k}: {shifted} may not be a "
                         f"first coordinate since {k}*{period} >= {b}")


def _chains_start_below(period: int, items: list) -> bool:
    """Whether the successors of the points of ``items`` with second
    coordinate above the period, in order, are exactly the points from the
    first with ``a >= period`` on: the period law holds and each first
    coordinate at or above the period has its predecessor."""
    rest = islice(items, bisect_left(items, (period,)), None)
    for a, b in items:
        if period < b:
            # (0, 0) is no successor: its second coordinate is not positive
            c, d = next(rest, (0, 0))
            if c != a + period or d != b - period:
                return False
    return next(rest, None) is None


def _run_breaks(items: list, period: int) -> dict:
    """First coordinate -> the next one of its residue class, for each
    first coordinate whose class resumes past a gap."""
    last = {}
    breaks = {}
    for a, _ in items:
        r = a % period
        prev = last.get(r)
        if prev is not None and prev != a - period:
            breaks[prev] = a
        last[r] = a
    return breaks


def validate_generating_set(points: Iterable, period: int) -> GeneratingSet:
    """Check every generating set invariant and return the validated set.

    ``points`` is any iterable of pairs.  Checks, in order: the period is
    a positive int and every point is a pair of ints, a bool being none
    (InvalidParamsError); all coordinates are strictly positive and inside
    the 64-bit range; no coordinate is a multiple of the period;
    coordinates are pairwise distinct within each projection; the period
    displacement law holds, checked by :func:`period_law_violations` in
    its chain form, which is equivalent to the law for every shift count
    (the first violation raises); in a pass of its own after the law, no
    coordinate exceeds ``2g - 1``, the largest gap of a place of genus
    ``g``; and last, ``a - period`` is a first coordinate for each first
    coordinate ``a > period``, as for the gaps of a semigroup containing
    the period.
    Each chain then has ``k + 1`` points if its last lies in row ``k``,
    which is the genus identity of the box decomposition.  An empty set
    is valid with any period (genus zero).

    Each check is one pass over the points as given, and the one list
    built beside them holds the second coordinates, sorted and checked for
    strict increase, for repeated ones; ``min`` and ``max`` of the first
    coordinates and the ends of that sorted list for the sign and range
    checks; one modulo pass per projection, the first unpacking each point,
    so that a point not a pair fails; a ``sum`` per projection for the type
    (an int exactly when every coordinate is an int or a bool); and each
    projection's minimum for a bool.  A ``TypeError``, ``ValueError`` or
    ``IndexError`` in them, such as from sorting mixed types, is a failed
    check.  The points are then sorted in place, which puts a repeated
    first coordinate beside its twin for a strict-increase pass.  The law
    is a merge walk on a valid set and the chain starts a count, so a
    valid set builds no dict or set the size of the points: each is built
    only once a check has failed.  Only when one fails are the points
    walked one by one, so the error names the same point as a
    point-by-point check would: the first bad point in input order for the
    type, sign, divisibility and range checks, the first duplicate in
    sorted order, and the first point in sorted order past ``2g - 1`` or
    above the period without a predecessor in its chain.
    """
    if not isinstance(period, int) or isinstance(period, bool) or period < 1:
        raise InvalidParamsError(f"period must be a positive integer, got {period}")

    try:
        pts = list(map(tuple, points))
    except TypeError as exc:
        raise InvalidParamsError(
            f"generating points must be pairs of ints: {exc}") from None
    n = len(pts)
    try:
        # the seconds are distinct exactly when, sorted, they increase
        seconds = sorted(map(itemgetter(1), pts))
        lows = (min(map(itemgetter(0), pts)), seconds[0]) if pts else (1,)
        lo = min(lows)
        hi = max(max(map(itemgetter(0), pts)), seconds[-1]) if pts else 0
        residues = {a % period for a, _ in pts}  # unpacking: pairs only
        # A residue set hides 5.0 beside an int 1 (5.0 % 4 == 1); a sum is
        # a float, Fraction or Decimal when one of its terms is.  Only True
        # passes as a bool, and then is its projection's minimum.
        well_formed = (
            all(map(lt, seconds, islice(seconds, 1, None)))
            and lo > 0 and hi <= COORD_MAX and 0 not in residues
            and 0 not in {b % period for b in seconds}
            and type(sum(map(itemgetter(0), pts))) is int
            and type(sum(seconds)) is int
            and bool not in map(type, lows))
    except (TypeError, ValueError, IndexError):
        well_formed = False  # the point-by-point pass names the point
    if not well_formed:
        _raise_bad_point(pts, period)
    del seconds  # not held beside the points' tuple at the end

    # sorted, a repeated first coordinate sits beside its twin
    pts.sort()
    if not all(map(lt, map(itemgetter(0), pts),
                   map(itemgetter(0), islice(pts, 1, None)))):
        _raise_bad_point(pts, period)
    for beta, k, message in period_law_violations(period, pts):
        raise PeriodPropertyViolationError(message, beta=beta, k=k)
    top = 2 * n - 1
    if hi > top:
        for a, b in pts:
            if a > top or b > top:
                raise GapBeyondGenusBoundError(
                    f"({a}, {b}): coordinate exceeds 2g-1 = {top} for "
                    f"genus {n}")
    # Each residue class is one run (the law holds), so every run starts
    # below the period exactly when each class has a first coordinate
    # there.
    if len(residues) != bisect_left(pts, (period,)):
        firsts = set(map(itemgetter(0), pts))
        for a, b in pts:
            if a > period and a - period not in firsts:
                raise ResidueChainStartError(
                    f"({a}, {b}): the first coordinates are not the gaps "
                    f"of a semigroup containing the period {period}: {a} is "
                    f"one and {a - period} is not", beta=a)

    return GeneratingSet(points=tuple(pts), period=period)


def _raise_bad_point(pts: list, period: int) -> None:
    """Raise for the first point of ``pts`` (in input order) that is not a
    pair of ints (InvalidParamsError) or has a coordinate that is not
    positive, is a multiple of the period or leaves the 64-bit range, else
    for the first duplicate coordinate in sorted order.  Called only once
    a whole-list check has failed, so one of these raises; called on the
    sorted points, once only a repeated first coordinate can be left."""
    for point in pts:
        if len(point) != 2 or not all(
                isinstance(c, int) and type(c) is not bool for c in point):
            raise InvalidParamsError(
                f"{point!r}: a generating point must be a pair of ints")
        a, b = point
        if a <= 0 or b <= 0:
            raise ZeroOrNegativeCoordinateError(
                f"({a}, {b}): generating set coordinates must be positive")
        if a % period == 0 or b % period == 0:
            raise CoordinateDivisibleByPeriodError(
                f"({a}, {b}): coordinate divisible by period {period}")
        if a > COORD_MAX or b > COORD_MAX:
            raise OverflowError(
                f"coordinate outside 64-bit signed range in ({a}, {b})")
    seen_a = set()
    seen_b = set()
    for a, b in sorted(pts):
        if a in seen_a:
            raise DuplicateFirstCoordinateError(
                f"first coordinate {a} appears twice")
        if b in seen_b:
            raise DuplicateSecondCoordinateError(
                f"second coordinate {b} appears twice")
        seen_a.add(a)
        seen_b.add(b)
