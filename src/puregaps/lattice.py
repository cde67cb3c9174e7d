"""Validated minimal generating sets of integer lattice points.

A :class:`GeneratingSet` is the graph of the bijection between the gap sets
at two places together with the period of the two-place semigroup, held
as plain ``(a, b)`` int tuples; :func:`validate_generating_set` is the
only sanctioned way to build one and enforces, among other things, the
period displacement law:
``beta + k*period`` is a first coordinate exactly when
``k*period < tau(beta)``, and then its image is ``tau(beta) - k*period``.
Validation is where the law is enforced: it is not re-checked on a
validated set, and no report carries it as a verdict.

A valid set is a union of chains ``(a0 + i*period, b0 - i*period)``, one
from each of its points below the period, and this module holds that
chain form once: :func:`_starts_fit` checks the chain starts alone, in
time linear in the period, not in the genus, and :func:`_levels` expands
them, one level of the chains at a time.  Validation checks a set so:
past at most one sort and one pass over the coordinates' types, the
starts must fit and each level must be the next slice of the sorted
points, which proves the law and every other invariant at once.  Only an
invalid set is walked point by point, by :func:`period_law_violations`
among others, to name the point at fault.  A set file in the canonical
form is read the same way, by ``gammafile``'s chain read: it checks the
file's start lines by :func:`_starts_fit` and builds the set from
:func:`_levels`, with no law walk and no type pass.

A set of second coordinates is held across the package as an int
bitmask, bit ``b`` set for each ``b``; :func:`set_bits` lists one where
its points must be named.

Everything here is immutable and every operation is a pure function, so
values can be shared freely across threads.  Records here and across the
package are namedtuples: ``len()``, iteration and unpacking see a
record's fields, so a :class:`GeneratingSet`'s points are ``.points``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import chain, compress, islice
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

#: Maps the digits of ``bin()`` to the bytes ``compress`` reads as flags.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def set_bits(mask: int) -> list:
    """The positions of the set bits of a non-negative int, ascending: a
    bitmask column ``{b}`` as its sorted list of ``b``.  It reads the
    binary digits lowest first, in C, with no Python step per bit."""
    flags = bin(mask)[:1:-1].encode().translate(_FLAGS)
    return list(compress(range(len(flags)), flags))


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

    It is the diagnostic of a set that validation's chain check has
    refused, run only to name a breach: it builds the map and walks it
    point by point.
    """
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

    ``points`` is any iterable of pairs.  The invariants: the period is a
    positive int and every point is a pair of ints, a bool being none
    (InvalidParamsError); all coordinates are strictly positive and inside
    the 64-bit range; no coordinate is a multiple of the period;
    coordinates are pairwise distinct within each projection; the period
    displacement law holds; no coordinate exceeds ``2g - 1``, the largest
    gap of a place of genus ``g``; and ``a - period`` is a first
    coordinate for each first coordinate ``a > period``, as for the gaps of
    a semigroup containing the period.  Each chain then has ``k + 1``
    points if its last lies in row ``k``, which is the genus identity of
    the box decomposition.  An empty set is valid with any period (genus
    zero).

    A valid set is the union of the chains ``(a0 + i*period,
    b0 - i*period)``, ``0 <= i < ceil(b0/period)``, one from each point
    ``(a0, b0)`` below the period, so the points are checked by their
    chains: a copy, sorted in a second list unless it comes in order, one
    pass over the coordinates' types (an exact int each), the checks of
    :func:`_starts_fit` on the points below the period, and then each
    level of :func:`_levels` compared with the next slice of the sorted
    points.  Only when one of these fails are the points walked one by
    one, so the error names the same point as a point-by-point check
    would: the first bad point in input order for the type, sign,
    divisibility and range checks, the first duplicate in sorted order,
    the law's first breach, by :func:`period_law_violations`, and the
    first point in sorted order past ``2g - 1`` or above the period
    without a predecessor in its chain.  That walk also decides on
    coordinates of a subclass of int, such as an IntEnum, which it
    accepts.
    """
    if not isinstance(period, int) or isinstance(period, bool) or period < 1:
        raise InvalidParamsError(f"period must be a positive integer, got {period}")

    try:
        pts = list(map(tuple, points))
    except TypeError as exc:
        raise InvalidParamsError(
            f"generating points must be pairs of ints: {exc}") from None
    try:
        # a set file's points come sorted: then no second list is held
        order = (pts if all(map(lt, pts, islice(pts, 1, None)))
                 else sorted(pts))
        valid = set(map(type, chain.from_iterable(order))) <= {int}
        if valid:
            starts = order[:bisect_left(order, (period,))]
            rest = iter(order)
            # one level at a time, so no second copy of the set is built
            valid = _starts_fit(starts, period, len(order)) and all(
                list(islice(rest, len(level))) == level
                for level in _levels(starts, period))
    except (TypeError, ValueError):
        valid = False  # the point-by-point walk names the point
    if not valid:
        _raise_bad_point(pts, period)
        order = sorted(pts)
        breach = next(period_law_violations(period, order), ())
        if breach:
            beta, k, message = breach
            raise PeriodPropertyViolationError(message, beta=beta, k=k)
        top = 2 * len(order) - 1
        for a, b in order:
            if a > top or b > top:
                raise GapBeyondGenusBoundError(
                    f"({a}, {b}): coordinate exceeds 2g-1 = {top} for "
                    f"genus {len(order)}")
        firsts = set(map(itemgetter(0), order))
        for a, b in order:
            if a > period and a - period not in firsts:
                raise ResidueChainStartError(
                    f"({a}, {b}): the first coordinates are not the gaps "
                    f"of a semigroup containing the period {period}: {a} is "
                    f"one and {a - period} is not", beta=a)
    del pts  # not held beside the points' tuple at the end
    return GeneratingSet(points=tuple(order), period=period)


def _starts_fit(starts: list, period: int, genus: int) -> bool:
    """Whether the int pairs ``starts``, all with first coordinate below
    the period, are the chain starts of a valid set of ``genus`` points.

    The checks, in time linear in the number of starts: the ``a0``
    strictly increase from above zero; the ``b0`` are positive, with
    distinct residues modulo the period and none zero; ``ceil(b0/period)``
    summed over the starts is the genus; and the largest first coordinate,
    ``a0 + ((b0 - 1) // period)*period`` at the end of its chain, and the
    largest ``b0`` are at most ``2g - 1`` and in the 64-bit range.  An
    empty list fits genus zero alone.

    Then the chains ``(a0 + i*period, b0 - i*period)``, ``i*period < b0``,
    that :func:`_levels` lists are a valid set of ``genus`` points.  They
    keep the period law by construction.  The starts' classes differ, so
    the chains' first coordinates are distinct, and each chain keeps its
    start's residues, positive and not zero, so no coordinate is a
    multiple of the period and the second coordinates are distinct; a
    chain's second coordinates fall, so its start holds its largest; and
    each of its points above the period has its predecessor.
    """
    if not starts:
        return genus == 0
    firsts = [a for a, _ in starts]
    seconds = [b for _, b in starts]
    residues = {b % period for b in seconds}
    return (all(map(lt, [0, *firsts], firsts))
            and min(seconds) > 0
            and 0 not in residues and len(residues) == len(starts)
            and sum(-(-b // period) for b in seconds) == genus
            and max([a + (b - 1) // period * period for a, b in starts]
                    + seconds) <= min(COORD_MAX, 2 * genus - 1))


def _levels(starts: list, period: int) -> Iterator[list]:
    """Yield the chains of ``starts`` a level at a time: level ``i`` lists
    the point ``(a0 + i*period, b0 - i*period)`` of each chain with
    ``i*period < b0``, in the order of the starts.  Level ``i`` lies
    between ``i*period`` and ``(i+1)*period``, so when the starts increase
    from above zero below the period, each level is sorted and so is their
    concatenation."""
    level = starts
    while level:
        yield level
        level = [(a + period, b - period) for a, b in level if b > period]


def _raise_bad_point(pts: list, period: int) -> None:
    """Raise for the first point of ``pts`` (in input order) that is not a
    pair of ints (InvalidParamsError) or has a coordinate that is not
    positive, is a multiple of the period or leaves the 64-bit range, else
    for the first duplicate coordinate in sorted order.  The first step of
    the point-by-point walk, run once a chain check has failed; it returns
    when none of these is the fault, such as when the points break only
    the period law, or are a valid set with int-subclass coordinates."""
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
