"""Brute-force references and small lattice helpers used only by tests.

Nothing here is part of the package: these are the slow, obvious forms
that the package's faster code is checked against.
"""

from dataclasses import dataclass

from puregaps.errors import InvalidParamsError
from puregaps.lattice import GeneratingSet, LatticePoint


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


def period_law_shift_walk(tau: dict, period: int) -> list:
    """Every ``(beta, k)`` at which the period displacement law fails, by
    walking each shift count of each point.

    For every first coordinate ``beta`` and every ``k >= 1`` up to the
    largest first coordinate: ``beta + k*period`` must be present exactly
    when ``k*period < tau(beta)``, and then map to
    ``tau(beta) - k*period``.  Cost about ``g * amax / period`` steps.
    """
    found = []
    if not tau:
        return found
    amax = max(tau)
    for a, b in sorted(tau.items()):
        k = 1
        while True:
            shifted = a + k * period
            if k * period < b:
                if tau.get(shifted) != b - k * period:
                    found.append((a, k))
            elif shifted > amax:
                break
            elif shifted in tau:
                found.append((a, k))
            k += 1
    return found
