"""Closed forms for the Giulietti-Korchmaros family at its distinguished
pair of places: the place at infinity ``P∞`` and ``P0 = (0, 0, 0)``, the
origin of the affine model ``x^q + x = y^{q+1}``, ``y^{q^2} - y = z^{q^2-q+1}``.

All formulas depend on the single integer parameter q: the genus is
(q^3+1)(q^2-2)/2 + 1, the period is q^3+1, and the generating set is
enumerated by index triples (i, j, k).  The explicit per-box pure gap
components and the cardinality polynomial are implemented independently of
the generic engine so the two routes can be compared.  Each component is
built by column, ``{a - k(q^3+1): ascending second coordinates at a}``,
straight from its index ranges, the shape the engine's components have.

The combinatorics is meaningful for any integer q >= 2; a warning is
emitted when q is not a prime power, since the function-field
interpretation then fails.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .engine import (
    BoxedGamma,
    PureGapSet,
    bounds,
    check_components,
    check_int128,
    reflect,
)
from .errors import (
    ClosedFormMismatchError,
    DivisibilityViolationError,
    InvalidParamsError,
    PiecewiseMismatchError,
)
from .lattice import GeneratingSet, LatticePoint, validate_generating_set


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


class GKParams(namedtuple("GKParams", ("q",))):
    """Family parameter q with its derived genus and period."""

    __slots__ = ()

    def __new__(cls, q: int) -> "GKParams":
        if q < 2:
            raise InvalidParamsError(f"q must be an integer >= 2, got {q}")
        if not _is_prime_power(q):
            warnings.warn(
                f"q={q} is not a prime power; the combinatorics is still "
                "well defined but no function field realizes it")
        return tuple.__new__(cls, (q,))

    @property
    def genus(self) -> int:
        return (self.q**3 + 1) * (self.q**2 - 2) // 2 + 1

    @property
    def period(self) -> int:
        return self.q**3 + 1


def gk_generating_set(q: int) -> GeneratingSet:
    """Enumerate the full generating set from the unified index ranges."""
    params = GKParams(q)
    period = params.period
    c = q * q - q + 1
    pts = []
    for k in range(1, q * q):
        for i in range(max(0, k - q * q + q + 1), q + 1):
            for j in range(max(0, k - i + 1), q * q - q + 1):
                base = (q + 1 - i) * c - j
                pts.append(((k - 1) * period + base,
                            (i + j - k - 1) * period + base))
    gamma = validate_generating_set(pts, period)
    if gamma.genus != params.genus:
        raise ClosedFormMismatchError(
            f"enumeration produced {gamma.genus} points, genus formula "
            f"gives {params.genus}")
    return gamma


def gk_card_gamma_k0(q: int, k: int) -> int:
    """|Gamma_{k,0}| from the explicit index endpoints.

    Cross-checked against every applicable branch of the published
    three-branch piecewise formula (branches overlap for small q).
    """
    GKParams(q)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    if k > q * q - 2:
        return 0
    lo = max(0, k - q * q + q + 2)
    hi = min(q, k + 2)
    n = hi - lo + 1
    if 0 <= k <= q - 2 and n != k + 3:
        raise PiecewiseMismatchError(
            f"q={q} k={k}: endpoints give {n}, branch k+3 gives {k + 3}")
    if q - 1 <= k <= q * q - q - 3 and n != q + 1:
        raise PiecewiseMismatchError(
            f"q={q} k={k}: endpoints give {n}, branch q+1 gives {q + 1}")
    if q * q - q - 2 <= k <= q * q - 2 and n != q * q - 1 - k:
        raise PiecewiseMismatchError(
            f"q={q} k={k}: endpoints give {n}, branch q^2-1-k gives "
            f"{q * q - 1 - k}")
    return n


def _row_bases(q: int, k: int) -> list:
    """(i, (q+1-i)(q^2-q+1) - (k-i+2)) over the index range of row k: each
    row point's index i and its coordinates less the row's multiples of
    the period, one value for both."""
    c = q * q - q + 1
    return [(i, (q + 1 - i) * c - (k - i + 2))
            for i in range(max(0, k - q * q + q + 2), min(q, k + 2) + 1)]


def gk_gamma_k0(q: int, k: int) -> list:
    """Row-zero box k: the points with index (i, k-i+2, k+1)."""
    count = gk_card_gamma_k0(q, k)
    if count == 0:
        return []
    shift = k * (q**3 + 1)
    out = sorted(LatticePoint(shift + base, base)
                 for _, base in _row_bases(q, k))
    if len(out) != count:
        raise PiecewiseMismatchError(
            f"q={q} k={k}: explicit row has {len(out)} points, count says {count}")
    return out


def gk_g1(q: int, k: int) -> dict:
    """First component of box (k, 0), by column, via the explicit double
    index set.

    A cartesian product: first coordinates k(q^3+1)+(q+1-i2)(q^2-q+1)-(k2-i2+2)
    over all rows k2 > k, second coordinates (q+1-i1)(q^2-q+1)-(k1-i1+2)
    over all rows k1 > k.  The residues and the second coordinates are
    the same values, so every column is the one sorted list of them.
    """
    GKParams(q)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    bases = sorted({base for ks in range(k + 1, q * q - 1)
                    for _, base in _row_bases(q, ks)})
    return dict.fromkeys(bases, bases)


def gk_g2(q: int, k: int) -> dict:
    """Second component: always empty for this family (diagonal condition)."""
    GKParams(q)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    return {}


def gk_g3(q: int, k: int) -> dict:
    """Third component, by column, via the explicit index set with the
    i2 <= i1 cut: the column of the row-k point of index i2 holds the
    second coordinates of the points of index i1 >= i2 in rows k1 > k."""
    GKParams(q)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    above = [point for k1 in range(k + 1, q * q - 1)
             for point in _row_bases(q, k1)]
    columns = {}
    for i2, base in _row_bases(q, k):
        bs = sorted({b for i1, b in above if i1 >= i2})
        if bs:
            columns[base] = bs
    return dict(sorted(columns.items()))


def gk_g4(q: int, k: int) -> dict:
    """Fourth component: the coordinate swap of the third, shifted by -w_k
    (by column, its transpose)."""
    return reflect(gk_g3(q, k))


def gk_card_g0(q: int) -> int:
    """Pure gap cardinality polynomial
    q(q-1)(10q^8+10q^7-25q^6-9q^5+71q^4-111q^3-86q^2+128q-12)/120."""
    GKParams(q)
    num = q * (q - 1) * (10 * q**8 + 10 * q**7 - 25 * q**6 - 9 * q**5
                         + 71 * q**4 - 111 * q**3 - 86 * q**2 + 128 * q - 12)
    if num % 120 != 0:
        raise DivisibilityViolationError(
            f"cardinality polynomial numerator {num} not divisible by 120")
    return check_int128(num // 120)


def gk_upper_bound(q: int) -> int:
    """Family upper bound polynomial
    (10q^10-15q^8-4q^7+20q^6-56q^5-35q^4+124q^3-40q^2-4q)/120."""
    GKParams(q)
    num = (10 * q**10 - 15 * q**8 - 4 * q**7 + 20 * q**6 - 56 * q**5
           - 35 * q**4 + 124 * q**3 - 40 * q**2 - 4 * q)
    if num % 120 != 0:
        raise DivisibilityViolationError(
            f"upper bound polynomial numerator {num} not divisible by 120")
    return check_int128(num // 120)


def _components(q: int, k: int) -> tuple:
    return (gk_g1(q, k), gk_g2(q, k), gk_g3(q, k), gk_g4(q, k))


def gk_components(q: int) -> dict:
    """Box index k -> the explicit (G1, G2, G3, G4) of box (k, 0), each by
    column, for every box k < q^2 - 1."""
    return {k: _components(q, k) for k in range(q * q - 1)}


def verify_against_engine(boxed: BoxedGamma, q: int, *, per_box: dict,
                          generic: dict, g0: PureGapSet) -> None:
    """Compare every explicit closed-form set with the generic engine on
    ``boxed``, the decomposed generating set of parameter q: ``per_box``
    is :func:`gk_components` of q, ``generic`` maps each box index to the
    engine's :func:`~puregaps.engine.box_components` and ``g0`` is the
    engine's ``G0``.

    Checks the engine's row-size upper bound against
    :func:`gk_upper_bound` (ClosedFormMismatchError), then the row boxes
    and all four components of every box; any disagreement there raises
    GenericMismatchError naming the first offender.
    """
    upper, polynomial = bounds(boxed).upper, gk_upper_bound(q)
    if upper != polynomial:
        raise ClosedFormMismatchError(
            f"row-size upper bound {upper} differs from polynomial "
            f"{polynomial} at q={q}")
    check_components(boxed, generic, g0, lambda k: gk_gamma_k0(q, k),
                     lambda k: per_box.get(k, ({},) * 4), f"q={q}")
