"""Closed forms for the Giulietti-Korchmaros family at its distinguished
pair of places: the place at infinity ``P∞`` and ``P0 = (0, 0, 0)``, the
origin of the affine model ``x^q + x = y^{q+1}``, ``y^{q^2} - y = z^{q^2-q+1}``.

All formulas depend on the single integer parameter q: the genus is
(q^3+1)(q^2-2)/2 + 1, the period is q^3+1, and the generating set is
enumerated by index triples (i, j, k).  The explicit rows, the components
G1 and G3 of each box and the cardinality polynomial are implemented
independently of the generic engine so the two routes can be compared; the
family is diagonal, so its G2 and G4 are the engine's diagonal law.  Each
component is built by column, ``{a - k(q^3+1): mask of the second
coordinates at a}``, bit ``b`` set for each ``b`` and no empty column, as
the engine holds one, straight from its index ranges.  The module gives
data, not a check: :func:`gk_components` maps each box to its row, G1 and
G3, after checking the upper-bound polynomial against the explicit row
sizes, and the harness compares them with the engine's by
:func:`~puregaps.engine.check_components`.

The combinatorics is meaningful for any integer q >= 2; a warning is
emitted when q is not a prime power, since the function-field
interpretation then fails.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .engine import (bounds_from_row_sizes, check_box_index, check_genus,
                     check_int128, exact_quotient)
from .errors import (ClosedFormMismatchError, InvalidParamsError,
                     PiecewiseMismatchError)
from .lattice import GeneratingSet, validate_generating_set


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
    return check_genus(validate_generating_set(pts, period), params.genus)


def _row_bases(q: int, k: int) -> list:
    """(i, (q+1-i)(q^2-q+1) - (k-i+2)) over the index range
    max(0, k-q^2+q+2) <= i <= min(q, k+2) of row k, empty beyond
    k = q^2 - 2: each row point's index i and its coordinates less the
    row's multiples of the period, one value for both."""
    c = q * q - q + 1
    return [(i, (q + 1 - i) * c - (k - i + 2))
            for i in range(max(0, k - q * q + q + 2), min(q, k + 2) + 1)]


def gk_card_gamma_k0(q: int, k: int) -> int:
    """|Gamma_{k,0}|, the length of the explicit index range of row k.

    Cross-checked against every applicable branch of the published
    three-branch piecewise formula (branches overlap for small q).
    """
    GKParams(q)
    check_box_index(k)
    n = len(_row_bases(q, k))
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


def gk_gamma_k0(q: int, k: int) -> list:
    """Row-zero box k: the points with index (i, k-i+2, k+1), after the
    checks of :func:`gk_card_gamma_k0`."""
    gk_card_gamma_k0(q, k)
    shift = k * (q**3 + 1)
    return sorted((shift + base, base) for _, base in _row_bases(q, k))


def gk_g1(q: int, k: int) -> dict:
    """First component of box (k, 0), by column, via the explicit double
    index set.

    A cartesian product: first coordinates k(q^3+1)+(q+1-i2)(q^2-q+1)-(k2-i2+2)
    over all rows k2 > k, second coordinates (q+1-i1)(q^2-q+1)-(k1-i1+2)
    over all rows k1 > k.  The residues and the second coordinates are
    the same values, so every column is the one mask of them.
    """
    GKParams(q)
    check_box_index(k)
    bases = {base for ks in range(k + 1, q * q - 1)
             for _, base in _row_bases(q, ks)}
    return dict.fromkeys(sorted(bases), sum(1 << b for b in bases))


def gk_g3(q: int, k: int) -> dict:
    """Third component, by column, via the explicit index set with the
    i2 <= i1 cut: the column of the row-k point of index i2 holds the
    second coordinates of the points of index i1 >= i2 in rows k1 > k."""
    GKParams(q)
    check_box_index(k)
    above = [point for k1 in range(k + 1, q * q - 1)
             for point in _row_bases(q, k1)]
    columns = {}
    for i2, base in _row_bases(q, k):
        if column := sum({1 << b for i1, b in above if i1 >= i2}):
            columns[base] = column
    return dict(sorted(columns.items()))


def gk_card_g0(q: int) -> int:
    """Pure gap cardinality polynomial
    q(q-1)(10q^8+10q^7-25q^6-9q^5+71q^4-111q^3-86q^2+128q-12)/120."""
    GKParams(q)
    num = q * (q - 1) * (10 * q**8 + 10 * q**7 - 25 * q**6 - 9 * q**5
                         + 71 * q**4 - 111 * q**3 - 86 * q**2 + 128 * q - 12)
    return check_int128(exact_quotient(num, 120, "cardinality polynomial"))


def gk_upper_bound(q: int) -> int:
    """Family upper bound polynomial
    (10q^10-15q^8-4q^7+20q^6-56q^5-35q^4+124q^3-40q^2-4q)/120."""
    GKParams(q)
    num = (10 * q**10 - 15 * q**8 - 4 * q**7 + 20 * q**6 - 56 * q**5
           - 35 * q**4 + 124 * q**3 - 40 * q**2 - 4 * q)
    return check_int128(exact_quotient(num, 120, "upper bound polynomial"))


def gk_components(q: int) -> dict:
    """Box index k -> the explicit (Gamma_{k,0}, G1, G3) of box (k, 0), the
    components by column, for every box k < q^2 - 1.

    The upper bound from the explicit row sizes must be
    :func:`gk_upper_bound`, else ClosedFormMismatchError.
    """
    params = GKParams(q)
    rows = [gk_gamma_k0(q, k) for k in range(q * q - 1)]
    upper = bounds_from_row_sizes([len(row) for row in rows],
                                  params.genus).upper
    polynomial = gk_upper_bound(q)
    if upper != polynomial:
        raise ClosedFormMismatchError(
            f"row-size upper bound {upper} differs from polynomial "
            f"{polynomial} at q={q}")
    return {k: (row, gk_g1(q, k), gk_g3(q, k)) for k, row in enumerate(rows)}
