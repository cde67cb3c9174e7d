"""Closed forms for Kummer extensions at two totally ramified places.

The curve is ``y^m = f(x)``, ``f = prod_{l=1}^{r} (x - alpha_l)`` with
distinct roots, and the two places are the finite totally ramified places
``P_{alpha_1}`` and ``P_{alpha_2}`` above two roots of ``f``.  Parameters
are the extension degree m >= 2 and the polynomial degree r >= 2 with
gcd(m, r) = 1; the gap structure depends on nothing else, so the
remaining curve data (exponent, characteristic, roots) is deliberately
not modeled.  Genus is (m-1)(r-1)/2 and the period is m.  All ceiling and
floor arithmetic is exact integer division.  Each component is built by
column, ``{a - m*k: ascending second coordinates at a}``, straight from
its index ranges; the columns of G1 and G3 are ranges.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .engine import (
    BoxedGamma,
    PureGapSet,
    check_components,
    check_int128,
    reflect,
)
from .errors import (
    ClosedFormMismatchError,
    DivisibilityViolationError,
    InvalidParamsError,
)
from .lattice import GeneratingSet, LatticePoint, validate_generating_set


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class KummerParams(namedtuple("KummerParams", ("m", "r"))):
    """Degrees (m, r) with the derived genus and period."""

    __slots__ = ()

    def __new__(cls, m: int, r: int) -> "KummerParams":
        if m < 2 or r < 2:
            raise InvalidParamsError(
                f"m and r must be >= 2, got m={m}, r={r}")
        if gcd(m, r) != 1:
            raise InvalidParamsError(f"m={m} and r={r} must be coprime")
        return tuple.__new__(cls, (m, r))

    @property
    def genus(self) -> int:
        return (self.m - 1) * (self.r - 1) // 2

    @property
    def period(self) -> int:
        return self.m

    @property
    def top_box(self) -> int:
        """Largest k with a nonempty row-zero box: r - 2 - floor(r/m)."""
        return self.r - 2 - self.r // self.m


def kummer_generating_set(m: int, r: int) -> GeneratingSet:
    """Enumerate the generating set (m*k1 + j, m*k2 + j) with
    k1 + k2 = r - 2 - floor(r*j/m) over 1 <= j <= m - 1 - floor(m/r)."""
    params = KummerParams(m, r)
    pts = []
    for j in range(1, m - m // r):
        s = r - 2 - (r * j) // m
        for k1 in range(s + 1):
            pts.append((m * k1 + j, m * (s - k1) + j))
    gamma = validate_generating_set(pts, m)
    if gamma.genus != params.genus:
        raise ClosedFormMismatchError(
            f"enumeration produced {gamma.genus} points, genus formula "
            f"gives {params.genus}")
    return gamma


def kummer_card_gamma_k0(m: int, r: int, k: int) -> int:
    """|Gamma_{k,0}| = ceil(m(k+2)/r) - ceil(m(k+1)/r) for k up to the top
    box index, zero beyond it."""
    params = KummerParams(m, r)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    if k > params.top_box:
        return 0
    return _ceil_div(m * (k + 2), r) - _ceil_div(m * (k + 1), r)


def kummer_gamma_k0(m: int, r: int, k: int) -> list:
    """Row-zero box k: points (m*k + j, j) with
    max(1, m - floor(m(k+2)/r)) <= j <= m - 1 - floor(m(k+1)/r), a range
    that is empty beyond the top box.  Its length must be
    :func:`kummer_card_gamma_k0`, else ClosedFormMismatchError."""
    count = kummer_card_gamma_k0(m, r, k)
    lo = max(1, m - (m * (k + 2)) // r)
    hi = m - 1 - (m * (k + 1)) // r
    out = [LatticePoint(m * k + j, j) for j in range(lo, hi + 1)]
    if len(out) != count:
        raise ClosedFormMismatchError(
            f"(m, r)=({m}, {r}) k={k}: explicit row has {len(out)} points, "
            f"|Gamma_k0| formula gives {count}")
    return out


def kummer_g1(m: int, r: int, k: int) -> dict:
    """First component of box (k, 0), by column: the square of side
    m - 1 - floor(m(k+2)/r) anchored at (m*k + 1, 1), every column the
    one range 1 .. side."""
    KummerParams(m, r)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    side = range(1, m - (m * (k + 2)) // r)
    return dict.fromkeys(side, side)


def kummer_g2(m: int, r: int, k: int) -> dict:
    """Second component: always empty for this family (diagonal condition)."""
    KummerParams(m, r)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    return {}


def kummer_g3(m: int, r: int, k: int) -> dict:
    """Third component, by column: (m*k + j, j1) with j in the row's own
    j-range and 1 <= j1 <= m - 1 - floor(m(k+2)/r), every column the one
    range of j1."""
    KummerParams(m, r)
    if k < 0:
        raise InvalidParamsError(f"box index must be nonnegative, got {k}")
    jlo = m - (m * (k + 2)) // r
    column = range(1, jlo)
    if not column:
        return {}
    return dict.fromkeys(range(jlo, m - (m * (k + 1)) // r), column)


def kummer_g4(m: int, r: int, k: int) -> dict:
    """Fourth component: the coordinate swap of the third, shifted by -w_k
    (by column, its transpose)."""
    return reflect(kummer_g3(m, r, k))


def kummer_card_g0(m: int, r: int) -> int:
    """Pure gap cardinality: sum over k of
    k * [(m - ceil(mk/r))^2 - (ceil(m(k+1)/r) - ceil(mk/r))^2]."""
    params = KummerParams(m, r)
    total = 0
    for k in range(1, params.top_box + 1):
        c1 = _ceil_div(m * k, r)
        c2 = _ceil_div(m * (k + 1), r)
        total += k * ((m - c1) ** 2 - (c2 - c1) ** 2)
    return check_int128(total)


def kummer_card_special_ur1(u: int, r: int) -> int:
    """Closed form u^2 (r-1)(r-2) r (r+3) / 12 for the case m = u*r + 1.

    Evaluated exactly and compared against the general cardinality sum;
    disagreement raises.
    """
    if u < 1 or r < 2:
        raise InvalidParamsError(f"need u >= 1 and r >= 2, got u={u}, r={r}")
    num = u * u * (r - 1) * (r - 2) * r * (r + 3)
    if num % 12 != 0:
        raise DivisibilityViolationError(
            f"special-case numerator {num} not divisible by 12")
    value = check_int128(num // 12)
    general = kummer_card_g0(u * r + 1, r)
    if value != general:
        raise ClosedFormMismatchError(
            f"m=ur+1 closed form gives {value}, cardinality sum gives "
            f"{general} at (u, r)=({u}, {r})")
    return value


def kummer_card_special_qN(q: int, N: int) -> int:
    """Closed form for m = (q+1)/N, r = q, where N divides q+1 and
    q - 2 - N >= 0:  (q+1)(m-1)/12 * ((q+1)(m-1) - 2m + N + 7) - q(m-1).

    Evaluated exactly and compared against the general cardinality sum.
    """
    if N < 1 or q < 2:
        raise InvalidParamsError(f"need q >= 2 and N >= 1, got q={q}, N={N}")
    if (q + 1) % N != 0:
        raise InvalidParamsError(f"N={N} does not divide q+1={q + 1}")
    if q - 2 - N < 0:
        raise InvalidParamsError(f"need q - 2 - N >= 0, got {q - 2 - N}")
    m = (q + 1) // N
    num = (q + 1) * (m - 1) * ((q + 1) * (m - 1) - 2 * m + N + 7)
    if num % 12 != 0:
        raise DivisibilityViolationError(
            f"special-case numerator {num} not divisible by 12")
    value = check_int128(num // 12 - q * (m - 1))
    general = kummer_card_g0(m, q)
    if value != general:
        raise ClosedFormMismatchError(
            f"m=(q+1)/N closed form gives {value}, cardinality sum gives "
            f"{general} at (q, N)=({q}, {N})")
    return value


def _components(m: int, r: int, k: int) -> tuple:
    return (kummer_g1(m, r, k), kummer_g2(m, r, k),
            kummer_g3(m, r, k), kummer_g4(m, r, k))


def kummer_components(m: int, r: int) -> dict:
    """Box index k -> the explicit (G1, G2, G3, G4) of box (k, 0), each by
    column, for every box up to the top box index."""
    params = KummerParams(m, r)
    return {k: _components(m, r, k) for k in range(params.top_box + 1)}


def verify_against_engine(boxed: BoxedGamma, m: int, r: int, *,
                          per_box: dict, generic: dict,
                          g0: PureGapSet) -> None:
    """Compare every explicit closed-form set with the generic engine on
    ``boxed``, the decomposed generating set of parameters (m, r):
    ``per_box`` is :func:`kummer_components` of (m, r), ``generic`` maps
    each box index to the engine's :func:`~puregaps.engine.box_components`
    and ``g0`` is the engine's ``G0``.

    Checks the row boxes, each against :func:`kummer_card_gamma_k0`
    (ClosedFormMismatchError), and all four components of every box; any
    other disagreement raises GenericMismatchError naming the first
    offender.
    """
    check_components(boxed, generic, g0, lambda k: kummer_gamma_k0(m, r, k),
                     lambda k: per_box.get(k, ({},) * 4),
                     f"(m, r)=({m}, {r})")
