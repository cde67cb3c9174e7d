"""Closed forms for Kummer extensions at two totally ramified places.

The curve is ``y^m = f(x)``, ``f = prod_{l=1}^{r} (x - alpha_l)`` with
distinct roots, and the two places are the finite totally ramified places
``P_{alpha_1}`` and ``P_{alpha_2}`` above two roots of ``f``.  Parameters
are the extension degree m >= 2 and the polynomial degree r >= 2 with
gcd(m, r) = 1; the gap structure depends on nothing else, so the
remaining curve data (exponent, characteristic, roots) is deliberately
not modeled.  Genus is (m-1)(r-1)/2 and the period is m.  All ceiling and
floor arithmetic is exact integer division.  The family is diagonal, so
G2 is empty and G4 is the reflection of G3; that law is the engine's
:func:`~puregaps.engine.check_reflection`, and only the rows, G1 and G3
are given here, by :func:`kummer_components`, as data that the harness
compares with the engine's by :func:`~puregaps.engine.check_components`.
Each component is built by column, ``{a - m*k: mask of the second
coordinates at a}``, bit ``b`` set for each ``b`` and no empty column, as
the engine holds one, straight from its index ranges; the columns of G1
and G3 are runs of bits from bit 1.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .engine import check_box_index, check_genus, check_int128, exact_quotient
from .errors import ClosedFormMismatchError, InvalidParamsError
from .lattice import GeneratingSet, validate_generating_set


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _j_bounds(m: int, r: int, k: int) -> tuple:
    """m - floor(m(k+2)/r) and m - floor(m(k+1)/r): the j-range of row k
    is from the first, at least 1, to below the second, and G1's side is
    one less than the first."""
    return m - m * (k + 2) // r, m - m * (k + 1) // r


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
    return check_genus(validate_generating_set(pts, m), params.genus)


def kummer_card_gamma_k0(m: int, r: int, k: int) -> int:
    """|Gamma_{k,0}| = ceil(m(k+2)/r) - ceil(m(k+1)/r) for k up to the top
    box index, zero beyond it."""
    params = KummerParams(m, r)
    check_box_index(k)
    if k > params.top_box:
        return 0
    return _ceil_div(m * (k + 2), r) - _ceil_div(m * (k + 1), r)


def kummer_gamma_k0(m: int, r: int, k: int) -> list:
    """Row-zero box k: points (m*k + j, j) with
    max(1, m - floor(m(k+2)/r)) <= j <= m - 1 - floor(m(k+1)/r), a range
    that is empty beyond the top box.  Its length must be
    :func:`kummer_card_gamma_k0`, else ClosedFormMismatchError."""
    count = kummer_card_gamma_k0(m, r, k)
    lo, stop = _j_bounds(m, r, k)
    out = [(m * k + j, j) for j in range(max(1, lo), stop)]
    if len(out) != count:
        raise ClosedFormMismatchError(
            f"(m, r)=({m}, {r}) k={k}: explicit row has {len(out)} points, "
            f"|Gamma_k0| formula gives {count}")
    return out


def kummer_g1(m: int, r: int, k: int) -> dict:
    """First component of box (k, 0), by column: the square of side
    m - 1 - floor(m(k+2)/r) anchored at (m*k + 1, 1), every column the
    one mask of bits 1 .. side."""
    KummerParams(m, r)
    check_box_index(k)
    stop = _j_bounds(m, r, k)[0]  # one past the side
    if stop < 2:
        return {}
    return dict.fromkeys(range(1, stop), (1 << stop) - 2)


def kummer_g3(m: int, r: int, k: int) -> dict:
    """Third component, by column: (m*k + j, j1) with j in the row's own
    j-range and 1 <= j1 <= m - 1 - floor(m(k+2)/r), every column the one
    mask of the bits j1."""
    KummerParams(m, r)
    check_box_index(k)
    jlo, stop = _j_bounds(m, r, k)
    if jlo < 2:
        return {}
    return dict.fromkeys(range(jlo, stop), (1 << jlo) - 2)


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


def _check_special(value: int, m: int, r: int, form: str, at: str) -> int:
    """``value``, a special closed form of the cardinality at (m, r), when
    it equals :func:`kummer_card_g0`, else ClosedFormMismatchError naming
    the ``form`` and the special parameters ``at``."""
    general = kummer_card_g0(m, r)
    if value != general:
        raise ClosedFormMismatchError(
            f"{form} closed form gives {value}, cardinality sum gives "
            f"{general} at {at}")
    return value


def kummer_card_special_ur1(u: int, r: int) -> int:
    """Closed form u^2 (r-1)(r-2) r (r+3) / 12 for the case m = u*r + 1.

    Evaluated exactly and compared against the general cardinality sum;
    disagreement raises.
    """
    if u < 1 or r < 2:
        raise InvalidParamsError(f"need u >= 1 and r >= 2, got u={u}, r={r}")
    num = u * u * (r - 1) * (r - 2) * r * (r + 3)
    value = check_int128(exact_quotient(num, 12, "special-case"))
    return _check_special(value, u * r + 1, r, "m=ur+1", f"(u, r)=({u}, {r})")


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
    value = check_int128(exact_quotient(num, 12, "special-case") - q * (m - 1))
    return _check_special(value, m, q, "m=(q+1)/N", f"(q, N)=({q}, {N})")


def kummer_components(m: int, r: int) -> dict:
    """Box index k -> the explicit (Gamma_{k,0}, G1, G3) of box (k, 0), the
    components by column, for every box up to the top box index."""
    params = KummerParams(m, r)
    return {k: (kummer_gamma_k0(m, r, k), kummer_g1(m, r, k),
                kummer_g3(m, r, k)) for k in range(params.top_box + 1)}
