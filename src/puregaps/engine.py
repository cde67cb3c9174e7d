"""Box decomposition of a generating set and assembly of the pure gap set.

The plane is tiled with period-sized boxes.  Only the row-zero boxes
``rows[k]`` (points whose second coordinate is below the period) are
stored: box ``(i, j)`` is the translate of ``rows[i+j]`` by
``w_j = (-j*period, j*period)``.  The pure gaps of box ``(k, 0)`` split
into four components, computed here straight from their defining
formulas, and the full pure gap set is the disjoint union of the
translates ``(G_{k,0} + w_j)`` over ``0 <= j <= k``.

Inside a box each component is a set of columns, one first coordinate with
an ascending list of second coordinates, and so is ``G_{k,0}``:
:func:`box_columns` builds it that way straight from the rows, with no
tuple per point.  Box containment fixes the order of the union.  Every
point of ``G_{k,0}`` lies strictly inside box ``(k, 0)``: ``k*period < a <
(k+1)*period`` and ``0 < b < period``.  Its translate by ``w_j`` therefore
lies inside box ``(k-j, j)``, so the translates are pairwise disjoint and
``G0`` needs no other storage than the per-box columns and the period.
That is :class:`PureGapSet`, the value :func:`union_of_translates` builds:
it checks containment once per column, when built; its length is the
weighted sum ``sum (k+1)|G_{k,0}|``; and :meth:`PureGapSet.runs` lists it
in lexicographic order without a sort: box columns ``i`` ascending; inside
a box column, first-coordinate residues ``r`` ascending; for each residue,
``j`` ascending, giving the sorted second coordinates of ``G_{i+j,0}`` at
``a = (i+j)*period + r`` shifted by ``j*period``.  Two such values compare
box by box, and so does a value with the direct scan's ``G0``, which the
scan sorts into the same boxes: box ``(i, j)`` must hold ``G_{i+j,0}``.

:func:`assemble_pure_gaps` builds the engine's ``G0`` from
:func:`box_columns`; :func:`assemble` builds a closed-form family's from
its explicit components, an independent witness.  :func:`check_components`
is the only cross-check of a family's explicit boxes and components
against the engine's formulas, and :func:`check_reflection` the only check
of the diagonal law that empties G2 and makes G4 a reflection of G3.

Bulk results other than ``G0`` are plain ``(a, b)`` tuples (they compare
equal to :class:`~puregaps.lattice.LatticePoint`); every result list is
sorted lexicographically.  Cardinalities and bounds are guarded against the
128-bit range.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import eq, lt
from typing import Mapping

from .errors import (
    CardinalityMismatchError,
    DiagonalReflectionMismatchError,
    DisjointnessViolationError,
    GenericMismatchError,
    GenusIdentityViolationError,
)
from .lattice import GeneratingSet

#: Cardinalities and bounds must stay within 128-bit signed range.
INT128_MAX = 2**127 - 1

Bounds = namedtuple("Bounds", ("lower", "upper", "homma_kim"))


def check_int128(value: int) -> int:
    """Raise OverflowError when a result leaves the 128-bit signed range."""
    if value > INT128_MAX or value < -INT128_MAX - 1:
        raise OverflowError(
            f"value {value} exceeds the supported 128-bit range")
    return value


@dataclass(frozen=True)
class BoxedGamma:
    """Row-zero boxes of a generating set.

    ``rows`` maps a box index ``k`` to the sorted points of the set with
    ``k*period < a < (k+1)*period`` and ``0 < b < period``; empty rows are
    omitted.  ``kmax`` is the first index from which all boxes are empty,
    ``ceil((2g-1)/period)``.  ``diagonal`` records whether every
    generating point satisfies ``a == b (mod period)``, the condition of
    the law :func:`check_reflection` checks.
    """

    rows: Mapping[int, tuple]
    period: int
    genus: int
    kmax: int
    diagonal: bool

    def row(self, k: int) -> tuple:
        return self.rows.get(k, ())

    def row_sizes(self) -> list:
        """|rows[k]| for k = 0 .. kmax-1."""
        return [len(self.row(k)) for k in range(self.kmax)]


def decompose(gamma: GeneratingSet) -> BoxedGamma:
    """Collect the row-zero boxes of a validated generating set.

    Asserts the genus identity sum((k+1) * |rows[k]|) == genus and that no
    row sits at or beyond kmax; either failure means the input was
    malformed in a way validation cannot produce.
    """
    period = gamma.period
    g = gamma.genus
    kmax = max(0, -(-(2 * g - 1) // period))
    rows: dict = {}
    for a, b in gamma.points:
        if b < period:
            rows.setdefault(a // period, []).append((a, b))

    frozen = {k: tuple(sorted(v)) for k, v in sorted(rows.items())}
    if frozen and max(frozen) >= kmax:
        raise GenusIdentityViolationError(
            f"nonempty box at k={max(frozen)} >= kmax={kmax}")
    total = sum((k + 1) * len(v) for k, v in frozen.items())
    if total != g:
        raise GenusIdentityViolationError(
            f"sum (k+1)|rows[k]| = {total} does not equal genus {g}")

    diagonal = all(a - k * period == b
                   for k, row in frozen.items() for a, b in row)
    return BoxedGamma(rows=frozen, period=period, genus=g, kmax=kmax,
                      diagonal=diagonal)


def compute_g1(boxed: BoxedGamma, k: int) -> list:
    """First component of box (k, 0).

    glb(u + w_{k2-k}, v) over u in rows[k2], v in rows[k1] with k1, k2 > k.
    The shifted u lies in box (k, 0) and v in a higher row, so the glb is
    (first coordinate of the shifted u, second coordinate of v): the
    component is the Cartesian product of the shifted first coordinates
    and the second coordinates of the points above row k.  Its size must
    equal the square of the number of those points, so neither factor may
    repeat a value.
    """
    period = boxed.period
    firsts = []
    seconds = []
    for k2 in range(k + 1, boxed.kmax):
        shift = (k2 - k) * period
        for a, b in boxed.row(k2):
            firsts.append(a - shift)
            seconds.append(b)
    distinct = len(set(firsts)) * len(set(seconds))
    expected = len(firsts) * len(seconds)
    if distinct != expected:
        raise CardinalityMismatchError(
            f"|G1_({k},0)| = {distinct}, formula gives {expected}")
    firsts.sort()
    seconds.sort()
    return [(a, b) for a in firsts for b in seconds]


def compute_g2(boxed: BoxedGamma, k: int) -> list:
    """Second component: glb over incomparable pairs inside rows[k].

    Empty whenever the diagonal condition holds, since points of one row
    are then totally ordered.
    """
    row = boxed.row(k)
    out = set()
    for i, (ua, ub) in enumerate(row):
        for va, vb in row[i + 1:]:
            if (ua > va and ub < vb) or (ua < va and ub > vb):
                out.add((ua if ua < va else va, ub if ub < vb else vb))
    return sorted(out)


def compute_g3(boxed: BoxedGamma, k: int) -> list:
    """Third component: glb(u, v) for u in rows[k], v in a higher row,
    restricted to pairs with u not below v."""
    us = boxed.row(k)
    out = set()
    for k1 in range(k + 1, boxed.kmax):
        for va, vb in boxed.row(k1):
            for ua, ub in us:
                if ua > va or ub > vb:
                    out.add((ua if ua < va else va, ub if ub < vb else vb))
    return sorted(out)


def compute_g4(boxed: BoxedGamma, k: int) -> list:
    """Fourth component of box (k, 0): glb(u + w_{k2-k}, v) for u in
    rows[k2] (k2 > k) and v in rows[k], restricted to pairs with v not
    below the shifted u."""
    period = boxed.period
    vs = boxed.row(k)
    out = set()
    for k2 in range(k + 1, boxed.kmax):
        shift = (k2 - k) * period
        for ua, ub in boxed.row(k2):
            ua -= shift
            ub += shift
            for va, vb in vs:
                if va > ua or vb > ub:
                    out.add((ua if ua < va else va, ub if ub < vb else vb))
    return sorted(out)


def reflect(points, shift: int) -> list:
    """The coordinate swap of ``points`` translated by ``(shift, -shift)``,
    sorted; ``shift = k*period`` makes the translation -w_k."""
    return sorted((b + shift, a - shift) for a, b in points)


def check_reflection(boxed: BoxedGamma) -> None:
    """Check the diagonal law box by box: on a set whose every point has
    ``a == b (mod period)``, G2 is empty and G4 is :func:`reflect` of G3
    by ``k*period``.  Raises DiagonalReflectionMismatchError when the set
    is not diagonal, or naming the first box and half of the law that
    fail."""
    if not boxed.diagonal:
        raise DiagonalReflectionMismatchError("the set is not diagonal")
    for k in range(boxed.kmax):
        if compute_g2(boxed, k):
            raise DiagonalReflectionMismatchError(f"box k={k}: G2 is not empty")
        g4 = compute_g4(boxed, k)
        reflected = reflect(compute_g3(boxed, k), k * boxed.period)
        if g4 != reflected:
            raise DiagonalReflectionMismatchError(
                f"box k={k}: G4 has {len(g4)} points and differs from the "
                f"reflected G3, which has {len(reflected)}")


def bounds_from_row_sizes(sizes, genus: int) -> Bounds:
    """Lower/upper bounds on the pure gap count from row sizes alone,
    plus the generic g(g-1)/2 bound."""
    lower = 0
    upper = 0
    tail = sum(sizes)
    for k, size in enumerate(sizes):
        upper += (k + 1) * tail * tail
        tail -= size
        lower += (k + 1) * tail * tail
    upper -= genus
    homma_kim = genus * (genus - 1) // 2
    for value in (lower, upper, homma_kim):
        check_int128(value)
    return Bounds(lower, upper, homma_kim)


def bounds(boxed: BoxedGamma) -> Bounds:
    """(lower, upper, Homma-Kim) bounds for the pure gap cardinality."""
    return bounds_from_row_sizes(boxed.row_sizes(), boxed.genus)


@dataclass(frozen=True)
class PureGapResult:
    """The assembled pure gap set.

    ``g0`` is the full set as a :class:`PureGapSet`: the per-box sets by
    column plus the period, which iterates in lexicographic order and
    compares equal to the sorted list of its points; ``cardinality`` equals
    ``len(g0)``, the weighted per-box sum.
    """

    g0: PureGapSet
    cardinality: int
    lower_bound: int
    upper_bound: int
    homma_kim_bound: int


def box_components(boxed: BoxedGamma, k: int) -> tuple:
    """The four components (G1, G2, G3, G4) of box (k, 0)."""
    return (compute_g1(boxed, k), compute_g2(boxed, k), compute_g3(boxed, k),
            compute_g4(boxed, k))


def box_columns(boxed: BoxedGamma, k: int) -> dict:
    """``G_{k,0}`` by columns: ``{a - k*period: the ascending second
    coordinates of G_{k,0} at a}``, residues ascending, no empty column.

    Let ``S`` be the second coordinates of the points above row k and
    ``F`` their first coordinates shifted down to row k.  The glb formulas
    of the four components give two kinds of column:

    * at ``f`` in ``F``, G1 and G4: all of ``S``, plus the second
      coordinates of the row-k points whose first coordinate exceeds ``f``;
    * at a row-k point ``(u_a, u_b)``, G3 and G2: the second coordinates
      below ``u_b`` of ``S`` and of the row-k points right of ``u_a``.

    So one walk over the columns in decreasing first coordinate, keeping
    ``S`` and the row-k second coordinates passed in one sorted list,
    gives each column as the whole list or a prefix of it: no set, no
    sort and no tuple per point.  ``F`` and ``S`` may not repeat a value
    (the G1 cardinality check, CardinalityMismatchError), and ``F`` may not
    meet the row-k first coordinates, where the two kinds of column would
    overlap (DisjointnessViolationError).
    """
    period = boxed.period
    firsts = []
    passed = []
    for k2 in range(k + 1, boxed.kmax):
        shift = k2 * period
        for a, b in boxed.row(k2):
            firsts.append(a - shift)
            passed.append(b)
    above = len(firsts)
    distinct = len(set(firsts)) * len(set(passed))
    if distinct != above * above:
        raise CardinalityMismatchError(
            f"|G1_({k},0)| = {distinct}, formula gives {above * above}")
    base = k * period
    own = {a - base: b for a, b in boxed.row(k)}
    if not own.keys().isdisjoint(firsts):
        raise DisjointnessViolationError(
            f"box k={k}: a first coordinate shifted down from a higher row "
            f"is a first coordinate of row {k}")
    passed.sort()
    columns = []
    for r in sorted(chain(firsts, own), reverse=True):
        b = own.get(r)
        if b is None:
            columns.append((r, passed[:]))
        else:
            cut = bisect_left(passed, b)
            if cut:
                columns.append((r, passed[:cut]))
            insort(passed, b)
    columns.reverse()
    return dict(columns)


def _component_columns(k: int, parts, period: int) -> dict:
    """``G_{k,0}`` by columns, as :func:`box_columns` gives it, from the
    sorted components ``parts`` of box (k, 0).

    Sorting the concatenation merges the sorted components in one pass; a
    repeated point means two components overlap, and raises
    DisjointnessViolationError.
    """
    merged = sorted(chain(*parts))
    if not all(map(lt, merged, islice(merged, 1, None))):
        raise DisjointnessViolationError(
            f"components of box k={k} are not pairwise disjoint")
    columns = {}
    if merged:
        firsts, seconds = zip(*merged)
        base = k * period
        i = 0
        while i < len(firsts):
            a = firsts[i]
            end = bisect_right(firsts, a, i)
            columns[a - base] = list(seconds[i:end])
            i = end
    return columns


class PureGapSet:
    """The pure gap set ``G0``, held as its per-box sets plus the period.

    ``G0`` is the disjoint union of the translates ``G_{k,0} + w_j``,
    ``0 <= j <= k``, so the per-box sets and the period are all of it.  The
    sets are kept by column, ``k -> {a - k*period: ascending second
    coordinates of G_{k,0} at a}``, with empty columns and boxes dropped.
    Building the value checks once per column that it lies strictly inside
    its box and is strictly increasing, which makes the translates
    disjoint, and raises DisjointnessViolationError otherwise.

    * ``len`` is the weighted sum ``sum (k+1)|G_{k,0}|``.
    * Iteration lists ``G0`` in lexicographic order, by :meth:`runs`.
    * ``==`` with another PureGapSet of the same period compares the
      per-box sets.  That is exact: containment gives
      ``G_{k,0} = (G0 & box(k-j, j)) - w_j``, so equal per-box sets and
      equal sets ``G0`` imply each other.
    * :meth:`equals_boxes` compares it with ``G0`` sorted into boxes, as
      the direct scan gives it, one dict compare per box and no point
      walked; ``==`` with a sorted list of points compares one list slice
      per run, so no second ``|G0|``-sized list is held.
    """

    __slots__ = ("period", "_runs", "_size")

    def __init__(self, columns_by_box: dict, period: int):
        runs = {}
        size = 0
        for k, columns in columns_by_box.items():
            kept = {}
            for r, bs in columns.items():
                if not bs:
                    continue
                if not (0 < r < period and 0 < bs[0] and bs[-1] < period
                        and all(map(lt, bs, islice(bs, 1, None)))):
                    raise DisjointnessViolationError(
                        f"column a={k * period + r} of G_({k},0) leaves box "
                        f"({k}, 0) or is not strictly increasing")
                kept[r] = bs
                size += (k + 1) * len(bs)
            if kept:
                runs[k] = kept
        self.period = period
        self._runs = runs
        self._size = check_int128(size)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (f"PureGapSet(period={self.period}, boxes={sorted(self._runs)}, "
                f"size={self._size})")

    def runs(self):
        """Yield ``G0`` in runs ``(a, bs, shift)``: the points
        ``(a, b + shift)`` for b in the ascending list ``bs``.

        Runs come in lexicographic order of their points (see the module
        docstring), so their concatenation is the sorted pure gap set.
        """
        period = self.period
        runs = self._runs
        top = max(runs, default=-1)
        for i in range(top + 1):
            column = [(j * period, runs[i + j])
                      for j in range(top + 1 - i) if i + j in runs]
            residues = sorted(set().union(*(by_residue
                                            for _, by_residue in column)))
            base = i * period
            for r in residues:
                a = base + r
                for shift, by_residue in column:
                    bs = by_residue.get(r)
                    if bs is not None:
                        yield a, bs, shift

    def __iter__(self):
        for a, bs, shift in self.runs():
            for b in bs:
                yield a, b + shift

    def __eq__(self, other):
        if isinstance(other, PureGapSet):
            if self.period == other.period:
                return self._runs == other._runs
            return self._size == other._size and all(map(eq, self, other))
        if isinstance(other, list):
            return self._equals_list(other)
        return NotImplemented

    __hash__ = None

    def equals_boxes(self, boxes: dict) -> bool:
        """True when ``boxes``, ``{(i, j): {r: ascending v}}`` holding the
        points ``(i*period + r, j*period + v)`` with no empty column or box
        (as :func:`puregaps.oracle.pure_gap_boxes_direct` gives them),
        list exactly ``G0``.

        The keys must be ``{(k - j, j) : k a non-empty box, 0 <= j <= k}``
        and ``boxes[(i, j)]`` must equal the per-box set of ``i + j``, one
        dict and list compare per box.  That is exact: the map ``(a, b) ->
        ((a // period, b // period), a % period, b % period)`` is
        injective, and both sides are canonical (ascending lists, no empty
        column or box), so per-box equality is set equality, and every one
        of the ``k + 1`` translates ``G_{k,0} + w_j`` is compared with the
        box ``(k - j, j)`` it lies in.
        """
        runs = self._runs
        if boxes.keys() != {(k - j, j) for k in runs for j in range(k + 1)}:
            return False
        return all(columns == runs[i + j]
                   for (i, j), columns in boxes.items())

    def _equals_list(self, other: list) -> bool:
        """Compare with a list of points, one list slice per run, so no
        second ``|G0|``-sized list is held.  The number of points walked
        must equal the weighted sum, or CardinalityMismatchError is
        raised."""
        pos = 0
        for a, bs, shift in self.runs():
            end = pos + len(bs)
            if other[pos:end] != list(zip(repeat(a), map(shift.__add__, bs))):
                return False
            pos = end
        if pos != self._size:
            raise CardinalityMismatchError(
                f"|G0| = {pos} but weighted per-box sum is {self._size}")
        return pos == len(other)


def union_of_translates(columns_by_box: dict, period: int) -> PureGapSet:
    """Union over 0 <= j <= k of (G_{k,0} + w_j), as a :class:`PureGapSet`.

    ``columns_by_box`` maps k to ``G_{k,0}`` by columns, as
    :func:`box_columns` gives it.  Building the value checks that every
    column lies in its box and is strictly increasing, and so that the
    translates are disjoint.
    """
    return PureGapSet(columns_by_box, period)


def _result(columns_by_box: dict, period: int, bnd: Bounds) -> PureGapResult:
    g0 = union_of_translates(columns_by_box, period)
    return PureGapResult(g0=g0, cardinality=len(g0), lower_bound=bnd.lower,
                         upper_bound=bnd.upper, homma_kim_bound=bnd.homma_kim)


def assemble(per_box: dict, period: int, bnd: Bounds) -> PureGapResult:
    """Assemble the full pure gap set from a family's explicit components.

    ``per_box`` maps each box index k to the four sorted components of box
    ``(k, 0)``, which :func:`_component_columns` merges into columns; they
    must be pairwise disjoint, and every column must lie in its box, which
    makes the translates disjoint.  ``bnd`` supplies the bounds recorded in
    the result.
    """
    return _result({k: _component_columns(k, parts, period)
                    for k, parts in per_box.items()}, period, bnd)


def assemble_pure_gaps(boxed: BoxedGamma) -> PureGapResult:
    """Assemble the full pure gap set from the row-zero boxes, each box
    ``(k, 0)`` built by :func:`box_columns`."""
    return _result({k: box_columns(boxed, k) for k in range(boxed.kmax)},
                   boxed.period, bounds(boxed))


def check_components(boxed: BoxedGamma, row, components, label: str) -> None:
    """Compare a family's explicit sets with the engine, box by box.

    ``row(k)`` gives the family's ``Gamma_{k,0}`` and ``components(k)`` its
    (G1, G2, G3, G4) of box ``(k, 0)``, compared with
    :func:`box_components`.  A disagreement raises GenericMismatchError
    naming ``label``, the box and the first differing set.  A family whose
    G4 is :func:`reflect` of its G3 thus also checks the diagonal law.
    """
    names = ("Gamma_k0", "G1", "G2", "G3", "G4")
    for k in range(boxed.kmax):
        explicit = (row(k), *components(k))
        generic = (boxed.row(k), *box_components(boxed, k))
        for name, mine, engine in zip(names, explicit, generic):
            if list(mine) != list(engine):
                raise GenericMismatchError(
                    f"{label} k={k}: explicit {name} has {len(mine)} points, "
                    f"engine has {len(engine)}")
