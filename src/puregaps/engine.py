"""Box decomposition of a generating set and assembly of the pure gap set.

The plane is tiled with period-sized boxes.  Only the row-zero boxes
``rows[k]`` (points whose second coordinate is below the period) are
stored: box ``(i, j)`` is the translate of ``rows[i+j]`` by
``w_j = (-j*period, j*period)``.  The pure gaps of box ``(k, 0)`` split
into four components, computed here straight from their defining
formulas, and the full pure gap set is the disjoint union of the
translates ``(G_{k,0} + w_j)`` over ``0 <= j <= k``.

Inside a box each component is a set of columns, ``{a - k*period:
ascending second coordinates at a}``, and so is ``G_{k,0}``: no tuple
per point.  :func:`compute_g1` is the Cartesian product it is proven to
be, one shared sorted list per column; :func:`compute_g2` ..
:func:`compute_g4` collect the glbs of their defining pairs into columns;
:func:`box_columns` builds ``G_{k,0}`` straight from the rows.

Box containment fixes the order of the union.  Every point of
``G_{k,0}`` lies strictly inside box ``(k, 0)``: ``k*period < a <
(k+1)*period`` and ``0 < b < period``.  Its translate by ``w_j`` therefore
lies inside box ``(k-j, j)``, so the translates are pairwise disjoint and
``G0`` needs no other storage than the per-box columns and the period.
That is :class:`PureGapSet`, built from the per-box columns and the period:
it checks containment when built, once per column and once per distinct
column list; its length is the weighted sum ``sum (k+1)|G_{k,0}|``; and
:meth:`PureGapSet.box_column_walk`, behind :meth:`PureGapSet.runs` and the
listing, walks it in lexicographic order without a sort: box columns ``i``
ascending; inside a box column, first-coordinate residues ``r`` ascending;
for each residue, ``j`` ascending, giving the sorted second coordinates of
``G_{i+j,0}`` at ``a = (i+j)*period + r`` shifted by ``j*period``.  Two such values compare
box by box, and so does a value with the direct scan's ``G0``, which the
scan sorts into the same boxes: box ``(i, j)`` must hold ``G_{i+j,0}``.

:func:`assemble_pure_gaps` builds the engine's ``G0`` from
:func:`box_columns`, the one route to it.  :func:`check_components` is
the only cross-check of a family's explicit boxes and components against
the engine's formulas, and it first checks the identity that ties those
formulas to ``G0``: per box, the four components concatenated per residue
and sorted are the engine's ``G_{k,0}``, :meth:`PureGapSet.box`.  It takes
the engine's components and ``G0`` from the caller, so neither is built
twice.  :func:`check_reflection` is the only check of the diagonal law
that empties G2 and makes G4 a reflection of G3 (by column, a transpose);
it takes the engine's components when the caller has built them.

The rows are plain ``(a, b)`` tuples (they compare equal to
:class:`~puregaps.lattice.LatticePoint`), sorted lexicographically.
Cardinalities and bounds are guarded against the 128-bit range.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, namedtuple
from itertools import chain, islice, repeat
from operator import eq, lt

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


class BoxedGamma(namedtuple("BoxedGamma",
                            ("rows", "period", "genus", "kmax", "diagonal"))):
    """Row-zero boxes of a generating set.

    ``rows`` maps a box index ``k`` to the sorted points of the set with
    ``k*period < a < (k+1)*period`` and ``0 < b < period``; empty rows are
    omitted.  ``kmax`` is the first index from which all boxes are empty,
    ``ceil((2g-1)/period)``.  ``diagonal`` records whether every
    generating point satisfies ``a == b (mod period)``, the condition of
    the law :func:`check_reflection` checks.
    """

    __slots__ = ()

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


def _above(boxed: BoxedGamma, k: int) -> tuple:
    """The points above row k as two lists: their first coordinates
    shifted down to residues, ``a - k2*period`` for a point of row k2, and
    their second coordinates.

    G1 of box (k, 0) is the Cartesian product of the two, so its size must
    equal the square of the number of those points: neither list may
    repeat a value, or CardinalityMismatchError is raised.
    """
    period = boxed.period
    firsts = []
    seconds = []
    for k2 in range(k + 1, boxed.kmax):
        shift = k2 * period
        for a, b in boxed.row(k2):
            firsts.append(a - shift)
            seconds.append(b)
    above = len(firsts)
    distinct = len(set(firsts)) * len(set(seconds))
    if distinct != above * above:
        raise CardinalityMismatchError(
            f"|G1_({k},0)| = {distinct}, formula gives {above * above}")
    return firsts, seconds


def _sorted_columns(columns: dict) -> dict:
    """``{r: set of b}`` as plain columns: residues ascending, each set
    sorted."""
    return {r: sorted(bs) for r, bs in sorted(columns.items())}


def compute_g1(boxed: BoxedGamma, k: int) -> dict:
    """First component of box (k, 0), by column.

    glb(u + w_{k2-k}, v) over u in rows[k2], v in rows[k1] with k1, k2 > k.
    The shifted u lies in box (k, 0) and v in a higher row, so the glb is
    (first coordinate of the shifted u, second coordinate of v): the
    component is the Cartesian product of the shifted first coordinates
    and the second coordinates of the points above row k.  So every
    column holds the same sorted list of those second coordinates, one
    list shared by all columns.  The cardinality check of :func:`_above`
    applies.
    """
    firsts, seconds = _above(boxed, k)
    seconds.sort()
    return dict.fromkeys(sorted(firsts), seconds)


def compute_g2(boxed: BoxedGamma, k: int) -> dict:
    """Second component: glb over incomparable pairs inside rows[k], by
    column.

    Empty whenever the diagonal condition holds, since points of one row
    are then totally ordered.
    """
    row = boxed.row(k)
    base = k * boxed.period
    columns = defaultdict(set)
    for i, (ua, ub) in enumerate(row):
        for va, vb in row[i + 1:]:
            if (ua > va and ub < vb) or (ua < va and ub > vb):
                columns[(ua if ua < va else va) - base].add(
                    ub if ub < vb else vb)
    return _sorted_columns(columns)


def compute_g3(boxed: BoxedGamma, k: int) -> dict:
    """Third component: glb(u, v) for u in rows[k], v in a higher row,
    restricted to pairs with u not below v; by column."""
    us = boxed.row(k)
    base = k * boxed.period
    columns = defaultdict(set)
    for k1 in range(k + 1, boxed.kmax):
        for va, vb in boxed.row(k1):
            for ua, ub in us:
                if ua > va or ub > vb:
                    columns[(ua if ua < va else va) - base].add(
                        ub if ub < vb else vb)
    return _sorted_columns(columns)


def compute_g4(boxed: BoxedGamma, k: int) -> dict:
    """Fourth component of box (k, 0): glb(u + w_{k2-k}, v) for u in
    rows[k2] (k2 > k) and v in rows[k], restricted to pairs with v not
    below the shifted u; by column."""
    period = boxed.period
    base = k * period
    vs = boxed.row(k)
    columns = defaultdict(set)
    for k2 in range(k + 1, boxed.kmax):
        shift = (k2 - k) * period
        for ua, ub in boxed.row(k2):
            ua -= shift
            ub += shift
            for va, vb in vs:
                if va > ua or vb > ub:
                    columns[(ua if ua < va else va) - base].add(
                        ub if ub < vb else vb)
    return _sorted_columns(columns)


def reflect(columns: dict) -> dict:
    """The coordinate swap of a set of box (k, 0) translated by -w_k, by
    column.

    The swap and the translation send ``(k*period + r, b)`` to
    ``(k*period + b, r)``, so by column the map is the transpose: column
    ``b`` of the result lists, ascending, the residues ``r`` whose column
    holds ``b``.
    """
    out = {}
    for r in sorted(columns):
        for b in columns[r]:
            out.setdefault(b, []).append(r)
    return dict(sorted(out.items()))


def _size(columns: dict) -> int:
    """The number of points of a set given by column."""
    return sum(map(len, columns.values()))


def check_reflection(boxed: BoxedGamma, generic=None) -> None:
    """Check the diagonal law box by box: on a set whose every point has
    ``a == b (mod period)``, G2 is empty and G4 is :func:`reflect` of G3.
    ``generic`` maps each box index to its (G1, G2, G3, G4), as
    :func:`box_components` gives them, when the caller holds them; else
    G2, G3 and G4 are computed here.  Raises
    DiagonalReflectionMismatchError when the set is not diagonal, or
    naming the first box and half of the law that fail."""
    if not boxed.diagonal:
        raise DiagonalReflectionMismatchError("the set is not diagonal")
    for k in range(boxed.kmax):
        if generic is None:
            g2, g3, g4 = (compute_g2(boxed, k), compute_g3(boxed, k),
                          compute_g4(boxed, k))
        else:
            _, g2, g3, g4 = generic[k]
        if g2:
            raise DiagonalReflectionMismatchError(f"box k={k}: G2 is not empty")
        reflected = reflect(g3)
        if g4 != reflected:
            raise DiagonalReflectionMismatchError(
                f"box k={k}: G4 has {_size(g4)} points and differs from the "
                f"reflected G3, which has {_size(reflected)}")


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


class PureGapResult(namedtuple("PureGapResult", (
        "g0", "cardinality", "lower_bound", "upper_bound",
        "homma_kim_bound"))):
    """The assembled pure gap set.

    ``g0`` is the full set as a :class:`PureGapSet`: the per-box sets by
    column plus the period, which iterates in lexicographic order and
    compares equal to the sorted list of its points; ``cardinality`` equals
    ``len(g0)``, the weighted per-box sum.
    """

    __slots__ = ()


def box_components(boxed: BoxedGamma, k: int) -> tuple:
    """The four components (G1, G2, G3, G4) of box (k, 0), each by column:
    ``{a - k*period: ascending second coordinates at a}``, residues
    ascending, no empty column.  Columns are read-only: those of G1 share
    one list."""
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
    sort and no tuple per point.  Columns of the first kind with no row-k
    point between them in the walk share one snapshot of the whole list,
    the same list object; a fresh snapshot starts only after a row-k
    point is inserted.  Columns are read-only, so a box holds few distinct
    lists, and :class:`PureGapSet` checks and the listing renders each
    once.  ``F`` and ``S`` may not repeat a value (the G1 cardinality
    check of :func:`_above`), and ``F`` may not meet the row-k first
    coordinates, where the two kinds of column would overlap
    (DisjointnessViolationError).
    """
    firsts, passed = _above(boxed, k)
    base = k * boxed.period
    own = {a - base: b for a, b in boxed.row(k)}
    if not own.keys().isdisjoint(firsts):
        raise DisjointnessViolationError(
            f"box k={k}: a first coordinate shifted down from a higher row "
            f"is a first coordinate of row {k}")
    passed.sort()
    columns = []
    snapshot = None
    for r in sorted(chain(firsts, own), reverse=True):
        b = own.get(r)
        if b is None:
            if snapshot is None:
                snapshot = passed[:]
            columns.append((r, snapshot))
        else:
            cut = bisect_left(passed, b)
            if cut:
                columns.append((r, passed[:cut]))
            insort(passed, b)
            snapshot = None
    columns.reverse()
    return dict(columns)


class PureGapSet:
    """The pure gap set ``G0``, held as its per-box sets plus the period.

    ``G0`` is the disjoint union of the translates ``G_{k,0} + w_j``,
    ``0 <= j <= k``, so the per-box sets and the period are all of it.  The
    sets are kept by column, ``k -> {a - k*period: ascending second
    coordinates of G_{k,0} at a}``, with empty columns and boxes dropped.
    Building the value checks that every column lies strictly inside its
    box and is strictly increasing, which makes the translates disjoint,
    and raises DisjointnessViolationError otherwise: the residue once per
    column, the list once per distinct list object.

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
        # The range and order check depends on the list alone, so a list
        # shared by several columns is checked once; the input holds every
        # list alive, so no id is reused meanwhile.
        checked = set()
        for k, columns in columns_by_box.items():
            kept = {}
            for r, bs in columns.items():
                if not bs:
                    continue
                if not 0 < r < period or (
                        id(bs) not in checked
                        and not (0 < bs[0] and bs[-1] < period
                                 and all(map(lt, bs, islice(bs, 1, None))))):
                    raise DisjointnessViolationError(
                        f"column a={k * period + r} of G_({k},0) leaves box "
                        f"({k}, 0) or is not strictly increasing")
                checked.add(id(bs))
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

    def box(self, k: int) -> dict:
        """``G_{k,0}`` by column, as :func:`box_columns` built it; ``{}``
        for an empty box.  Read-only."""
        return self._runs.get(k, {})

    def box_column_walk(self):
        """Yield ``G0`` one box column at a time, as ``(base, residues,
        translates)``: box column ``i`` holds the first coordinates ``a =
        base + r``, ``base = i*period``, for the ascending ``residues``;
        ``translates`` lists ``(shift, columns)`` for ``j`` ascending, the
        columns of ``G_{i+j,0}`` by residue and their shift ``j*period``,
        skipping empty boxes.  The points at ``a`` are ``(a, b + shift)``
        for b in ``columns[r]``, over the translates holding ``r`` in
        order, ascending (see the module docstring).  Columns are
        read-only and may share one list object.
        """
        period = self.period
        runs = self._runs
        top = max(runs, default=-1)
        for i in range(top + 1):
            translates = [(j * period, runs[i + j])
                          for j in range(top + 1 - i) if i + j in runs]
            residues = sorted(set().union(*(columns
                                            for _, columns in translates)))
            yield i * period, residues, translates

    def runs(self):
        """Yield ``G0`` in runs ``(a, bs, shift)``: the points
        ``(a, b + shift)`` for b in the ascending list ``bs``.

        Runs come in lexicographic order of their points (see the module
        docstring), so their concatenation is the sorted pure gap set.
        """
        for base, residues, translates in self.box_column_walk():
            for r in residues:
                a = base + r
                for shift, columns in translates:
                    bs = columns.get(r)
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


def assemble_pure_gaps(boxed: BoxedGamma) -> PureGapResult:
    """Assemble the full pure gap set from the row-zero boxes, each box
    ``(k, 0)`` built by :func:`box_columns`."""
    g0 = PureGapSet({k: box_columns(boxed, k) for k in range(boxed.kmax)},
                    boxed.period)
    bnd = bounds(boxed)
    return PureGapResult(g0=g0, cardinality=len(g0), lower_bound=bnd.lower,
                         upper_bound=bnd.upper, homma_kim_bound=bnd.homma_kim)


def _same_columns(mine: dict, engine: dict) -> bool:
    """True when two sets given by column are equal; ``engine``'s columns
    are lists, ``mine``'s any ascending sequences."""
    return mine.keys() == engine.keys() and all(
        list(bs) == engine[r] for r, bs in mine.items())


def check_components(boxed: BoxedGamma, generic: dict, g0: PureGapSet,
                     row, components, label: str) -> None:
    """Compare a family's explicit sets with the engine, box by box.

    ``generic[k]``, the engine's (G1, G2, G3, G4) of box ``(k, 0)`` as
    :func:`box_components` gives them, is first checked against
    ``g0.box(k)``, the ``G_{k,0}`` of the engine's ``G0``: concatenated
    per residue and sorted, the four must give it.  A duplicate breaks
    that equality, so it also proves the components pairwise disjoint.
    Then ``row(k)``, the family's ``Gamma_{k,0}``, is compared with the
    engine's row, and ``components(k)``, its four components by column,
    with the engine's.  So the family's components merge to the engine's
    ``G0``.  A disagreement raises GenericMismatchError naming ``label``,
    the box and the first differing residue or set.  A family whose G4 is
    :func:`reflect` of its G3 thus also checks the diagonal law.
    """
    names = ("G1", "G2", "G3", "G4")
    for k in range(boxed.kmax):
        parts = generic[k]
        merged = {}
        for part in parts:
            for r, bs in part.items():
                merged.setdefault(r, []).extend(bs)
        columns = g0.box(k)
        for r in sorted(merged.keys() | columns.keys()):
            got = sorted(merged.get(r, ()))
            want = columns.get(r, [])
            if got != want:
                raise GenericMismatchError(
                    f"{label} k={k}: G1..G4 merged at residue {r} hold "
                    f"{len(got)} points, box_columns {len(want)}")
        mine, engine = row(k), boxed.row(k)
        if list(mine) != list(engine):
            raise GenericMismatchError(
                f"{label} k={k}: explicit Gamma_k0 has {len(mine)} points, "
                f"engine has {len(engine)}")
        for name, mine, engine in zip(names, components(k), parts):
            if not _same_columns(mine, engine):
                raise GenericMismatchError(
                    f"{label} k={k}: explicit {name} has {_size(mine)} "
                    f"points, engine has {_size(engine)}")
