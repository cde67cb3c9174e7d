"""Box decomposition of a generating set and assembly of the pure gap set.

The plane is tiled with period-sized boxes.  Only the row-zero boxes
``rows[k]`` (points whose second coordinate is below the period) are
stored: box ``(i, j)`` is the translate of ``rows[i+j]`` by
``w_j = (-j*period, j*period)``.  The pure gaps of box ``(k, 0)`` split
into four components, each defined by glb formulas, and the full pure
gap set is the disjoint union of the translates ``(G_{k,0} + w_j)`` over
``0 <= j <= k``.

Inside a box each component is a set of columns, ``{a - k*period:
ascending second coordinates at a}``, and so is ``G_{k,0}``: no tuple
per point.  Box containment reduces each component's glb formula to a
column form, proven in its docstring: :func:`compute_g1` is a Cartesian
product, one shared sorted list in every column; :func:`compute_g2` and
:func:`compute_g3` take each column as a prefix of one sorted list, and
:func:`compute_g4` as a snapshot of one, shared by neighbouring columns.
:func:`box_columns` builds ``G_{k,0}`` straight from the rows, with the
same prefixes and snapshots.

Box containment fixes the order of the union.  Every point of
``G_{k,0}`` lies strictly inside box ``(k, 0)``: ``k*period < a <
(k+1)*period`` and ``0 < b < period``.  Its translate by ``w_j`` therefore
lies inside box ``(k-j, j)``, so the translates are pairwise disjoint and
``G0`` needs no other storage than the per-box columns and the period.
That is :class:`PureGapSet`, built from the per-box columns and the period:
it checks containment when built, once per column and once per distinct
column list; its length is the weighted sum ``sum (k+1)|G_{k,0}|``; and
:meth:`PureGapSet.pieces`, the one listing, writes it as text in
lexicographic order without a sort: box columns ``i`` ascending; inside a
box column, first-coordinate residues ``r`` ascending; for each residue,
``j`` ascending, giving the sorted second coordinates of ``G_{i+j,0}`` at
``a = (i+j)*period + r`` shifted by ``j*period``.  Nothing else walks the
translates.  Two values of one period compare box by box, and so does one
with the direct scan: its box ``(i, j)`` must hold :meth:`PureGapSet.box`
``(i + j)``.

:func:`assemble_pure_gaps` builds the engine's ``G0`` from
:func:`box_columns`, the one route to it.  :func:`check_components` is
the only cross-check of a family's explicit rows and components G1 and
G3 against the engine's formulas, and it first checks the identity that
ties those formulas to ``G0``: per box, the four components concatenated
per residue and sorted are the engine's ``G_{k,0}``, :meth:`PureGapSet.box`.
It takes the engine's components and ``G0`` from the caller, so neither is
built twice, and the family's sets as plain data, box index to
``(Gamma_{k,0}, G1, G3)``.  :func:`check_reflection` is the only check
of the diagonal law that empties G2 and makes G4 a reflection of G3 (by
column, a transpose), so a family, being diagonal, gives neither; it
takes the engine's components when the caller has built them.

The rows are plain ``(a, b)`` tuples, sorted lexicographically.
Cardinalities and bounds are guarded against the 128-bit range.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from itertools import chain, count, islice, repeat
from operator import lt

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

#: Points gathered into each piece of :meth:`PureGapSet.pieces`.
_CHUNK_POINTS = 1 << 16


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

    The row is sorted and its first coordinates are distinct, so a point
    ``u`` and a point ``v`` right of it are incomparable exactly when
    ``u_b > v_b``, and their glb is ``(u_a, v_b)``: the column at ``u``
    holds the second coordinates below ``u_b`` of the row points right of
    ``u``.  One walk of the row from the right, keeping the second
    coordinates passed in one sorted list, gives each column as a prefix
    of it.  Empty whenever the diagonal condition holds, since points of
    one row are then totally ordered.
    """
    base = k * boxed.period
    passed = []
    columns = []
    for a, b in reversed(boxed.row(k)):
        cut = bisect_left(passed, b)
        if cut:
            columns.append((a - base, passed[:cut]))
        insort(passed, b)
    return dict(reversed(columns))


def compute_g3(boxed: BoxedGamma, k: int) -> dict:
    """Third component: glb(u, v) for u in rows[k], v in a higher row,
    restricted to pairs with u not below v; by column.

    A point ``v`` of a higher row always lies right of ``u``, so ``u`` is
    not below ``v`` exactly when ``u_b > v_b``, and their glb is ``(u_a,
    v_b)``.  With ``S`` the sorted second coordinates of the points above
    row k, which a generating set does not repeat, the column at a row-k
    point ``(r, b)`` is the prefix ``S[:bisect_left(S, b)]``.
    """
    seconds = sorted(b for k2 in range(k + 1, boxed.kmax)
                     for _, b in boxed.row(k2))
    base = k * boxed.period
    return {a - base: seconds[:cut] for a, b in boxed.row(k)
            if (cut := bisect_left(seconds, b))}


def compute_g4(boxed: BoxedGamma, k: int) -> dict:
    """Fourth component of box (k, 0): glb(u + w_{k2-k}, v) for u in
    rows[k2] (k2 > k) and v in rows[k], restricted to pairs with v not
    below the shifted u; by column.

    The shifted ``u`` has second coordinate ``u_b + (k2-k)*period``, at
    least ``period + 1`` and so above every second coordinate of row k:
    ``v`` is not below it exactly when ``v_a`` exceeds its first
    coordinate, and their glb is that first coordinate with ``v_b``.  With
    ``F`` the first coordinates of the points above row k shifted down to
    residues in box (k, 0), the column at ``f`` in ``F`` holds the second
    coordinates of the row-k points of residue strictly above ``f``.  One
    walk over ``F`` in decreasing order, inserting the second coordinates
    of the row-k points passed into one sorted list, gives each column as
    a snapshot of it.  Columns with no row-k point between them in the
    walk share one snapshot, the same list object, and a repeated ``f``
    gives the same column.
    """
    period = boxed.period
    base = k * period
    row = boxed.row(k)
    i = len(row)
    passed = []
    columns = []
    snapshot = None
    for f in sorted((a - k2 * period for k2 in range(k + 1, boxed.kmax)
                     for a, _ in boxed.row(k2)), reverse=True):
        while i and row[i - 1][0] - base > f:
            i -= 1
            insort(passed, row[i][1])
            snapshot = None
        if passed:
            if snapshot is None:
                snapshot = passed[:]
            columns.append((f, snapshot))
    return dict(reversed(columns))


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


def box_components(boxed: BoxedGamma, k: int) -> tuple:
    """The four components (G1, G2, G3, G4) of box (k, 0), each by column:
    ``{a - k*period: ascending second coordinates at a}``, residues
    ascending, no empty column.  Columns are read-only: those of G1 share
    one list, neighbouring columns of G4 share one snapshot, and those of
    G2 and G3 are prefixes, each its own list."""
    return (compute_g1(boxed, k), compute_g2(boxed, k), compute_g3(boxed, k),
            compute_g4(boxed, k))


def box_columns(boxed: BoxedGamma, k: int) -> dict:
    """``G_{k,0}`` by columns: ``{a - k*period: the ascending second
    coordinates of G_{k,0} at a}``, residues ascending, no empty column.

    Let ``S`` be the second coordinates of the points above row k and
    ``F`` their first coordinates shifted down to row k.  The column forms
    proven in the docstrings of :func:`compute_g1` .. :func:`compute_g4`
    give two kinds of column:

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
    * :meth:`box` gives one per-box set.  Two values of one period are
      equal exactly when their per-box sets are: containment gives
      ``G_{k,0} = (G0 & box(k-j, j)) - w_j``.
    * :meth:`pieces` lists ``G0`` as TSV or JSON text in lexicographic
      order.
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

    def pieces(self, fmt: str = "tsv"):
        """Yield ``G0`` as text in lexicographic order, in pieces of about
        ``_CHUNK_POINTS`` points: one line ``a<TAB>b`` per point for
        ``"tsv"``, one JSON array of pairs and a newline for ``"json"``.

        The text is rendered from templates one box column ``i`` at a time,
        in the order the module docstring gives.  For each translate ``j``,
        each distinct column list of box ``i + j`` is rendered once, one cell
        ``"\\x00" + str(b + j*period) + closer`` per point
        (:func:`box_columns` shares one list among neighbouring columns).  A
        first coordinate's block is its templates across ``j`` joined, with
        the marker replaced by the point's opening text ``a<TAB>`` or
        ``,[a,``: no Python work per run or per point.  Memory is bounded by
        the per-box sets, not by ``|G0|``.  After the text, the markers
        rendered must number ``len(self)``, or CardinalityMismatchError is
        raised.
        """
        period = self.period
        runs = self._runs
        top = max(runs, default=-1)
        if fmt == "json":
            opener, mid, closer = ",[", ",", "]"
            yield "["
        else:
            opener, mid, closer = "", "\t", "\n"
        # Second coordinates of G_{k,0} + w_j are b + j*period, 0 < b < period
        # and j <= k <= top: one table of cells per shift j*period, by b.
        cells = {j * period: [f"\x00{v}{closer}" for v in
                              range(j * period, (j + 1) * period)]
                 for j in range(top + 1)}
        # The walk visits box i + j once per i: index its distinct lists once.
        slots = {}
        chunk = []
        pending = written = 0
        # Every JSON point opens with its separator: drop the first one.
        head = 1 if fmt == "json" else 0
        for i in range(top + 1):
            base = i * period
            translates = [(j * period, runs[i + j])
                          for j in range(top + 1 - i) if i + j in runs]
            residues = sorted(set().union(*(columns
                                            for _, columns in translates)))
            blocks = []
            for shift, columns in translates:
                if id(columns) not in slots:
                    slots[id(columns)] = _distinct_lists(columns)
                lists, slot = slots[id(columns)]
                cell = cells[shift].__getitem__
                templates = ["".join(map(cell, bs)) for bs in lists]
                templates.append("")  # index -1: a residue the box lacks
                blocks.append(map(templates.__getitem__,
                                  map(slot.get, residues, repeat(-1))))
            for r, block in zip(residues, map("".join, zip(*blocks))):
                pending += block.count("\x00")
                chunk.append(
                    block.replace("\x00", f"{opener}{base + r}{mid}"))
                if pending >= _CHUNK_POINTS:
                    yield "".join(chunk)[head:]
                    chunk.clear()
                    written += pending
                    pending = head = 0
        yield "".join(chunk)[head:]
        written += pending
        if fmt == "json":
            yield "]\n"
        if written != self._size:
            raise CardinalityMismatchError(
                f"wrote {written} pure gaps but weighted per-box sum is "
                f"{self._size}")


def _distinct_lists(columns):
    """The distinct list objects among the values of ``columns``, and
    ``{r: the index of column r's list among them}``."""
    lists = columns.values()
    distinct = dict(zip(map(id, lists), lists))
    index = dict(zip(distinct, count()))
    return (list(distinct.values()),
            dict(zip(columns, map(index.__getitem__, map(id, lists)))))


def assemble_pure_gaps(boxed: BoxedGamma) -> PureGapSet:
    """The full pure gap set ``G0`` from the row-zero boxes, each box
    ``(k, 0)`` built by :func:`box_columns`.  Its bounds are
    :func:`bounds` of the same boxes."""
    return PureGapSet({k: box_columns(boxed, k) for k in range(boxed.kmax)},
                      boxed.period)


def _same_columns(mine: dict, engine: dict) -> bool:
    """True when two sets given by column are equal; ``engine``'s columns
    are lists, ``mine``'s any ascending sequences."""
    return mine.keys() == engine.keys() and all(
        list(bs) == engine[r] for r, bs in mine.items())


def check_components(boxed: BoxedGamma, generic: dict, g0: PureGapSet,
                     per_box: dict) -> None:
    """Compare a family's explicit sets with the engine, box by box.

    ``generic[k]``, the engine's (G1, G2, G3, G4) of box ``(k, 0)`` as
    :func:`box_components` gives them, is first checked against
    ``g0.box(k)``, the ``G_{k,0}`` of the engine's ``G0``: concatenated
    per residue and sorted, the four must give it.  A duplicate breaks
    that equality, so it also proves the components pairwise disjoint.
    Then ``per_box[k]``, the family's (Gamma_{k,0}, G1, G3), the
    components by column, is compared with the engine's row, G1 and G3;
    a box missing from ``per_box`` is empty, and so is every engine box
    outside ``range(kmax)``, so a family box there with a point fails.  A
    family is diagonal, so its G2 and G4 are the diagonal law's, empty and
    :func:`reflect` of G3: once G3 matches, they equal the engine's
    exactly when :func:`check_reflection` passes on the engine's
    components.  A disagreement raises GenericMismatchError naming the box
    and the first differing residue or set.
    """
    for k in sorted(per_box.keys() | range(boxed.kmax)):
        parts = generic[k] if k in range(boxed.kmax) else ({},) * 4
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
                    f"k={k}: G1..G4 merged at residue {r} hold "
                    f"{len(got)} points, box_columns {len(want)}")
        row, g1, g3 = per_box.get(k, ((), {}, {}))
        engine = boxed.row(k)
        if tuple(row) != engine:
            raise GenericMismatchError(
                f"k={k}: explicit Gamma_k0 has {len(row)} points, "
                f"engine has {len(engine)}")
        for name, mine, engine in (("G1", g1, parts[0]), ("G3", g3, parts[2])):
            if not _same_columns(mine, engine):
                raise GenericMismatchError(
                    f"k={k}: explicit {name} has {_size(mine)} "
                    f"points, engine has {_size(engine)}")
