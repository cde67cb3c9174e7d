"""Box decomposition of a generating set and assembly of the pure gap set.

The plane is tiled with period-sized boxes.  Only the row-zero boxes
``rows[k]`` (points whose second coordinate is below the period) are
stored: box ``(i, j)`` is the translate of ``rows[i+j]`` by
``w_j = (-j*period, j*period)``.  The pure gaps of box ``(k, 0)`` split
into four components, each defined by glb formulas, and the full pure
gap set is the disjoint union of the translates ``(G_{k,0} + w_j)`` over
``0 <= j <= k``.

Inside a box each component is a set of columns, ``{a - k*period: mask}``,
and so is ``G_{k,0}``: a column is an int with bit ``b`` set for each
second coordinate ``b`` at ``a``, with no tuple and no pointer per point.
Box containment reduces each component's glb formula to a column form,
proven in its docstring: :func:`compute_g1` is a Cartesian product, one
mask in every column, and :func:`compute_g3` takes each column as a prefix
of one mask.  One walk down the residues of the box, :func:`_walk`, builds
the rest from one mask as runs, residues that share one column, by mask
arithmetic: a prefix at each row-k point, and the mask itself at the first
coordinates shifted down from higher rows between two row points.  From an
empty mask its prefixes are G2 and its shared masks G4; from the second
coordinates above the row its runs are ``G_{k,0}``'s, as :func:`_box`
builds them.  What the walk reads, the residues and second coordinates of
the points above the row, is kept as two masks by one sweep down the rows,
:func:`_sweep`, which passes each row once and is the only source of a
box's state: :func:`assemble_pure_gaps`, :func:`components_by_box` and
:func:`check_reflection` build every box in that sweep.  Points are named,
as lists, only where they are written or a mismatch is reported, by
:func:`~puregaps.lattice.set_bits`.

Box containment fixes the order of the union.  Every point of ``G_{k,0}``
lies strictly inside box ``(k, 0)``: ``k*period < a < (k+1)*period`` and
``0 < b < period``.  Its translate by ``w_j`` therefore lies inside box
``(k-j, j)``, so the translates are pairwise disjoint and ``G0`` needs no
other storage than the per-box runs and the period.  That is
:class:`PureGapSet`, built from the per-box runs and the period: it checks
containment when built, in O(1) per run; its length is the weighted sum
``sum (k+1)|G_{k,0}|`` of bit counts; and :meth:`PureGapSet.pieces`, the
one listing, writes it as text in lexicographic order without a sort: box
columns ``i`` ascending; inside a box column, first-coordinate residues
``r`` ascending; for each residue, ``j`` ascending, giving the second
coordinates of ``G_{i+j,0}`` at ``a = (i+j)*period + r`` shifted by
``j*period``.  Nothing else walks the translates.  Two values of one
period compare box by box, expanded to columns, one dict ``==`` of ints
each, and so does one with the direct scan, whose boxes are bands of
several periods (:mod:`~puregaps.oracle`), by
:func:`~puregaps.harness.oracle_mismatch`.

:func:`assemble_pure_gaps` builds the engine's ``G0``, every box by
:func:`_box`, the one route to it.  :func:`check_components` is the only
cross-check of a family's explicit rows and components G1 and G3 against
the engine's formulas, and it first checks the identity that ties those
formulas to ``G0``: per box, the four components are disjoint and their
union per residue is the engine's ``G_{k,0}``, :meth:`PureGapSet.box`.
It takes the engine's components and ``G0`` from the caller, so neither
is built twice, and the family's sets as plain data, box index to
``(Gamma_{k,0}, G1, G3)`` by mask column, as the engine holds them.
:func:`check_reflection` is the only check of the diagonal law that
empties G2 and makes G4 a reflection of G3 (by column, a transpose), so a
family, being diagonal, gives neither; it takes the engine's components
when the caller has built them.

The rows are plain ``(a, b)`` tuples, sorted lexicographically.
Cardinalities and bounds are guarded against the 128-bit range.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat

from .errors import (
    CardinalityMismatchError,
    DiagonalReflectionMismatchError,
    DisjointnessViolationError,
    GenericMismatchError,
    GenusIdentityViolationError,
)
from .lattice import GeneratingSet, set_bits

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


def _sweep(boxed: BoxedGamma):
    """Yield ``(k, (n, F, S))`` for every box ``(k, 0)``, ``k`` from ``kmax
    - 1`` down to 0: one pass down the rows, the only source of a box's
    state.

    ``n`` is the number of points above row k, ``F`` the mask of their
    first coordinates shifted down to residues, ``a - k2*period`` for a
    point of row k2, and ``S`` the mask of their second coordinates.
    """
    period = boxed.period
    above = fmask = seconds = 0
    for k in range(boxed.kmax - 1, -1, -1):
        row = boxed.row(k + 1)
        shift = (k + 1) * period
        above += len(row)
        for a, b in row:
            fmask |= 1 << (a - shift)
            seconds |= 1 << b
        yield k, (above, fmask, seconds)


def _check_g1(k: int, above: int, fmask: int, seconds: int) -> None:
    """G1 of box (k, 0) is the Cartesian product of ``F`` and ``S``, so its
    size must equal the square of the number ``n`` of points above row k:
    else two of them share a residue or a second coordinate, and
    CardinalityMismatchError is raised."""
    distinct = fmask.bit_count() * seconds.bit_count()
    if distinct != above * above:
        raise CardinalityMismatchError(
            f"|G1_({k},0)| = {distinct}, formula gives {above * above}")


def _walk(boxed: BoxedGamma, k: int, fmask: int, passed: int,
          own: bool = True) -> list:
    """The one walk behind G2, G4 and ``G_{k,0}``: the runs ``(R, C)`` of
    box (k, 0), residues ``R`` that all hold column ``C``, in decreasing
    residue, over the mask ``fmask`` and, with ``own``, the row-k points.

    At a row-k point ``(r, b)``, down the row, the residues of ``fmask``
    from ``r`` up take the mask ``passed`` and leave ``fmask``; with
    ``own``, ``r`` takes the prefix ``passed & ((1 << b) - 1)``; then ``b``
    joins ``passed``; the residues left take ``passed`` last.  No run is empty.
    """
    base = k * boxed.period
    runs = []
    for a, b in reversed(boxed.row(k)):
        r = a - base
        if passed and (high := fmask & -(1 << r)):
            runs.append((high, passed))
        fmask &= (1 << r) - 1
        if own and (prefix := passed & ((1 << b) - 1)):
            runs.append((1 << r, prefix))
        passed |= 1 << b
    if passed and fmask:
        runs.append((fmask, passed))
    return runs


def _columns(runs) -> dict:
    """Runs ``(R, C)`` from :func:`_walk` by column, residues ascending.
    Each ``R`` is read from its lowest bit, so a box takes O(period)."""
    columns = {}
    for residues, column in reversed(runs):
        low = (residues & -residues).bit_length() - 1
        columns.update(dict.fromkeys(
            map(low.__add__, set_bits(residues >> low)), column))
    return columns


def compute_g1(boxed: BoxedGamma, k: int, state: tuple) -> dict:
    """First component of box (k, 0), by column.

    glb(u + w_{k2-k}, v) over u in rows[k2], v in rows[k1] with k1, k2 > k.
    The shifted u lies in box (k, 0) and v in a higher row, so the glb is
    (first coordinate of the shifted u, second coordinate of v): the
    component is the Cartesian product of the shifted first coordinates
    and the second coordinates of the points above row k.  So every
    column is the one mask ``S`` of those second coordinates.  The
    cardinality check of :func:`_check_g1` applies.  ``state`` is box k's
    ``(n, F, S)`` from :func:`_sweep`, as in :func:`compute_g3` and
    :func:`compute_g4`.
    """
    _check_g1(k, *state)
    return dict.fromkeys(set_bits(state[1]), state[2])


def compute_g2(boxed: BoxedGamma, k: int) -> dict:
    """Second component: glb over incomparable pairs inside rows[k], by
    column.

    The row is sorted and its first coordinates are distinct, so a point
    ``u`` and a point ``v`` right of it are incomparable exactly when
    ``u_b > v_b``, and their glb is ``(u_a, v_b)``: the column at ``u``
    holds the second coordinates below ``u_b`` of the row points right of
    ``u``.  These are the row runs of :func:`_walk` with no shifted first
    coordinate, started from an empty mask, by column.  Empty whenever the
    diagonal condition holds, since points of one row are then totally
    ordered.
    """
    return _columns(_walk(boxed, k, 0, 0))


def compute_g3(boxed: BoxedGamma, k: int, state: tuple) -> dict:
    """Third component: glb(u, v) for u in rows[k], v in a higher row,
    restricted to pairs with u not below v; by column.

    A point ``v`` of a higher row always lies right of ``u``, so ``u`` is
    not below ``v`` exactly when ``u_b > v_b``, and their glb is ``(u_a,
    v_b)``.  With ``S`` the mask of the second coordinates of the points
    above row k (:func:`_sweep`), the column at a row-k point ``(r, b)``
    is the prefix ``S & ((1 << b) - 1)``.
    """
    seconds = state[2]
    base = k * boxed.period
    return {a - base: prefix for a, b in boxed.row(k)
            if (prefix := seconds & ((1 << b) - 1))}


def compute_g4(boxed: BoxedGamma, k: int, state: tuple) -> dict:
    """Fourth component of box (k, 0): glb(u + w_{k2-k}, v) for u in
    rows[k2] (k2 > k) and v in rows[k], restricted to pairs with v not
    below the shifted u; by column.

    The shifted ``u`` has second coordinate ``u_b + (k2-k)*period``, at
    least ``period + 1`` and so above every second coordinate of row k:
    ``v`` is not below it exactly when ``v_a`` exceeds its first
    coordinate, and their glb is that first coordinate with ``v_b``.  With
    ``F`` the first coordinates of the points above row k shifted down to
    residues in box (k, 0) (:func:`_sweep`), the column at ``f`` in ``F``
    holds the second coordinates of the row-k points of residue strictly
    above ``f``.  These are the runs of :func:`_walk` over ``F``, started
    from an empty mask, by column: the residues of ``F`` with no row-k
    point between them are one run.
    """
    return _columns(_walk(boxed, k, state[1], 0, own=False))


def reflect(columns: dict) -> dict:
    """The coordinate swap of a set of box (k, 0) translated by -w_k, by
    column.

    The swap and the translation send ``(k*period + r, b)`` to
    ``(k*period + b, r)``, so by column the map is the transpose: column
    ``b`` of the result has bit ``r`` set for each residue ``r`` whose
    column holds ``b``.  The residues that share a column are gathered
    first, so each distinct column is listed once: the work is its bits
    times the number of distinct columns, not the set's size.
    """
    shared = {}
    for r, mask in columns.items():
        shared[mask] = shared.get(mask, 0) | 1 << r
    out = {}
    for mask, residues in shared.items():
        for b in set_bits(mask):
            out[b] = out.get(b, 0) | residues
    return {b: out[b] for b in sorted(out)}


def _size(columns: dict) -> int:
    """The number of points of a set given by mask column."""
    return sum(map(int.bit_count, columns.values()))


def check_reflection(boxed: BoxedGamma, generic=None) -> None:
    """Check the diagonal law box by box: on a set whose every point has
    ``a == b (mod period)``, G2 is empty and G4 is :func:`reflect` of G3.
    ``generic`` maps each box index to its (G1, G2, G3, G4), as
    :func:`components_by_box` gives them, when the caller holds them; else
    each box's G2, G3 and G4, all the law reads, are built in turn, in one
    :func:`_sweep`.  Reflection is an involution on canonical columns, so
    the second half is checked as ``reflect(G4) == G3``: G4's columns are
    the shared masks of :func:`_walk`, at most one more distinct column
    than the row has points, so the transpose is O(row²) bit work, not
    O(|G3| * period).  Raises DiagonalReflectionMismatchError when the set
    is not diagonal, or naming the first box, in that order, and half of
    the law that fail."""
    if not boxed.diagonal:
        raise DiagonalReflectionMismatchError("the set is not diagonal")
    boxes = generic.items() if generic is not None else (
        (k, (None, compute_g2(boxed, k), compute_g3(boxed, k, state),
             compute_g4(boxed, k, state))) for k, state in _sweep(boxed))
    for k, (_, g2, g3, g4) in boxes:
        if g2:
            raise DiagonalReflectionMismatchError(f"box k={k}: G2 is not empty")
        if reflect(g4) != g3:
            raise DiagonalReflectionMismatchError(
                f"box k={k}: G4 has {_size(g4)} points and differs from the "
                f"reflected G3, which has {_size(g3)}")


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


def components_by_box(boxed: BoxedGamma):
    """Yield ``(k, (G1, G2, G3, G4))`` for every box ``(k, 0)``, ``k`` from
    ``kmax - 1`` down to 0, in one :func:`_sweep`: the four components,
    each by column, ``{a - k*period: mask of the second coordinates at
    a}``, residues ascending, no empty column."""
    for k, state in _sweep(boxed):
        yield k, (compute_g1(boxed, k, state), compute_g2(boxed, k),
                  compute_g3(boxed, k, state), compute_g4(boxed, k, state))


def _box(boxed: BoxedGamma, k: int, state: tuple) -> list:
    """``G_{k,0}`` by runs, ``(R, C)``: residues ``R``, ``a - k*period``,
    that all hold the mask ``C`` of second coordinates of ``G_{k,0}``, no
    empty run; ``state`` is box k's ``(n, F, S)`` from :func:`_sweep`.

    The column forms proven in :func:`compute_g1` .. :func:`compute_g4`
    give two kinds of column: at ``f`` in ``F``, G1's, all of ``S``,
    joined by G4's; at a row-k point, G3's prefix of ``S`` joined by G2's.
    Both are the runs of :func:`_walk` over ``F`` started from ``S``: no
    set, no sort and no tuple per point or per residue.  ``F`` and ``S``
    may not repeat a value (the G1 cardinality check), and ``F`` may not
    meet the row-k residues, where the two kinds of column would overlap
    (DisjointnessViolationError).
    """
    _check_g1(k, *state)
    _, fmask, seconds = state
    base = k * boxed.period
    own = 0
    for a, _ in boxed.row(k):
        own |= 1 << (a - base)
    if own & fmask:
        raise DisjointnessViolationError(
            f"box k={k}: a first coordinate shifted down from a higher row "
            f"is a first coordinate of row {k}")
    return _walk(boxed, k, fmask, seconds)


class PureGapSet:
    """The pure gap set ``G0``, held as its per-box sets plus the period.

    ``G0`` is the disjoint union of the translates ``G_{k,0} + w_j``,
    ``0 <= j <= k``, so the per-box sets and the period are all of it.  The
    sets are kept by run, ``k -> [(R, C)]`` as :func:`_box` builds them,
    empty runs and boxes dropped.  Building the value checks, in O(1) per
    run, that no bit of ``R`` or ``C`` is at 0 or at ``period`` and above,
    so the translates are disjoint, and that no two runs of a box share a
    residue; it raises DisjointnessViolationError otherwise.

    * ``len`` is the weighted sum ``sum (k+1)|R||C|`` of bit counts.
    * :meth:`box` gives one per-box set by column, :meth:`boxes` every
      non-empty one, expanded from the runs.  Two values of one period
      are equal exactly when their per-box sets are: containment gives
      ``G_{k,0} = (G0 & box(k-j, j)) - w_j``.
    * :meth:`pieces` lists ``G0`` as TSV or JSON text in lexicographic
      order.
    """

    __slots__ = ("period", "_runs", "_size")

    def __init__(self, runs_by_box: dict, period: int):
        inside = (1 << period) - 2
        runs = {}
        size = 0
        for k, box in runs_by_box.items():
            kept = []
            held = 0
            for residues, mask in box:
                if not residues or not mask:
                    continue
                outside = residues & ~inside or mask & ~inside and residues
                if bad := outside or held & residues:
                    a = k * period + (bad & -bad).bit_length() - 1
                    raise DisjointnessViolationError(
                        f"column a={a} of G_({k},0) " + (
                            f"leaves box ({k}, 0)" if outside
                            else "is in two runs"))
                held |= residues
                kept.append((residues, mask))
                size += (k + 1) * residues.bit_count() * mask.bit_count()
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
        """``G_{k,0}`` by mask column, a fresh dict; ``{}`` if empty."""
        return _columns(self._runs.get(k, ()))

    def boxes(self):
        """The non-empty per-box sets, ``(k, columns)`` pairs as
        :meth:`box` gives them, each expanded when reached."""
        return ((k, _columns(runs)) for k, runs in self._runs.items())

    def pieces(self, fmt: str = "tsv"):
        """Yield ``G0`` as text in lexicographic order, in pieces of about
        ``_CHUNK_POINTS`` points: one line ``a<TAB>b`` per point for
        ``"tsv"``, one JSON array of pairs and a newline for ``"json"``.

        The text is rendered from templates one box column ``i`` at a time,
        in the order the module docstring gives.  Each run's mask is listed
        once, by :func:`~puregaps.lattice.set_bits`, and dropped after its
        last use, at ``j = 0``.  For each translate ``j``, each listed mask
        of box ``i + j`` is rendered once, one cell ``"\\x00" + str(b +
        j*period) + closer`` per point.  A first coordinate's block is its
        templates across ``j`` joined, with the marker replaced by the
        point's opening text ``a<TAB>`` or ``,[a,``: no Python work per
        point.  Memory is bounded by the per-box sets, not by ``|G0|``.
        After the text, the markers rendered must number ``len(self)``, or
        CardinalityMismatchError is raised.
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
        # List each run's mask once, and map each residue to its run.
        listed = {k: ([set_bits(mask) for _, mask in box],
                      _columns([(rs, n) for n, (rs, _) in enumerate(box)]))
                  for k, box in runs.items()}
        chunk = []
        pending = written = 0
        # Every JSON point opens with its separator: drop the first one.
        head = 1 if fmt == "json" else 0
        for i in range(top + 1):
            base = i * period
            translates = [(j * period, i + j)
                          for j in range(top + 1 - i) if i + j in runs]
            residues = sorted(set().union(*(listed[k][1]
                                            for _, k in translates)))
            blocks = []
            for shift, k in translates:
                points, slot = listed[k]
                cell = cells[shift].__getitem__
                templates = ["".join(map(cell, bs)) for bs in points]
                templates.append("")  # index -1: a residue the box lacks
                blocks.append(map(templates.__getitem__,
                                  map(slot.get, residues, repeat(-1))))
            listed.pop(i, None)
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


def assemble_pure_gaps(boxed: BoxedGamma) -> PureGapSet:
    """The full pure gap set ``G0`` from the row-zero boxes, every box
    ``(k, 0)`` built by :func:`_box`, in one :func:`_sweep` down from the
    top box.  Its bounds are :func:`bounds` of the same boxes."""
    return PureGapSet({k: _box(boxed, k, state)
                       for k, state in _sweep(boxed)}, boxed.period)


def check_components(boxed: BoxedGamma, generic: dict, g0: PureGapSet,
                     per_box: dict) -> None:
    """Compare a family's explicit sets with the engine, box by box.

    ``generic[k]``, the engine's (G1, G2, G3, G4) of box ``(k, 0)`` as
    :func:`components_by_box` gives them, is first checked against
    ``g0.box(k)``, the ``G_{k,0}`` of the engine's ``G0``: per residue,
    the four masks must be disjoint and OR to it, which also proves the
    components pairwise disjoint.  Then ``per_box[k]``, the family's
    (Gamma_{k,0}, G1, G3), the components by mask column with no empty
    column, is compared with the engine's row, G1 and G3, one dict ``==``
    each.  A box missing from ``per_box`` is empty, and so is every engine
    box outside ``range(kmax)``, so a family box there with a point
    fails.  A family is diagonal, so its G2 and G4 are the diagonal law's,
    empty and :func:`reflect` of G3: once G3 matches, they equal the
    engine's exactly when :func:`check_reflection` passes on the engine's
    components.  A disagreement raises GenericMismatchError naming the box
    and the first differing residue or set.
    """
    for k in sorted(per_box.keys() | range(boxed.kmax)):
        parts = generic[k] if k in range(boxed.kmax) else ({},) * 4
        merged = {}
        overlap = False
        for part in parts:
            for r, mask in part.items():
                held = merged.get(r, 0)
                overlap = overlap or held & mask
                merged[r] = held | mask
        columns = g0.box(k)
        if overlap or merged != columns:
            for r in sorted(merged.keys() | columns.keys()):
                got = sum(part.get(r, 0).bit_count() for part in parts)
                want = columns.get(r, 0)
                if merged.get(r, 0) != want or got != want.bit_count():
                    raise GenericMismatchError(
                        f"k={k}: G1..G4 merged at residue {r} hold "
                        f"{got} points, G0 box {want.bit_count()}")
        row, g1, g3 = per_box.get(k, ((), {}, {}))
        engine = boxed.row(k)
        if tuple(row) != engine:
            raise GenericMismatchError(
                f"k={k}: explicit Gamma_k0 has {len(row)} points, "
                f"engine has {len(engine)}")
        for name, mine, engine in (("G1", g1, parts[0]), ("G3", g3, parts[2])):
            if mine != engine:
                raise GenericMismatchError(
                    f"k={k}: explicit {name} has {_size(mine)} points, "
                    f"engine has {_size(engine)}")
