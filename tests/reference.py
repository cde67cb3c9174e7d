"""Brute-force references and small lattice helpers used only by tests.

Nothing here is part of the package: these are the slow, obvious forms
that the package's faster code is checked against.
"""

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

from puregaps.engine import (
    BoxedGamma,
    PureGapSet,
    assemble_pure_gaps,
    components_by_box,
    reflect,
)
from puregaps.errors import (
    CardinalityMismatchError,
    CoordinateDivisibleByPeriodError,
    DisjointnessViolationError,
    DuplicateFirstCoordinateError,
    DuplicateSecondCoordinateError,
    GammaFileError,
    GapBeyondGenusBoundError,
    InvalidParamsError,
    PeriodPropertyViolationError,
    ResidueChainStartError,
    ValidationError,
    ZeroOrNegativeCoordinateError,
)
from puregaps.lattice import (
    COORD_MAX,
    GeneratingSet,
    period_law_violations,
    set_bits,
)


class LatticePoint(namedtuple("LatticePoint", ("a", "b"))):
    """A point ``(a, b)`` in N0 x N0.

    Compares, hashes and sorts exactly like the plain tuple ``(a, b)``, so
    results may freely mix both representations.  Construction rejects
    negative coordinates and coordinates beyond the 64-bit signed range.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "LatticePoint":
        if a < 0 or b < 0:
            raise ValueError(f"negative coordinate in ({a}, {b})")
        if a > COORD_MAX or b > COORD_MAX:
            raise OverflowError(
                f"coordinate outside 64-bit signed range in ({a}, {b})")
        return tuple.__new__(cls, (a, b))


class RawSet(namedtuple("RawSet", ("points", "period"))):
    """Points and a period, unvalidated: the input of the direct scan's
    tests on arbitrary injective sets, which a GeneratingSet, held by its
    chain starts, cannot hold.  The scan reads a set only by
    ``.descending()`` and ``.period``, so it runs on this as on a
    GeneratingSet; here the walk is the points sorted in reverse."""

    __slots__ = ()

    def descending(self):
        return sorted(self.points, reverse=True)


def mask(bs) -> int:
    """The mask of a column given as a sequence: bit ``b`` set for each
    ``b``."""
    out = 0
    for b in bs:
        out |= 1 << b
    return out


def masks(columns) -> dict:
    """A set written by column as sequences, ``{r: second coordinates}``,
    as the package holds one, by mask column."""
    return {r: mask(bs) for r, bs in columns.items()}


def flatten(columns, base=0) -> list:
    """The points ``(base + r, b)`` of a set given by mask column, ``{r:
    mask}``, in column order: sorted when the columns are."""
    return [(base + r, b) for r in sorted(columns)
            for b in set_bits(columns[r])]


def without_first(column: int) -> int:
    """A mask column without its least second coordinate."""
    return column & (column - 1)


def drop_first_point(columns) -> dict:
    """A set given by mask column without its first point."""
    out = dict(sorted(columns.items()))
    first = min(out)
    out[first] = without_first(out[first])
    if not out[first]:
        del out[first]
    return out


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


@dataclass(frozen=True)
class PeriodPropertyReport:
    """Outcome of re-checking the period displacement law."""

    period: int
    points_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_period_property(points, period: int | None = None) -> PeriodPropertyReport:
    """Re-verify the period displacement law, collecting all violations:
    the reference for tampered data, which validation would reject at the
    first violation.

    Accepts a validated GeneratingSet or a bare iterable of (beta, tau)
    pairs plus the period.  A duplicate first coordinate among raw pairs
    is reported, and the larger image kept.  The law is checked by
    :func:`puregaps.lattice.period_law_violations` in its chain form (the
    successor rule plus one run per residue class), which is equivalent to
    both directions of the equivalence (beta + k*period is a first
    coordinate iff k*period < tau(beta)) and the displacement equation,
    for every shift count k.
    """
    if isinstance(points, GeneratingSet):
        period = points.period
        pairs = list(points.points)
    else:
        if period is None:
            raise InvalidParamsError("period is required with raw point data")
        pairs = sorted(tuple(p) for p in points)
    if period < 1:
        raise InvalidParamsError(f"period must be positive, got {period}")

    violations = []
    tau = {}
    for a, b in pairs:
        if a in tau:
            violations.append(f"duplicate first coordinate {a}")
        tau[a] = b

    violations.extend(message for _, _, message in period_law_violations(
        period, sorted(tau.items())))
    return PeriodPropertyReport(period=period, points_checked=len(pairs),
                                violations=tuple(violations))


def merge_components(per_box: dict, period: int) -> PureGapSet:
    """G0 from components, ``per_box`` mapping each box index k to the
    components of box (k, 0) by mask column, as :func:`components_by_box`
    or :func:`diagonal_parts` give them.  Each column of ``G_{k,0}`` is the
    union of the components' columns at its residue.  The components must
    be pairwise disjoint, so a second coordinate two of them hold raises
    DisjointnessViolationError; so does a column outside its box, by
    :class:`PureGapSet`."""
    columns_by_box = {}
    for k, parts in per_box.items():
        columns = columns_by_box[k] = {}
        for part in parts:
            for r, bits in part.items():
                held = columns.get(r, 0)
                if held & bits:
                    raise DisjointnessViolationError(
                        f"components of box k={k} overlap at residue {r}")
                columns[r] = held | bits
    return PureGapSet(column_runs(columns_by_box), period)


def column_runs(columns_by_box: dict) -> dict:
    """Per-box sets given by mask column, ``{k: {r: mask}}``, as the runs
    a :class:`PureGapSet` is built from: one run ``(1 << r, mask)`` per
    column."""
    return {k: [(1 << r, mask) for r, mask in columns.items()]
            for k, columns in columns_by_box.items()}


def diagonal_parts(per_box: dict) -> dict:
    """A family's sets, box index k -> its (Gamma_{k,0}, G1, G3) by mask
    column, completed by the diagonal law to the parts of ``G_{k,0}``: G1,
    G3 and the reflected G3 (G2 is empty)."""
    return {k: (g1, g3, reflect(g3)) for k, (_, g1, g3) in per_box.items()}


def short_of_first_point(scan, period: int) -> list:
    """The direct scan's box columns, ``(i, {j: {r: mask}})`` as
    :func:`puregaps.oracle.pure_gap_boxes_direct` yields them, without the
    lexicographically first point: the least first coordinate, then the
    lowest band ``j`` of its column, then that mask's lowest bit, for
    bands of any height.  The scan's boxes are copied where the point is
    dropped."""
    rows = [(i, dict(row)) for i, row in scan]
    first = min(((i * period + r, j, n, r) for n, (i, row) in enumerate(rows)
                 for j, columns in row.items() for r in columns), default=None)
    if first is not None:
        _, j, n, r = first
        row = rows[n][1]
        columns = dict(row[j])
        columns[r] = without_first(columns[r])
        if not columns[r]:
            del columns[r]
        if columns:
            row[j] = columns
        else:
            del row[j]
    return rows


def pure_gap_boxes_by_period(gamma: GeneratingSet):
    """The direct scan with one-period bands, the reference for the
    package's wider bands: box columns ``(i, {j: {r: mask}})``, ``i``
    decreasing, each box ``(i, j)`` one period wide in both coordinates,
    holding the glbs ``(i*period + r, j*period + v)`` for each bit ``v`` of
    the mask.  The passed second coordinates are kept in bands ``b //
    period``; each point gives every lower non-empty band whole and its
    own band's prefix below it."""
    period = gamma.period
    order, bands, boxes = [], [], []
    row_i = None

    def filled():
        return {j: box for j, box in zip(order, boxes) if box}

    for a, b in sorted(gamma.points, reverse=True):
        i, r = divmod(a, period)
        j0, v0 = divmod(b, period)
        if i != row_i:
            if row := filled():
                yield row_i, row
            row_i = i
            boxes = [{} for _ in order]
        n0 = bisect_left(order, j0)
        for column, band in zip(islice(boxes, n0), bands):
            column[r] = band
        bit = 1 << v0
        if n0 < len(order) and order[n0] == j0:
            band = bands[n0]
            if prefix := band & (bit - 1):
                boxes[n0][r] = prefix
            bands[n0] = band | bit
        else:
            order.insert(n0, j0)
            bands.insert(n0, bit)
            boxes.insert(n0, {})
    if row := filled():
        yield row_i, row


def by_period(scan, period: int, span: int) -> list:
    """Box columns with boxes ``span`` periods high, ``(i, {j: {r:
    mask}})``, split into one-period boxes as
    :func:`pure_gap_boxes_by_period` yields them."""
    rows = []
    low = (1 << period) - 1
    for i, row in scan:
        split = {}
        for j, columns in row.items():
            for r, mask in columns.items():
                for t in range(span):
                    if part := mask >> t * period & low:
                        split.setdefault(j * span + t, {})[r] = part
        rows.append((i, split))
    return rows


def oracle_mismatch_by_period(g0, scan, kmax) -> str:
    """The engine-versus-scan comparison on one-period scan boxes, the
    reference for the package's banded one: boxes ``(i, j)``, from
    :func:`pure_gap_boxes_by_period`, each against ``g0.box(i + j)``, then
    every engine box ``k < kmax`` the scan never gave must be empty.  The
    failure text names both sizes and the first five points of each
    difference; an engine box at or above ``kmax`` goes unseen."""
    period = g0.period
    box = g0.box
    visited = {}
    excess = 0
    extra, missing = [], []

    def size(columns):
        return sum(map(int.bit_count, columns.values()))

    def diff(i, j, got, want):
        base, shift = i * period, j * period
        for r in got.keys() | want.keys():
            bs, vs = got.get(r, 0), want.get(r, 0)
            extra.extend((base + r, shift + b)
                         for b in set_bits(bs & ~vs)[:5])
            missing.extend((base + r, shift + v)
                           for v in set_bits(vs & ~bs)[:5])

    for i, row in scan:
        visited[i] = set(row)
        for j, want in row.items():
            got = box(i + j)
            if got != want:
                excess += size(want) - size(got)
                diff(i, j, got, want)
    for k in range(kmax):
        got = box(k)
        if got:
            for j in range(k + 1):
                if j not in visited.get(k - j, ()):
                    diff(k - j, j, got, {})
    if not (extra or missing):
        return ""
    total = excess + sum(size(box(i + j))
                         for i, js in visited.items() for j in js)
    return (f"G0: {len(g0)} vs {total} points; "
            f"unexpected {sorted(extra)[:5]}, missing {sorted(missing)[:5]}")


def g0_points(g0) -> list:
    """The points of a :class:`PureGapSet`, ``(a, b)`` tuples in
    lexicographic order, parsed from its TSV listing
    :meth:`PureGapSet.pieces`."""
    numbers = map(int, "".join(g0.pieces()).split())
    return list(zip(numbers, numbers))


def g0_boxes(g0) -> dict:
    """The per-box sets of a :class:`PureGapSet`, ``{k: g0.box(k)}`` over
    its nonempty boxes, read once by :meth:`PureGapSet.boxes`.  Two values
    of one period are the same set exactly when these are equal."""
    return dict(g0.boxes())


def engine_side(boxed) -> dict:
    """The engine's inputs to :func:`check_components`, by keyword: its
    four components per box as ``generic`` and its ``G0`` as ``g0``."""
    return {"generic": dict(components_by_box(boxed)),
            "g0": assemble_pure_gaps(boxed)}


def merge_box(k: int, components) -> list:
    """G_{k,0}: the sorted union of the four components of box (k, 0), by a
    set and a sort.  The components are pairwise disjoint; an overlap
    raises."""
    merged = set()
    for part in components:
        merged.update(part)
    if len(merged) != sum(len(part) for part in components):
        raise DisjointnessViolationError(
            f"components of box k={k} are not pairwise disjoint")
    return sorted(merged)


def _residue_runs(per_box_union: dict, period: int) -> dict:
    """k -> {a - k*period: mask of the second coordinates of G_{k,0} at a},
    from the sorted per-box point lists, point by point.

    Empty boxes are dropped.  Raises DisjointnessViolationError when a
    point lies outside its box (k, 0) or a per-box set is not strictly
    increasing.
    """
    runs = {}
    for k, box in per_box_union.items():
        lo = k * period
        hi = lo + period
        by_residue = {}
        prev = None
        for point in box:
            a, b = point
            if not (lo < a < hi and 0 < b < period):
                raise DisjointnessViolationError(
                    f"{point} of G_({k},0) lies outside box ({k}, 0)")
            if prev is not None and point <= prev:
                raise DisjointnessViolationError(
                    f"G_({k},0) is not strictly increasing at {point}")
            by_residue[a - lo] = by_residue.get(a - lo, 0) | 1 << b
            prev = point
        if by_residue:
            runs[k] = by_residue
    return runs


def decompose_by_scan(gamma) -> BoxedGamma:
    """``engine.decompose`` by a scan of every point: the row points are
    the points with ``b < period``, collected into row ``a // period`` and
    sorted; the genus is the number of points."""
    period = gamma.period
    points = gamma.points
    rows = {}
    for a, b in points:
        if b < period:
            rows.setdefault(a // period, []).append((a, b))
    frozen = {k: tuple(sorted(v)) for k, v in sorted(rows.items())}
    diagonal = all(a - k * period == b
                   for k, row in frozen.items() for a, b in row)
    return BoxedGamma(rows=frozen, period=period, genus=len(points),
                      kmax=max(0, -(-(2 * len(points) - 1) // period)),
                      diagonal=diagonal)


def validate_per_point(points, period) -> GeneratingSet:
    """The point-by-point validator: every invariant of
    ``lattice.validate_generating_set`` checked by walking the points, one
    ``LatticePoint`` each, raising the same error class and message, and
    returning the same set, held by its chain starts."""
    if period < 1:
        raise InvalidParamsError(f"period must be a positive integer, got {period}")

    pts = []
    for p in points:
        a, b = p
        if a <= 0 or b <= 0:
            raise ZeroOrNegativeCoordinateError(
                f"({a}, {b}): generating set coordinates must be positive")
        if a % period == 0 or b % period == 0:
            raise CoordinateDivisibleByPeriodError(
                f"({a}, {b}): coordinate divisible by period {period}")
        pts.append(LatticePoint(a, b))
    pts.sort()

    tau = {}
    seen_b = {}
    for a, b in pts:
        if a in tau:
            raise DuplicateFirstCoordinateError(
                f"first coordinate {a} appears twice")
        if b in seen_b:
            raise DuplicateSecondCoordinateError(
                f"second coordinate {b} appears twice")
        tau[a] = b
        seen_b[b] = a

    for beta, k, message in period_law_violations(period,
                                                  sorted(tau.items())):
        raise PeriodPropertyViolationError(message, beta=beta, k=k)
    top = 2 * len(pts) - 1
    for a, b in pts:
        if a > top or b > top:
            raise GapBeyondGenusBoundError(
                f"({a}, {b}): coordinate exceeds 2g-1 = {top} for "
                f"genus {len(pts)}")
    for a in tau:
        if a > period and a - period not in tau:
            raise ResidueChainStartError(
                f"({a}, {tau[a]}): the first coordinates are not the gaps of a "
                f"semigroup containing the period {period}: {a} is one and "
                f"{a - period} is not", beta=a)

    return GeneratingSet(starts=tuple((a, b) for a, b in pts if a < period),
                         period=period)


def parse_gamma_lines(text: str, source: str = "<string>") -> GeneratingSet:
    """The line scanner: parse a ``.gamma`` text one line at a time, with
    duplicate coordinates caught as they are read, then validate with
    :func:`validate_per_point`; every error names its line."""
    period = None
    pairs = []
    first_line = {}
    second_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if period is None:
            fields = line.split()
            if len(fields) != 2 or fields[0] != "period":
                raise GammaFileError(
                    f"{source}: line {lineno}: expected 'period <int>' header, "
                    f"got {line!r}")
            try:
                period = int(fields[1])
            except ValueError:
                raise GammaFileError(
                    f"{source}: line {lineno}: period {fields[1]!r} is not an "
                    "integer") from None
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            fields = line.split()
        if len(fields) != 2:
            raise GammaFileError(
                f"{source}: line {lineno}: expected '<beta><TAB><tau>', got "
                f"{line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GammaFileError(
                f"{source}: line {lineno}: non-integer coordinate in {line!r}"
            ) from None
        if a in first_line:
            raise GammaFileError(
                f"{source}: DuplicateFirstCoordinate at line {lineno}: {a} "
                f"first seen at line {first_line[a]}")
        if b in second_line:
            raise GammaFileError(
                f"{source}: DuplicateSecondCoordinate at line {lineno}: {b} "
                f"first seen at line {second_line[b]}")
        first_line[a] = lineno
        second_line[b] = lineno
        pairs.append((a, b))

    if period is None:
        raise GammaFileError(f"{source}: missing 'period <int>' header")
    try:
        return validate_per_point(pairs, period)
    except ValidationError as exc:
        beta = getattr(exc, "beta", None)
        where = f" (point at line {first_line[beta]})" if beta in first_line else ""
        raise GammaFileError(
            f"{source}: {type(exc).__name__}: {exc}{where}") from exc


# The per-box components as sorted point lists: the engine's glb
# definitions and the families' index sets, one tuple per point.

def compute_g1_points(boxed, k: int) -> list:
    """G1 of box (k, 0): the Cartesian product of the shifted first
    coordinates and the second coordinates above row k, whose size must
    be the square of the number of those points."""
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
    return sorted((a, b) for a in firsts for b in seconds)


def compute_g2_points(boxed, k: int) -> list:
    """G2 of box (k, 0): glb over incomparable pairs inside rows[k]."""
    row = boxed.row(k)
    return sorted({tuple(glb(u, v)) for i, u in enumerate(row)
                   for v in row[i + 1:] if incomparable(u, v)})


def compute_g3_points(boxed, k: int) -> list:
    """G3 of box (k, 0): glb(u, v) for u in rows[k], v in a higher row,
    u not below v."""
    return sorted({tuple(glb(u, v)) for k1 in range(k + 1, boxed.kmax)
                   for v in boxed.row(k1) for u in boxed.row(k)
                   if u[0] > v[0] or u[1] > v[1]})


def compute_g4_points(boxed, k: int) -> list:
    """G4 of box (k, 0): glb(u + w_{k2-k}, v) for u in rows[k2], k2 > k,
    and v in rows[k], v not below the shifted u."""
    period = boxed.period
    out = set()
    for k2 in range(k + 1, boxed.kmax):
        shift = (k2 - k) * period
        for ua, ub in boxed.row(k2):
            u = (ua - shift, ub + shift)
            for v in boxed.row(k):
                if v[0] > u[0] or v[1] > u[1]:
                    out.add(tuple(glb(u, v)))
    return sorted(out)


def reflect_points(points, shift: int) -> list:
    """The coordinate swap of ``points`` translated by ``(shift, -shift)``,
    sorted."""
    return sorted((b + shift, a - shift) for a, b in points)


def gk_g1_points(q: int, k: int) -> list:
    """GK G1 of box (k, 0) from the double index set."""
    period = q**3 + 1
    c = q * q - q + 1
    avals = []
    bvals = []
    for ks in range(k + 1, q * q - 1):
        for i in range(max(0, ks - q * q + q + 2), min(q, ks + 2) + 1):
            base = (q + 1 - i) * c - (ks - i + 2)
            avals.append(k * period + base)
            bvals.append(base)
    return sorted({(a, b) for a in avals for b in bvals})


def gk_g3_points(q: int, k: int) -> list:
    """GK G3 of box (k, 0) from the index set with the i2 <= i1 cut."""
    period = q**3 + 1
    c = q * q - q + 1
    out = set()
    for i2 in range(max(0, k - q * q + q + 2), min(q, k + 2) + 1):
        a = k * period + (q + 1 - i2) * c - (k - i2 + 2)
        for k1 in range(k + 1, q * q - 1):
            for i1 in range(max(0, k1 - q * q + q + 2), min(q, k1 + 2) + 1):
                if i1 >= i2:
                    out.add((a, (q + 1 - i1) * c - (k1 - i1 + 2)))
    return sorted(out)


def gk_g4_points(q: int, k: int) -> list:
    """GK G4: the reflected G3."""
    return reflect_points(gk_g3_points(q, k), k * (q**3 + 1))


def kummer_g1_points(m: int, r: int, k: int) -> list:
    """Kummer G1: the square of side m - 1 - floor(m(k+2)/r) at
    (m*k + 1, 1)."""
    hi = m - 1 - (m * (k + 2)) // r
    return sorted((m * k + j2, j1)
                  for j2 in range(1, hi + 1) for j1 in range(1, hi + 1))


def kummer_g3_points(m: int, r: int, k: int) -> list:
    """Kummer G3: (m*k + j, j1) over the row's own j-range and
    1 <= j1 <= m - 1 - floor(m(k+2)/r)."""
    jlo = m - (m * (k + 2)) // r
    jhi = m - 1 - (m * (k + 1)) // r
    j1hi = m - 1 - (m * (k + 2)) // r
    return sorted((m * k + j, j1)
                  for j in range(jlo, jhi + 1) for j1 in range(1, j1hi + 1))


def kummer_g4_points(m: int, r: int, k: int) -> list:
    """Kummer G4: the reflected G3."""
    return reflect_points(kummer_g3_points(m, r, k), k * m)
