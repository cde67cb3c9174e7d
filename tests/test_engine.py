import copy
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puregaps.engine as engine
import puregaps.harness as harness
from puregaps.engine import (
    BoxedGamma,
    PureGapSet,
    assemble_pure_gaps,
    bounds,
    bounds_from_row_sizes,
    box_columns,
    box_components,
    check_reflection,
    compute_g1,
    compute_g2,
    compute_g3,
    compute_g4,
    decompose,
)
from puregaps.errors import (
    CardinalityMismatchError,
    DiagonalReflectionMismatchError,
    DisjointnessViolationError,
    GenericMismatchError,
    GenusIdentityViolationError,
)
from puregaps.gk import gk_generating_set
from puregaps.kummer import kummer_generating_set
from puregaps.lattice import GeneratingSet, LatticePoint, validate_generating_set
from puregaps.oracle import pure_gap_boxes_direct

import expected_gk2 as gk2
import reference
from reference import (
    _residue_runs,
    drop_first_point,
    flatten,
    merge_box,
    merge_components,
)

KUMMER43 = [(1, 5), (5, 1), (2, 2)]


@pytest.fixture(scope="module")
def gk2_boxed():
    return decompose(validate_generating_set(gk2.GAMMA, 9))


@pytest.fixture(scope="module")
def kummer43_boxed():
    return decompose(validate_generating_set(KUMMER43, 4))


def box(boxed, i, j):
    """Box (i, j) of the generating set: rows[i+j] translated by w_j."""
    shift = j * boxed.period
    return [(a - shift, b + shift) for a, b in boxed.row(i + j)]


class TestDecompose:
    def test_gk2_rows(self, gk2_boxed):
        assert {k: list(v) for k, v in gk2_boxed.rows.items()} == gk2.ROWS
        assert gk2_boxed.kmax == 3
        assert gk2_boxed.genus == 10
        assert gk2_boxed.diagonal
        assert gk2_boxed.row_sizes() == [3, 2, 1]

    def test_kummer43_rows(self, kummer43_boxed):
        assert {k: list(v) for k, v in kummer43_boxed.rows.items()} == \
            {0: [(2, 2)], 1: [(5, 1)]}
        assert kummer43_boxed.kmax == 2

    def test_empty(self):
        boxed = decompose(validate_generating_set([], 1))
        assert boxed.rows == {}
        assert boxed.genus == 0
        assert boxed.kmax == 0

    def test_genus_identity_violation(self):
        # bypasses validation: (12, 12) has no row-zero representative
        broken = GeneratingSet((LatticePoint(3, 3), LatticePoint(12, 12)), 9)
        with pytest.raises(GenusIdentityViolationError):
            decompose(broken)


class TestReconstructBox:
    def test_gk2_examples(self, gk2_boxed):
        assert box(gk2_boxed, 0, 1) == [(2, 11), (4, 13)]
        assert box(gk2_boxed, 1, 1) == [(10, 10)]
        assert box(gk2_boxed, 2, 0) == [(19, 1)]

    def test_beyond_kmax_empty(self, gk2_boxed):
        assert box(gk2_boxed, 3, 0) == []
        assert box(gk2_boxed, 1, 2) == []
        assert box(gk2_boxed, 40, 40) == []

    def test_boxes_partition_gamma(self, gk2_boxed):
        seen = []
        for i in range(gk2_boxed.kmax):
            for j in range(gk2_boxed.kmax):
                seen.extend(box(gk2_boxed, i, j))
        assert sorted(seen) == sorted(gk2.GAMMA)


def points(compute, boxed, k):
    """A component of box (k, 0) as its sorted list of points."""
    return flatten(compute(boxed, k), k * boxed.period)


class TestComponents:
    def test_g1_gk2(self, gk2_boxed):
        assert points(compute_g1, gk2_boxed, 0) == gk2.G1_0
        assert points(compute_g1, gk2_boxed, 1) == gk2.G1_1
        assert points(compute_g1, gk2_boxed, 2) == []
        # one column per shifted first coordinate, one shared list
        assert compute_g1(gk2_boxed, 0) == dict.fromkeys([1, 2, 4], [1, 2, 4])

    def test_g2_empty_under_diagonal(self, gk2_boxed, kummer43_boxed):
        for boxed in (gk2_boxed, kummer43_boxed):
            for k in range(boxed.kmax):
                assert points(compute_g2, boxed, k) == []

    def test_g2_synthetic_incomparable_row(self):
        boxed = BoxedGamma(rows={0: ((1, 5), (3, 2))}, period=9, genus=2,
                           kmax=1, diagonal=False)
        assert points(compute_g2, boxed, 0) == [(1, 2)]

    def test_g3_gk2(self, gk2_boxed):
        assert points(compute_g3, gk2_boxed, 0) == gk2.G3_0
        assert points(compute_g3, gk2_boxed, 1) == gk2.G3_1
        assert points(compute_g3, gk2_boxed, 2) == []

    def test_g3_kummer43(self, kummer43_boxed):
        assert points(compute_g3, kummer43_boxed, 0) == [(2, 1)]

    def test_g4_gk2(self, gk2_boxed):
        assert points(compute_g4, gk2_boxed, 0) == gk2.G4_0
        assert points(compute_g4, gk2_boxed, 1) == gk2.G4_1

    def test_g4_kummer43(self, kummer43_boxed):
        assert points(compute_g4, kummer43_boxed, 0) == [(1, 2)]

    def test_g1_cardinality_mismatch(self):
        # duplicate second coordinates across rows collapse the product
        boxed = BoxedGamma(rows={1: ((10, 4),), 2: ((21, 4),)}, period=9,
                           genus=5, kmax=3, diagonal=False)
        with pytest.raises(CardinalityMismatchError):
            compute_g1(boxed, 0)


class TestAssemble:
    def test_gk2_full_set(self, gk2_boxed):
        result = assemble_pure_gaps(gk2_boxed)
        assert result.g0 == gk2.G0_SORTED
        assert result.cardinality == 35
        for k, want in enumerate([(gk2.G1_0, [], gk2.G3_0, gk2.G4_0),
                                  (gk2.G1_1, [], gk2.G3_1, gk2.G4_1),
                                  ([], [], [], [])]):
            assert tuple(flatten(part, 9 * k) for part in
                         box_components(gk2_boxed, k)) == want
        assert (result.lower_bound, result.upper_bound,
                result.homma_kim_bound) == (gk2.LOWER, gk2.UPPER, gk2.HOMMA_KIM)

    def test_kummer43(self, kummer43_boxed):
        result = assemble_pure_gaps(kummer43_boxed)
        assert result.g0 == [(1, 1), (1, 2), (2, 1)]
        assert result.cardinality == 3
        assert result.upper_bound == 3  # attained

    def test_empty(self):
        result = assemble_pure_gaps(decompose(validate_generating_set([], 1)))
        assert result.g0 == []
        assert result.cardinality == 0
        assert result.lower_bound == result.upper_bound == 0


class TestFamilyAssemble:
    """The reference merge of a family's four components per residue."""

    def test_merges_by_residue(self):
        # G1 (10, 1), (10, 4); G3 (11, 1), (11, 2); G4 (10, 2)
        parts = ({1: [1, 4]}, {}, {2: range(1, 3)}, {1: [2]})
        g0 = merge_components({1: parts}, 9)
        assert g0 == PureGapSet({1: {1: [1, 2, 4], 2: [1, 2]}}, 9)
        assert len(g0) == 2 * 5

    @pytest.mark.parametrize("parts", [
        ({1: [1, 4]}, {}, {}, {1: [4]}),        # G1 and G4 share (10, 4)
        ({}, {2: [3]}, {2: range(1, 4)}, {}),   # G2 and G3 share (11, 3)
    ], ids=["g1-g4", "g2-g3"])
    def test_overlap_raises(self, parts):
        with pytest.raises(DisjointnessViolationError):
            merge_components({1: parts}, 9)


def test_reflect_is_the_column_transpose():
    g3 = {1: [3, 5], 2: range(3, 4), 4: [1]}
    assert engine.reflect(g3) == {1: [4], 3: [1, 2], 5: [1]}
    for k in (0, 2):
        assert flatten(engine.reflect(g3), 9 * k) == \
            reference.reflect_points(flatten(g3, 9 * k), 9 * k)


class TestCheckReflection:
    """check_reflection, the one check of the diagonal law: on a diagonal
    set G2 is empty and G4 is the reflected G3."""

    def test_family_sets_pass(self, gk2_boxed, kummer43_boxed):
        for boxed in (gk2_boxed, kummer43_boxed):
            check_reflection(boxed)

    def test_non_diagonal_set_rejected(self):
        boxed = BoxedGamma(rows={0: ((1, 5), (3, 2))}, period=9, genus=2,
                           kmax=1, diagonal=False)
        with pytest.raises(DiagonalReflectionMismatchError,
                           match="not diagonal"):
            check_reflection(boxed)

    def test_dropped_g3_point_names_box(self, gk2_boxed, monkeypatch):
        real = engine.compute_g3
        monkeypatch.setattr(
            engine, "compute_g3", lambda boxed, k:
            drop_first_point(real(boxed, k)) if k == 1 else real(boxed, k))
        with pytest.raises(DiagonalReflectionMismatchError,
                           match=r"^box k=1: G4 has 2 points and differs "
                                 r"from the reflected G3, which has 1$"):
            check_reflection(gk2_boxed)

    def test_uses_the_callers_components(self, gk2_boxed, monkeypatch):
        generic = {k: box_components(gk2_boxed, k)
                   for k in range(gk2_boxed.kmax)}

        def unused(boxed, k):
            raise AssertionError("a component was rebuilt")
        for name in ("compute_g2", "compute_g3", "compute_g4"):
            monkeypatch.setattr(engine, name, unused)
        check_reflection(gk2_boxed, generic)
        g1, g2, g3, g4 = generic[1]
        generic[1] = (g1, g2, drop_first_point(g3), g4)
        with pytest.raises(DiagonalReflectionMismatchError,
                           match=r"^box k=1: G4 has 2 points"):
            check_reflection(gk2_boxed, generic)

    def test_g2_point_names_box(self, gk2_boxed, monkeypatch):
        monkeypatch.setattr(engine, "compute_g2",
                            lambda boxed, k: [(1, 1)] * (k == 1))
        with pytest.raises(DiagonalReflectionMismatchError,
                           match=r"^box k=1: G2 is not empty$"):
            check_reflection(gk2_boxed)


class TestMergeCheck:
    """check_components first checks that the engine's four components,
    concatenated per residue and sorted, are the boxes of the engine's
    G0.  The family's rows and components given here are the edited
    engine components themselves, so only that check can fail."""

    @pytest.fixture(params=[
        ("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})], ids=["gk", "kummer"])
    def engine_parts(self, request):
        family, params = request.param
        boxed = decompose(
            harness.call_family(family, "{}_generating_set", params))
        generic = {k: box_components(boxed, k) for k in range(boxed.kmax)}
        g0 = assemble_pure_gaps(boxed).g0
        engine.check_components(boxed, generic, g0, boxed.row,
                                generic.__getitem__, "x")
        return boxed, generic, g0

    @staticmethod
    def assert_names(boxed, g0, edited, k, r):
        with pytest.raises(GenericMismatchError,
                           match=rf"^x k={k}: G1\.\.G4 merged at residue "
                                 rf"{r} hold "):
            engine.check_components(boxed, edited, g0, boxed.row,
                                    edited.__getitem__, "x")

    def test_point_dropped_from_g3(self, engine_parts):
        boxed, generic, g0 = engine_parts
        k = min(k for k, parts in generic.items() if parts[2])
        g1, g2, g3, g4 = generic[k]
        edited = dict(generic)
        edited[k] = (g1, g2, drop_first_point(g3), g4)
        self.assert_names(boxed, g0, edited, k, min(g3))

    def test_g4_overlaps_g1(self, engine_parts):
        boxed, generic, g0 = engine_parts
        k, r = min((k, r) for k, (g1, _, _, g4) in generic.items()
                   for r in g4.keys() & g1.keys())
        g1, g2, g3, g4 = generic[k]
        assert g1[r][0] not in g4[r]
        edited = dict(generic)
        edited[k] = (g1, g2, g3,
                     {**g4, r: sorted([*g4[r], g1[r][0]])})
        self.assert_names(boxed, g0, edited, k, r)


class TestBounds:
    def test_gk2(self, gk2_boxed):
        assert bounds(gk2_boxed) == (11, 47, 45)

    def test_from_row_sizes(self):
        assert bounds_from_row_sizes([3, 2, 1], 10) == (11, 47, 45)
        assert bounds_from_row_sizes([], 0) == (0, 0, 0)

    def test_kummer43_upper_attained(self, kummer43_boxed):
        assert bounds(kummer43_boxed).upper == 3

    def test_int128_guard(self):
        with pytest.raises(OverflowError):
            bounds_from_row_sizes([2**40], 2**80)


def columns(boxes, period):
    """Per-box point lists by column, by the point-by-point reference."""
    return _residue_runs(boxes, period)


class TestBoxColumns:
    def test_gk2_matches_components(self, gk2_boxed):
        for k in range(gk2_boxed.kmax):
            merged = merge_box(k, [flatten(part, 9 * k) for part in
                                   box_components(gk2_boxed, k)])
            assert box_columns(gk2_boxed, k) == \
                columns({k: merged}, 9).get(k, {})
        # G1 (10, 1), G4 (10, 2), (10, 4), G3 (11, 1), (13, 1)
        assert box_columns(gk2_boxed, 1) == {1: [1, 2, 4], 2: [1], 4: [1]}

    def test_non_diagonal_row_has_g2(self):
        # (1, 5) and (3, 2) are incomparable: G2 = {(1, 2)}, and (3, 2)
        # sits to the right of column 1
        boxed = BoxedGamma(rows={0: ((1, 5), (3, 2))}, period=9, genus=2,
                           kmax=1, diagonal=False)
        assert box_columns(boxed, 0) == {1: [2]}

    def test_repeated_shifted_first_coordinate(self):
        # (10, 4) and (19, 3) both shift down to first coordinate 1
        boxed = BoxedGamma(rows={1: ((10, 4),), 2: ((19, 3),)}, period=9,
                           genus=5, kmax=3, diagonal=False)
        with pytest.raises(CardinalityMismatchError):
            box_columns(boxed, 0)

    def test_repeated_second_coordinate_above(self):
        # the G1 check also covers the second coordinates, as compute_g1
        boxed = BoxedGamma(rows={1: ((10, 4),), 2: ((21, 4),)}, period=9,
                           genus=5, kmax=3, diagonal=False)
        with pytest.raises(CardinalityMismatchError):
            box_columns(boxed, 0)

    def test_shifted_first_meets_row(self):
        # (12, 5) in row 1 shifts down to 3, a first coordinate of row 0
        boxed = BoxedGamma(rows={0: ((3, 2),), 1: ((12, 5),)}, period=9,
                           genus=3, kmax=2, diagonal=False)
        with pytest.raises(DisjointnessViolationError):
            box_columns(boxed, 0)


class TestSharedColumns:
    """box_columns gives neighbouring shifted-down columns one list object,
    so no consumer of the columns may edit a list in place."""

    @pytest.mark.parametrize("make, args", [
        (gk_generating_set, (4,)), (kummer_generating_set, (7, 5)),
        (kummer_generating_set, (41, 60))])
    def test_consecutive_shifted_columns_share_a_list(self, make, args):
        boxed = decompose(make(*args))
        for k in range(boxed.kmax):
            cols = box_columns(boxed, k)
            own = {a - k * boxed.period for a, _ in boxed.row(k)}
            walk = sorted(set(cols) | own)
            for r1, r2 in zip(walk, walk[1:]):
                if r1 not in own and r2 not in own:
                    assert cols[r1] is cols[r2]
                elif r1 in cols and r2 in cols:
                    assert cols[r1] is not cols[r2]

    def test_kummer_41_60_distinct_lists(self):
        boxed = decompose(kummer_generating_set(41, 60))
        cols = [box_columns(boxed, k) for k in range(boxed.kmax)]
        assert sum(map(len, cols)) == 1179
        assert len({id(bs) for c in cols for bs in c.values()}) == 96

    @pytest.fixture
    def built(self, monkeypatch):
        """Every box_columns and box_components value built, with a deep
        copy taken when it was built."""
        made = []

        def recording(real):
            def record(boxed, k):
                value = real(boxed, k)
                made.append((value, copy.deepcopy(value)))
                return value
            return record

        monkeypatch.setattr(engine, "box_columns",
                            recording(engine.box_columns))
        components = recording(engine.box_components)
        monkeypatch.setattr(engine, "box_components", components)
        monkeypatch.setattr(harness, "box_components", components)
        return made

    @staticmethod
    def assert_unchanged(built):
        assert built
        for value, before in built:
            assert value == before

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 4}), ("kummer", {"m": 7, "r": 5})])
    def test_verify_point(self, built, family, params):
        assert harness.verify_point(family, params).ok
        self.assert_unchanged(built)

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 4}), ("kummer", {"m": 7, "r": 5})])
    def test_summarize_family(self, built, family, params):
        assert harness.summarize_family(family, params).ok
        self.assert_unchanged(built)

    def test_assemble(self, built):
        boxed = decompose(gk_generating_set(4))
        want = assemble_pure_gaps(boxed)
        for per_box in (
                {k: engine.box_components(boxed, k)
                 for k in range(boxed.kmax)},
                {k: (engine.box_columns(boxed, k),)
                 for k in range(boxed.kmax)}):
            g0 = merge_components(per_box, boxed.period)
            assert g0 == want.g0
            assert len(g0) == want.cardinality
        self.assert_unchanged(built)


def test_union_of_translates_overlap_detected():
    # G_{0,0} = {(1, 10)} and G_{1,0} = {(10, 1)} by column
    with pytest.raises(DisjointnessViolationError):
        PureGapSet({0: {1: [10]}, 1: {1: [1]}}, 9)


def test_union_of_translates_weighted_count():
    # G_{0,0} = {(1, 1)}, G_{1,0} = {(10, 2), (11, 3)}
    union = PureGapSet({0: {1: [1]}, 1: {1: [2], 2: [3]}}, 9)
    assert isinstance(union, PureGapSet)
    assert len(union) == 1 + 2 * 2
    assert list(union) == [(1, 1), (1, 11), (2, 12), (10, 2), (11, 3)]


def test_union_of_translates_point_outside_box_in_b_only():
    # (1, 9) has its first coordinate inside box (0, 0) but b = period;
    # no two translates overlap, so only the containment check sees it
    with pytest.raises(DisjointnessViolationError):
        PureGapSet({0: {1: [9]}, 1: {1: [2]}}, 9)


SHARED = [1]
SHARED_BAD = [2, 2]


@pytest.mark.parametrize("columns_by_box", [
    {0: {0: [1]}},           # residue 0: the first coordinate is k*period
    {1: {9: [1]}},           # residue period: in the next box
    {0: {1: [0, 1]}},        # second coordinate 0
    {0: {1: [2, 2]}},        # repeated second coordinate
    {0: {1: [3, 2]}},        # descending
    {0: {1: SHARED, 9: SHARED}},  # a shared list: r checked per column
    {0: {1: [1]}, 1: {1: SHARED_BAD, 2: SHARED_BAD}},  # a bad shared list
])
def test_union_of_translates_column_checks(columns_by_box):
    with pytest.raises(DisjointnessViolationError):
        PureGapSet(columns_by_box, 9)


def test_union_of_translates_drops_empty_columns():
    assert PureGapSet({0: {1: [1], 2: []}, 1: {}}, 9) == \
        PureGapSet({0: {1: [1]}}, 9)


@st.composite
def boxes_inside(draw):
    """A period and per-box sets G_{k,0} strictly inside box (k, 0), in any
    pattern: not only the diagonal families' shapes."""
    period = draw(st.integers(min_value=2, max_value=7))
    boxes = {}
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        inside = st.tuples(
            st.integers(min_value=k * period + 1,
                        max_value=(k + 1) * period - 1),
            st.integers(min_value=1, max_value=period - 1))
        boxes[k] = sorted(draw(st.sets(inside, max_size=12)))
    return boxes, period


def translates(boxes, period):
    """Brute force: every translate (a - j*period, b + j*period), sorted."""
    return sorted((a - j * period, b + j * period)
                  for k, box in boxes.items() for j in range(k + 1)
                  for a, b in box)


class TestPureGapSet:
    @settings(max_examples=300, deadline=None)
    @given(boxes_inside())
    def test_matches_brute_force(self, drawn):
        boxes, period = drawn
        g0 = PureGapSet(columns(boxes, period), period)
        want = translates(boxes, period)
        assert list(g0) == want
        assert len(g0) == len(want)
        assert g0 == want
        assert want == g0
        assert g0 == PureGapSet(columns(dict(boxes), period), period)

    @pytest.fixture
    def gk2_g0(self, gk2_boxed):
        return assemble_pure_gaps(gk2_boxed).g0

    def test_list_edits_unequal(self, gk2_g0):
        want = list(gk2.G0_SORTED)
        assert gk2_g0 == want
        dropped = want[:5] + want[6:]
        added = want[:5] + [(2, 99)] + want[5:]
        appended = want + [(100, 100)]
        swapped = want[:5] + [want[6], want[5]] + want[7:]
        for edited in (dropped, added, appended, swapped, []):
            assert gk2_g0 != edited
            assert edited != gk2_g0

    def test_one_box_differs(self, gk2_boxed, gk2_g0):
        merged = {k: sorted(p for part in box_components(gk2_boxed, k)
                            for p in flatten(part, 9 * k))
                  for k in range(gk2_boxed.kmax)}
        assert PureGapSet(columns(merged, 9), 9) == gk2_g0
        free = min(set(product(range(10, 18), range(1, 9))) - set(merged[1]))
        for box in (merged[1][1:], sorted(merged[1][1:] + [free])):
            edited = dict(merged)
            edited[1] = box
            assert PureGapSet(columns(edited, 9), 9) != gk2_g0

    def test_other_period_compares_by_points(self):
        # one point in box (0, 0) is the same G0 under either period
        assert PureGapSet({0: {1: [1]}}, 3) == \
            PureGapSet({0: {1: [1]}}, 5)
        assert PureGapSet({0: {1: [1]}, 1: {1: [1]}}, 3) != \
            PureGapSet({0: {1: [1]}, 1: {1: [1]}}, 5)
        assert PureGapSet({}, 3) == PureGapSet({1: {}}, 5)

    @staticmethod
    def boxes_of(points, period):
        """Sorted points sorted into boxes, {(i, j): {r: ascending v}}."""
        boxes = {}
        for a, b in points:
            (i, r), (j, v) = divmod(a, period), divmod(b, period)
            boxes.setdefault((i, j), {}).setdefault(r, []).append(v)
        return boxes

    def test_equals_boxes(self, gk2_g0):
        want = self.boxes_of(gk2.G0_SORTED, 9)
        assert sorted(want) == [(0, 0), (0, 1), (1, 0)]
        assert gk2_g0.equals_boxes(want)
        assert gk2_g0.equals_boxes(
            pure_gap_boxes_direct(validate_generating_set(gk2.GAMMA, 9)))

    @pytest.mark.parametrize("edit", [
        # the kinds of edit of a list of columns
        lambda boxes: boxes[0, 0].update({2: boxes[0, 0][2][1:]}),
        lambda boxes: boxes[0, 0].update({3: boxes[0, 0][3] + [8]}),
        lambda boxes: [boxes[0, j].pop(1) for j in (0, 1)],
        lambda boxes: boxes.update({(11, 0): {1: [1]}}),
        lambda boxes: boxes.clear(),
        # edits that leave the box j = 0 of every row alone
        lambda boxes: boxes[0, 1].update({1: [1, 2]}),
        lambda boxes: boxes.pop((0, 1)),
        lambda boxes: boxes.update({(0, 2): boxes[0, 1]}),
        lambda boxes: boxes[0, 1].update({3: [1]}),
    ], ids=["point-dropped", "point-added", "column-missing", "column-extra",
            "empty", "dropped-from-translate-j1", "box-key-missing",
            "box-key-extra", "residue-extra"])
    def test_equals_boxes_edits(self, gk2_g0, edit):
        edited = self.boxes_of(gk2.G0_SORTED, 9)
        edit(edited)
        assert not gk2_g0.equals_boxes(edited)

    def test_not_comparable_with_tuple(self, gk2_g0):
        assert gk2_g0 != tuple(gk2.G0_SORTED)

    def test_walked_count_checked(self, gk2_g0):
        gk2_g0._size += 1
        with pytest.raises(CardinalityMismatchError):
            gk2_g0 == list(gk2.G0_SORTED)
