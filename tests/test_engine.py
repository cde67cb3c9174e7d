import copy
from itertools import product
from pathlib import Path

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
    check_reflection,
    components_by_box,
    decompose,
)
from puregaps.errors import (
    CardinalityMismatchError,
    DiagonalReflectionMismatchError,
    DisjointnessViolationError,
    DivisibilityViolationError,
    GenericMismatchError,
    GenusIdentityViolationError,
)
from puregaps.gk import gk_generating_set
from puregaps.kummer import kummer_generating_set
from puregaps.lattice import GeneratingSet, validate_generating_set
from puregaps.oracle import band_span, pure_gap_boxes_direct

import expected_gk2 as gk2
import reference
from reference import (
    _residue_runs,
    column_runs,
    drop_first_point,
    flatten,
    g0_boxes,
    g0_points,
    masks,
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
        # bypasses validation: (5, 13) is no chain start, as 5 > period 3,
        # so its chain's end (17, 1) sits in row 5, not row 4; the genus
        # is 4 + 5 = 9, kmax = 6, and the rows weigh 4 + 6 = 10
        broken = GeneratingSet(((1, 10), (5, 13)), 3)
        with pytest.raises(GenusIdentityViolationError,
                           match=r"^sum \(k\+1\)\|rows\[k\]\| = 10 does not "
                                 r"equal genus 9$"):
            decompose(broken)

    def test_row_at_kmax(self):
        # genus 1 and period 9 give kmax = 1; (10, 1) sits in row 1
        with pytest.raises(GenusIdentityViolationError,
                           match="^nonempty box at k=1 >= kmax=1$"):
            decompose(GeneratingSet(((10, 1),), 9))


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


#: Index of each component in the (G1, G2, G3, G4) of a box.
G1, G2, G3, G4 = range(4)


def component(boxed, k, index):
    """One component of box (k, 0), by column, from one sweep of the
    boxes."""
    return dict(components_by_box(boxed))[k][index]


def points(boxed, k, index):
    """A component of box (k, 0) as its sorted list of points."""
    return flatten(component(boxed, k, index), k * boxed.period)


class TestComponents:
    def test_g1_gk2(self, gk2_boxed):
        assert points(gk2_boxed, 0, G1) == gk2.G1_0
        assert points(gk2_boxed, 1, G1) == gk2.G1_1
        assert points(gk2_boxed, 2, G1) == []
        # one column per shifted first coordinate, each the one mask of S
        assert component(gk2_boxed, 0, G1) == masks(
            dict.fromkeys([1, 2, 4], [1, 2, 4]))

    def test_g2_empty_under_diagonal(self, gk2_boxed, kummer43_boxed):
        for boxed in (gk2_boxed, kummer43_boxed):
            for k in range(boxed.kmax):
                assert points(boxed, k, G2) == []

    def test_g2_synthetic_incomparable_row(self):
        boxed = BoxedGamma(rows={0: ((1, 5), (3, 2))}, period=9, genus=2,
                           kmax=1, diagonal=False)
        assert points(boxed, 0, G2) == [(1, 2)]

    def test_g3_gk2(self, gk2_boxed):
        assert points(gk2_boxed, 0, G3) == gk2.G3_0
        assert points(gk2_boxed, 1, G3) == gk2.G3_1
        assert points(gk2_boxed, 2, G3) == []

    def test_g3_kummer43(self, kummer43_boxed):
        assert points(kummer43_boxed, 0, G3) == [(2, 1)]

    def test_g4_gk2(self, gk2_boxed):
        assert points(gk2_boxed, 0, G4) == gk2.G4_0
        assert points(gk2_boxed, 1, G4) == gk2.G4_1

    def test_g4_kummer43(self, kummer43_boxed):
        assert points(kummer43_boxed, 0, G4) == [(1, 2)]

    def test_g1_cardinality_mismatch(self):
        # duplicate second coordinates across rows collapse the product
        boxed = BoxedGamma(rows={1: ((10, 4),), 2: ((21, 4),)}, period=9,
                           genus=5, kmax=3, diagonal=False)
        with pytest.raises(CardinalityMismatchError):
            dict(components_by_box(boxed))


class TestAssemble:
    def test_gk2_full_set(self, gk2_boxed):
        g0 = assemble_pure_gaps(gk2_boxed)
        assert g0_points(g0) == gk2.G0_SORTED
        assert len(g0) == 35
        parts = dict(components_by_box(gk2_boxed))
        for k, want in enumerate([(gk2.G1_0, [], gk2.G3_0, gk2.G4_0),
                                  (gk2.G1_1, [], gk2.G3_1, gk2.G4_1),
                                  ([], [], [], [])]):
            assert tuple(flatten(part, 9 * k) for part in parts[k]) == want
        assert tuple(bounds(gk2_boxed)) == \
            (gk2.LOWER, gk2.UPPER, gk2.HOMMA_KIM)

    def test_kummer43(self, kummer43_boxed):
        g0 = assemble_pure_gaps(kummer43_boxed)
        assert g0_points(g0) == [(1, 1), (1, 2), (2, 1)]
        assert len(g0) == 3
        assert bounds(kummer43_boxed).upper == 3  # attained

    def test_empty(self):
        boxed = decompose(validate_generating_set([], 1))
        g0 = assemble_pure_gaps(boxed)
        assert g0_points(g0) == []
        assert len(g0) == 0
        assert bounds(boxed).lower == bounds(boxed).upper == 0


class TestFamilyAssemble:
    """The reference merge of components per residue."""

    def test_merges_by_residue(self):
        # G1 (10, 1), (10, 4); G3 (11, 1), (11, 2); G4 (10, 2)
        parts = tuple(map(masks, ({1: [1, 4]}, {}, {2: [1, 2]}, {1: [2]})))
        g0 = merge_components({1: parts}, 9)
        assert g0_boxes(g0) == {1: masks({1: [1, 2, 4], 2: [1, 2]})}
        assert len(g0) == 2 * 5

    @pytest.mark.parametrize("parts", [
        ({1: [1, 4]}, {}, {}, {1: [4]}),        # G1 and G4 share (10, 4)
        ({}, {2: [3]}, {2: [1, 2, 3]}, {}),     # G2 and G3 share (11, 3)
    ], ids=["g1-g4", "g2-g3"])
    def test_overlap_raises(self, parts):
        with pytest.raises(DisjointnessViolationError):
            merge_components({1: tuple(map(masks, parts))}, 9)


def test_reflect_is_the_column_transpose():
    g3 = masks({1: [3, 5], 2: range(3, 4), 4: [1]})
    assert engine.reflect(g3) == masks({1: [4], 3: [1, 2], 5: [1]})
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
            engine, "compute_g3", lambda boxed, k, *state:
            drop_first_point(real(boxed, k, *state)) if k == 1
            else real(boxed, k, *state))
        with pytest.raises(DiagonalReflectionMismatchError,
                           match=r"^box k=1: G4 has 2 points and differs "
                                 r"from the reflected G3, which has 1$"):
            check_reflection(gk2_boxed)

    def test_uses_the_callers_components(self, gk2_boxed, monkeypatch):
        generic = dict(components_by_box(gk2_boxed))

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
    G0.  The family's rows, G1 and G3 given here are the edited engine's
    own, so only that check can fail."""

    @pytest.fixture(params=[
        ("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})], ids=["gk", "kummer"])
    def engine_parts(self, request):
        family, params = request.param
        boxed = decompose(
            harness.call_family(family, "{}_generating_set", params))
        generic = dict(components_by_box(boxed))
        g0 = assemble_pure_gaps(boxed)
        engine.check_components(boxed, generic, g0,
                                self.own_sets(boxed, generic))
        return boxed, generic, g0

    @staticmethod
    def own_sets(boxed, generic):
        """The engine's row, G1 and G3 of each box, given as the family's."""
        return {k: (boxed.row(k), g1, g3)
                for k, (g1, _, g3, _) in generic.items()}

    @classmethod
    def assert_names(cls, boxed, g0, edited, k, r, delta):
        """The check names the box, the residue, the merged count, off by
        ``delta`` from the count of ``G0``'s box, and that count."""
        want = g0.box(k)[r].bit_count()
        with pytest.raises(GenericMismatchError,
                           match=rf"^k={k}: G1\.\.G4 merged at residue "
                                 rf"{r} hold {want + delta} points, "
                                 rf"G0 box {want}$"):
            engine.check_components(boxed, edited, g0,
                                    cls.own_sets(boxed, edited))

    def test_point_dropped_from_g3(self, engine_parts):
        boxed, generic, g0 = engine_parts
        k = min(k for k, parts in generic.items() if parts[2])
        g1, g2, g3, g4 = generic[k]
        edited = dict(generic)
        edited[k] = (g1, g2, drop_first_point(g3), g4)
        self.assert_names(boxed, g0, edited, k, min(g3), -1)

    def test_g4_overlaps_g1(self, engine_parts):
        boxed, generic, g0 = engine_parts
        k, r = min((k, r) for k, (g1, _, _, g4) in generic.items()
                   for r in g4.keys() & g1.keys())
        g1, g2, g3, g4 = generic[k]
        first = g1[r] & -g1[r]
        assert not first & g4[r]
        edited = dict(generic)
        edited[k] = (g1, g2, g3, {**g4, r: g4[r] | first})
        self.assert_names(boxed, g0, edited, k, r, 1)


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

    def test_int128_edges(self):
        top = engine.INT128_MAX
        assert engine.check_int128(top) == top
        assert engine.check_int128(-top - 1) == -top - 1
        for value in (top + 1, -top - 2):
            with pytest.raises(OverflowError):
                engine.check_int128(value)

    @pytest.mark.parametrize("num, den, quotient", [
        (240, 120, 2), (-24, 12, -2), (0, 12, 0)])
    def test_exact_quotient(self, num, den, quotient):
        assert engine.exact_quotient(num, den, "special-case") == quotient

    @pytest.mark.parametrize("num, den, what", [
        (121, 120, "cardinality polynomial"), (-7, 12, "special-case")])
    def test_exact_quotient_refuses_a_remainder(self, num, den, what):
        # the closed forms' numerator guard, named as each closed form does
        with pytest.raises(DivisibilityViolationError) as info:
            engine.exact_quotient(num, den, what)
        assert str(info.value) == \
            f"{what} numerator {num} not divisible by {den}"


def columns(boxes, period):
    """Per-box point lists by column, by the point-by-point reference."""
    return _residue_runs(boxes, period)


class TestBoxColumns:
    """The boxes of the engine's G0, each built from the sweep's state."""

    def test_gk2_matches_components(self, gk2_boxed):
        g0 = assemble_pure_gaps(gk2_boxed)
        for k, parts in components_by_box(gk2_boxed):
            merged = merge_box(k, [flatten(part, 9 * k) for part in parts])
            assert g0.box(k) == columns({k: merged}, 9).get(k, {})
        # G1 (10, 1), G4 (10, 2), (10, 4), G3 (11, 1), (13, 1)
        assert g0.box(1) == masks({1: [1, 2, 4], 2: [1], 4: [1]})

    def test_non_diagonal_row_has_g2(self):
        # (1, 5) and (3, 2) are incomparable: G2 = {(1, 2)}, and (3, 2)
        # sits to the right of column 1
        boxed = BoxedGamma(rows={0: ((1, 5), (3, 2))}, period=9, genus=2,
                           kmax=1, diagonal=False)
        assert assemble_pure_gaps(boxed).box(0) == masks({1: [2]})

    def test_repeated_shifted_first_coordinate(self):
        # (10, 4) and (10, 5) both shift down to first coordinate 1 in
        # box 0; box 1, above it, passes
        boxed = BoxedGamma(rows={1: ((10, 4), (10, 5))}, period=9,
                           genus=4, kmax=3, diagonal=False)
        with pytest.raises(CardinalityMismatchError, match=r"G1_\(0,0\)"):
            assemble_pure_gaps(boxed)

    def test_repeated_second_coordinate_above(self):
        # the G1 check also covers the second coordinates, as compute_g1
        boxed = BoxedGamma(rows={1: ((10, 4),), 2: ((21, 4),)}, period=9,
                           genus=5, kmax=3, diagonal=False)
        with pytest.raises(CardinalityMismatchError, match=r"G1_\(0,0\)"):
            assemble_pure_gaps(boxed)

    def test_shifted_first_meets_row(self):
        # (12, 5) in row 1 shifts down to 3, a first coordinate of row 0
        boxed = BoxedGamma(rows={0: ((3, 2),), 1: ((12, 5),)}, period=9,
                           genus=3, kmax=2, diagonal=False)
        with pytest.raises(DisjointnessViolationError, match="box k=0"):
            assemble_pure_gaps(boxed)


class TestSharedColumns:
    """Columns are int masks, shared by value: each box of G0 has
    neighbouring shifted-down columns with no row point between them one
    run, so a box holds few runs and the listing renders each run's mask
    once per translate.  The per-box dicts are read-only: no consumer of
    them may edit one in place."""

    @pytest.mark.parametrize("make, args", [
        (gk_generating_set, (4,)), (kummer_generating_set, (7, 5)),
        (kummer_generating_set, (41, 60))])
    def test_consecutive_shifted_columns_share_a_list(self, make, args):
        boxed = decompose(make(*args))
        g0 = assemble_pure_gaps(boxed)
        for k, (_, _, _, g4) in components_by_box(boxed):
            cols = g0.box(k)
            own = {a - k * boxed.period for a, _ in boxed.row(k)}
            walk = sorted(set(cols) | own)
            for r1, r2 in zip(walk, walk[1:]):
                if r1 not in own and r2 not in own:
                    assert cols[r1] == cols[r2]
            # G4's neighbours are equal unless a row point parts them,
            # which adds its second coordinate
            for r1, r2 in zip(g4, list(g4)[1:]):
                between = any(r1 < r < r2 for r in own)
                assert (g4[r1] == g4[r2]) != between

    def test_kummer_41_60_distinct_lists(self):
        """1,179 columns hold 96 distinct masks counted box by box, the
        templates one translate renders, and 40 across all boxes."""
        boxed = decompose(kummer_generating_set(41, 60))
        g0 = assemble_pure_gaps(boxed)
        cols = [g0.box(k) for k in range(boxed.kmax)]
        assert sum(map(len, cols)) == 1179
        assert sum(len(set(c.values())) for c in cols) == 96
        assert len({m for c in cols for m in c.values()}) == 40

    @pytest.fixture
    def built(self, monkeypatch):
        """Every box's components that the harness reads and every G0's
        boxes that it assembles, with a deep copy taken when each was
        built."""
        made = []

        def record(value):
            made.append((value, copy.deepcopy(value)))
            return value

        def components(boxed):
            for k, parts in engine.components_by_box(boxed):
                yield k, record(parts)

        def assemble(boxed):
            g0 = engine.assemble_pure_gaps(boxed)
            record(g0_boxes(g0))
            return g0
        monkeypatch.setattr(harness, "components_by_box", components)
        monkeypatch.setattr(harness, "assemble_pure_gaps", assemble)
        return made

    @staticmethod
    def assert_unchanged(built):
        assert built
        for value, before in built:
            assert value == before

    @staticmethod
    def assert_figures(report, family, params):
        """The report's cardinality is the closed form's, its bounds those
        of the decomposed set."""
        gamma = harness.call_family(family, "{}_generating_set", params)
        assert report.cardinality == \
            harness.call_family(family, "{}_card_g0", params)
        assert (report.lower_bound, report.upper_bound,
                report.homma_kim_bound) == tuple(bounds(decompose(gamma)))

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 4}), ("kummer", {"m": 7, "r": 5})])
    def test_verify_point(self, built, family, params):
        report = harness.verify_point(family, params)
        assert report.ok
        self.assert_unchanged(built)
        self.assert_figures(report, family, params)

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 4}), ("kummer", {"m": 7, "r": 5})])
    def test_summarize_family(self, built, family, params):
        report = harness.summarize_family(family, params)
        assert report.ok
        self.assert_unchanged(built)
        self.assert_figures(report, family, params)

    def test_assemble(self, built):
        boxed = decompose(gk_generating_set(4))
        want = assemble_pure_gaps(boxed)
        g0 = harness.assemble_pure_gaps(boxed)
        for per_box in (dict(harness.components_by_box(boxed)),
                        {k: (g0.box(k),) for k in range(boxed.kmax)}):
            g0 = merge_components(per_box, boxed.period)
            assert g0_boxes(g0) == g0_boxes(want)
            assert len(g0) == len(want)
        self.assert_unchanged(built)


def test_union_of_translates_overlap_detected():
    # G_{0,0} = {(1, 10)} and G_{1,0} = {(10, 1)} by column
    with pytest.raises(DisjointnessViolationError):
        PureGapSet(column_runs({0: masks({1: [10]}), 1: masks({1: [1]})}),
                   9)


def test_union_of_translates_weighted_count():
    # G_{0,0} = {(1, 1)}, G_{1,0} = {(10, 2), (11, 3)}
    union = PureGapSet(
        column_runs({0: masks({1: [1]}), 1: masks({1: [2], 2: [3]})}), 9)
    assert isinstance(union, PureGapSet)
    assert len(union) == 1 + 2 * 2
    assert g0_points(union) == [(1, 1), (1, 11), (2, 12), (10, 2), (11, 3)]


def test_union_of_translates_point_outside_box_in_b_only():
    # (1, 9) has its first coordinate inside box (0, 0) but b = period;
    # no two translates overlap, so only the containment check sees it
    with pytest.raises(DisjointnessViolationError):
        PureGapSet(column_runs({0: masks({1: [9]}), 1: masks({1: [2]})}),
                   9)


SHARED = 1 << 1
SHARED_BAD = 1 << 0 | 1 << 2


@pytest.mark.parametrize("columns_by_box", [
    {0: {0: 1 << 1}},        # residue 0: the first coordinate is k*period
    {1: {9: 1 << 1}},        # residue period: in the next box
    {0: {1: 1 << 0 | 1 << 1}},  # second coordinate 0
    {0: {1: 1 << 9}},        # second coordinate period: in the next box
    {0: {1: 1 << 40 | 1 << 2}},  # a bit far above the period
    {0: {1: SHARED, 9: SHARED}},  # one mask in two columns: r per column
    {0: {1: 1 << 1}, 1: {1: SHARED_BAD, 2: SHARED_BAD}},  # a bad shared mask
])
def test_union_of_translates_column_checks(columns_by_box):
    with pytest.raises(DisjointnessViolationError):
        PureGapSet(column_runs(columns_by_box), 9)


def test_union_of_translates_drops_empty_columns():
    assert g0_boxes(PureGapSet(
        column_runs({0: {1: 1 << 1, 2: 0}, 1: {}}), 9)) == \
        {0: {1: 1 << 1}}


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
        g0 = PureGapSet(column_runs(columns(boxes, period)), period)
        want = translates(boxes, period)
        assert g0_points(g0) == want
        assert len(g0) == len(want)
        assert g0_boxes(g0) == \
            g0_boxes(PureGapSet(column_runs(columns(dict(boxes), period)),
                                period))

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_listing_counts_its_points(self, fmt):
        g0 = PureGapSet(column_runs({0: masks({1: [1, 2]})}), 5)
        # one point more in the stored run than len(g0) counted
        residues, column = g0._runs[0][0]
        g0._runs[0][0] = residues, column | 1 << 3
        with pytest.raises(CardinalityMismatchError):
            "".join(g0.pieces(fmt))

    @pytest.fixture
    def gk2_g0(self, gk2_boxed):
        return assemble_pure_gaps(gk2_boxed)

    def test_repr(self):
        g0 = assemble_pure_gaps(decompose(gk_generating_set(2)))
        assert repr(g0) == "PureGapSet(period=9, boxes=[0, 1], size=35)"

    def test_one_box_differs(self, gk2_boxed, gk2_g0):
        merged = {k: sorted(p for part in parts for p in flatten(part, 9 * k))
                  for k, parts in components_by_box(gk2_boxed)}
        g0 = PureGapSet(column_runs(columns(merged, 9)), 9)
        assert g0_boxes(g0) == g0_boxes(gk2_g0)
        free = min(set(product(range(10, 18), range(1, 9))) - set(merged[1]))
        for box in (merged[1][1:], sorted(merged[1][1:] + [free])):
            edited = dict(merged)
            edited[1] = box
            g0 = PureGapSet(column_runs(columns(edited, 9)), 9)
            assert g0_boxes(g0) != g0_boxes(gk2_g0)

    @staticmethod
    def boxes_of(points, period):
        """Sorted points sorted into boxes, {(i, j): {r: ascending v}}."""
        boxes = {}
        for a, b in points:
            (i, r), (j, v) = divmod(a, period), divmod(b, period)
            boxes.setdefault((i, j), {}).setdefault(r, []).append(v)
        return boxes

    @staticmethod
    def scan_of(boxes, period):
        """One-period boxes as the direct scan yields them: box columns
        ``(i, {j: {r: mask}})``, ``i`` decreasing, each box ``(i, j)`` a
        band of ``band_span(period)`` periods, one-period box ``(i, j*c +
        t)`` shifted up ``t`` periods in it."""
        span = band_span(period)
        rows = {}
        for (i, j), columns in boxes.items():
            band = rows.setdefault(i, {}).setdefault(j // span, {})
            shift = j % span * period
            for r, mask in masks(columns).items():
                band[r] = band.get(r, 0) | mask << shift
        return sorted(rows.items(), reverse=True)

    def test_equals_boxes(self, gk2_g0):
        want = self.boxes_of(gk2.G0_SORTED, 9)
        assert sorted(want) == [(0, 0), (0, 1), (1, 0)]
        assert harness.oracle_mismatch(gk2_g0, self.scan_of(want, 9)) == ""
        scan = pure_gap_boxes_direct(validate_generating_set(gk2.GAMMA, 9))
        assert harness.oracle_mismatch(gk2_g0, scan) == ""

    def test_box_above_kmax_fails(self, monkeypatch):
        """An engine box at or above ``kmax``, where no box of a valid
        ``G0`` lies, is still compared with the scan."""
        gamma = kummer_generating_set(2, 5)
        boxed = decompose(gamma)
        assert boxed.kmax == 2
        g0 = assemble_pure_gaps(boxed)
        boxes = {k: g0.box(k) for k in range(boxed.kmax)}
        edited = PureGapSet(column_runs({**boxes, 2: {1: 0b10}}),
                            g0.period)
        monkeypatch.setattr(harness, "assemble_pure_gaps",
                            lambda boxed: edited)
        report = harness.summarize_generic(gamma, "k2-5")
        assert report.verdicts["engine_vs_oracle"] == "fail"
        assert ("engine_vs_oracle: G0: 4 vs 1 points; unexpected "
                "[(1, 5), (3, 3), (5, 1)], missing []") in report.detail

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
        # a box column the engine lacks entirely, inside kmax
        lambda boxes: boxes.update({(2, 0): {1: [1]}}),
        # box column 0 given, but only in a higher band: box (0, 0) unseen
        lambda boxes: [boxes.update({(0, j + 300): boxes.pop((0, j))})
                       for j in (0, 1)],
    ], ids=["point-dropped", "point-added", "column-missing", "column-extra",
            "empty", "dropped-from-translate-j1", "box-key-missing",
            "box-key-extra", "residue-extra", "box-column-extra",
            "lowest-box-in-a-higher-band"])
    def test_equals_boxes_edits(self, gk2_g0, edit):
        edited = self.boxes_of(gk2.G0_SORTED, 9)
        edit(edited)
        text = harness.oracle_mismatch(gk2_g0, self.scan_of(edited, 9))
        size = sum(len(vs) for columns in edited.values()
                   for vs in columns.values())
        assert text.startswith(f"G0: {len(gk2_g0)} vs {size} points; ")

    @pytest.mark.parametrize("reorder", [
        lambda scan: scan[::-1],
        lambda scan: scan[:1] + scan,
        lambda scan: scan + scan[-1:],
        lambda scan: scan + [(-1, scan[-1][1])],
    ], ids=["reversed", "repeated", "last-repeated", "below-0"])
    def test_box_columns_out_of_order_fail(self, gk2_g0, reorder):
        """A correct scan whose box columns do not strictly decrease to 0
        fails, naming the column: none is skipped or counted twice."""
        scan = self.scan_of(self.boxes_of(gk2.G0_SORTED, 9), 9)
        assert [i for i, _ in scan] == [1, 0]
        text = harness.oracle_mismatch(gk2_g0, reorder(scan))
        assert "scan box column " in text


def test_readme_library_example_runs():
    """The ``python`` block under ``## Library`` in the README runs, and its
    ``assert`` lines hold."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
