import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puregaps.engine import assemble_pure_gaps, decompose
from puregaps.errors import InvalidParamsError
from puregaps.lattice import validate_generating_set
from puregaps.oracle import (
    BAND_BITS,
    band_span,
    count_pure_gaps_direct,
    pure_gap_boxes_direct,
    pure_gaps_direct,
)

import expected_gk2 as gk2
from props import band_periods, injective_pairs, spread_pairs
from reference import (
    RawSet,
    by_period,
    check_period_property,
    g0_points,
    gap_projections,
    lub,
    pure_gap_boxes_by_period,
    semigroup_box,
)

KUMMER43 = [(1, 5), (5, 1), (2, 2)]


@pytest.fixture(scope="module")
def gk2_gamma():
    return validate_generating_set(gk2.GAMMA, 9)


@pytest.fixture(scope="module")
def kummer43_gamma():
    return validate_generating_set(KUMMER43, 4)


class TestGapProjections:
    def test_gk2(self, gk2_gamma):
        gaps1, gaps2 = gap_projections(gk2_gamma)
        assert gaps1 == gk2.GAPS1
        assert gaps2 == gk2.GAPS1  # swap-symmetric set
        assert len(gaps1) == gk2_gamma.genus

    def test_kummer43(self, kummer43_gamma):
        gaps1, gaps2 = gap_projections(kummer43_gamma)
        assert gaps1 == {1, 2, 5}
        assert gaps2 == {1, 2, 5}

    def test_empty(self):
        assert gap_projections(validate_generating_set([], 1)) == (set(), set())


class TestSemigroupBox:
    def test_kummer43_members(self, kummer43_gamma):
        box = semigroup_box(kummer43_gamma, 8)
        assert (0, 0) in box.members
        assert (3, 0) in box.members
        assert (1, 0) not in box.members
        assert (1, 1) not in box.members

    def test_riemann_region_complete(self, gk2_gamma, kummer43_gamma):
        for gamma in (gk2_gamma, kummer43_gamma):
            g = gamma.genus
            box = semigroup_box(gamma, 2 * g)
            for a in range(2 * g + 1):
                for b in range(2 * g + 1 - a):
                    if a + b >= 2 * g:
                        assert (a, b) in box.members

    def test_lub_closed_within_box(self, kummer43_gamma):
        box = semigroup_box(kummer43_gamma, 8)
        members = sorted(box.members)
        for x in members:
            for y in members:
                m = lub(x, y)
                if m[0] <= 8 and m[1] <= 8:
                    assert m in box.members

    def test_disjoint_from_pure_gaps(self, gk2_gamma, kummer43_gamma):
        for gamma in (gk2_gamma, kummer43_gamma):
            box = semigroup_box(gamma, 2 * gamma.genus)
            assert not box.members.intersection(pure_gaps_direct(gamma))

    def test_negative_bound_rejected(self, kummer43_gamma):
        with pytest.raises(InvalidParamsError):
            semigroup_box(kummer43_gamma, -1)


class TestPureGapsDirect:
    def test_gk2(self, gk2_gamma):
        assert pure_gaps_direct(gk2_gamma) == gk2.G0_SORTED

    def test_kummer43(self, kummer43_gamma):
        assert pure_gaps_direct(kummer43_gamma) == [(1, 1), (1, 2), (2, 1)]

    def test_chain_has_no_pure_gaps(self):
        chain = validate_generating_set([(1, 1), (2, 2), (3, 3)], 5)
        assert pure_gaps_direct(chain) == []

    def test_coordinates_are_gaps(self, gk2_gamma):
        gaps1, gaps2 = gap_projections(gk2_gamma)
        for a, b in pure_gaps_direct(gk2_gamma):
            assert a in gaps1 and b in gaps2

    def test_matches_engine(self, gk2_gamma, kummer43_gamma):
        for gamma in (gk2_gamma, kummer43_gamma):
            g0 = assemble_pure_gaps(decompose(gamma))
            assert g0_points(g0) == pure_gaps_direct(gamma)


def reference_pure_gaps(points):
    """The glbs of incomparable pairs by the set-plus-sort double loop."""
    pts = sorted(points)
    out = set()
    for i, (ai, bi) in enumerate(pts):
        for _, bj in pts[i + 1:]:
            if bj < bi:
                out.add((ai, bj))
    return sorted(out)


def definition_boxes(points, period):
    """The definition's pure gaps as the banded scan's box columns, ``(i,
    {j: {r: mask}})`` with ``i`` decreasing, each band ``band_span(period)``
    periods high."""
    width = band_span(period) * period
    columns = {}
    for a, b in reference_pure_gaps(points):
        (i, r), (j, v) = divmod(a, period), divmod(b, width)
        box = columns.setdefault(i, {}).setdefault(j, {})
        box[r] = box.get(r, 0) | 1 << v
    return sorted(columns.items(), reverse=True)


def inverted(g):
    return [(i, g + 1 - i) for i in range(1, g + 1)]


class TestPureGapsDirectArbitrary:
    """The scan against the definition on unvalidated injective sets."""

    @settings(max_examples=300, deadline=None)
    @given(injective_pairs(), st.integers(min_value=1, max_value=50))
    @example([(9, 2), (1, 8), (4, 6), (6, 9), (2, 1)], 10)
    def test_matches_definition(self, points, period):
        got = pure_gaps_direct(RawSet(points=tuple(points),
                                      period=period))
        assert got == reference_pure_gaps(points)
        assert all(x < y for x, y in zip(got, got[1:]))
        assert all(type(p) is tuple for p in got)

    @settings(max_examples=300, deadline=None)
    @given(injective_pairs(), st.integers(min_value=1, max_value=50))
    def test_boxes_match_definition(self, points, period):
        gamma = RawSet(points=tuple(points), period=period)
        assert pure_gaps_direct(gamma) == reference_pure_gaps(points)
        rows = list(pure_gap_boxes_direct(gamma))
        assert rows == definition_boxes(points, period)
        assert [i for i, _ in rows] == sorted({i for i, _ in rows},
                                              reverse=True)
        width = band_span(period) * period
        assert width >= BAND_BITS
        for _, row in rows:
            assert row
            for columns in row.values():
                assert columns
                for r, mask in columns.items():
                    assert 0 <= r < period
                    assert 0 < mask < 1 << width

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(injective_pairs(), spread_pairs()), band_periods)
    @example([(1, 5000), (2, 10**12), (3, 4100), (4, 1)], 2048)
    def test_bands_match_one_period_reference(self, points, period):
        """The scan's boxes of ``band_span(period)`` periods, split into
        one-period boxes, are those of the one-period reference scan; both
        scans' boxes and the listing are the definition's, with periods on
        both sides of ``BAND_BITS`` and second coordinates up to about
        ``10**12``."""
        gamma = RawSet(points=tuple(points), period=period)
        assert pure_gaps_direct(gamma) == reference_pure_gaps(points)
        boxes = list(pure_gap_boxes_direct(gamma))
        assert boxes == definition_boxes(points, period)
        assert by_period(boxes, period, band_span(period)) == \
            list(pure_gap_boxes_by_period(gamma))

    def test_bounded_by_points_not_coordinates(self):
        # One band per value of b // period would take 10**12 lists here.
        gamma = RawSet(points=((1, 10**12 + 1), (2, 1)), period=1)
        assert pure_gaps_direct(gamma) == [(1, 1)]

    @settings(max_examples=300, deadline=None)
    @given(injective_pairs(), st.integers(min_value=1, max_value=50))
    def test_count_matches_listing(self, points, period):
        gamma = RawSet(points=tuple(points), period=period)
        assert count_pure_gaps_direct(gamma) == len(pure_gaps_direct(gamma))

    @pytest.mark.parametrize("points, expected", [
        ([], []),                                        # genus 0
        ([(3, 7)], []),                                  # genus 1
        ([(i, 2 * i) for i in range(1, 30)], []),        # a chain
        # not swap-symmetric: tau(1) = 5, but 5 is no first coordinate
        ([(1, 5), (3, 1), (4, 2)], [(1, 1), (1, 2)]),
    ])
    def test_known_sets(self, points, expected):
        gamma = RawSet(points=tuple(points), period=7)
        assert pure_gaps_direct(gamma) == expected

    @pytest.mark.parametrize("g", [2, 5, 31])
    def test_inverted_attains_homma_kim(self, g):
        got = pure_gaps_direct(RawSet(points=tuple(inverted(g)),
                                      period=g + 1))
        assert len(got) == g * (g - 1) // 2
        assert got == reference_pure_gaps(inverted(g))


class TestCheckPeriodProperty:
    def test_gk2_clean(self, gk2_gamma):
        report = check_period_property(gk2_gamma)
        assert report.ok
        assert report.points_checked == 10
        assert report.period == 9

    def test_raw_pairs_accepted(self):
        report = check_period_property(gk2.GAMMA, 9)
        assert report.ok

    def test_period_required_for_raw_pairs(self):
        with pytest.raises(InvalidParamsError):
            check_period_property(gk2.GAMMA)

    def test_single_tamper_detected(self):
        tampered = [(a, b) for a, b in gk2.GAMMA]
        tampered[tampered.index((2, 11))] = (2, 12)
        report = check_period_property(tampered, 9)
        assert not report.ok
        assert any("(2, 12)" in v for v in report.violations)

    def test_shift_present_without_license(self):
        # 12 = 3 + 9 may not be a first coordinate since 9 >= tau(3) = 3
        report = check_period_property([(3, 3), (12, 5)], 9)
        assert not report.ok

    def test_duplicate_first_reported(self):
        report = check_period_property([(3, 3), (3, 5)], 9)
        assert not report.ok
