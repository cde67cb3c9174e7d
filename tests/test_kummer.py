from math import gcd

import pytest

import puregaps.harness as harness
import puregaps.kummer as kummer_mod
from puregaps.engine import (
    assemble_pure_gaps,
    bounds_from_row_sizes,
    check_components,
    decompose,
    reflect,
)
from puregaps.errors import GenericMismatchError, InvalidParamsError
from puregaps.kummer import (
    KummerParams,
    kummer_card_g0,
    kummer_card_gamma_k0,
    kummer_card_special_qN,
    kummer_card_special_ur1,
    kummer_components,
    kummer_g1,
    kummer_g3,
    kummer_gamma_k0,
    kummer_generating_set,
)
from puregaps.oracle import pure_gaps_direct

import reference
from reference import (
    diagonal_parts,
    engine_side,
    flatten,
    g0_boxes,
    g0_points,
    merge_components,
)

COPRIME_GRID = [(m, r) for m in range(2, 16) for r in range(2, 16)
                if gcd(m, r) == 1]


class TestParams:
    def test_derived_quantities(self):
        p = KummerParams(4, 3)
        assert p.genus == 3
        assert p.period == 4
        assert p.top_box == 1
        assert KummerParams(4, 7).top_box == 4

    def test_gcd_enforced(self):
        with pytest.raises(InvalidParamsError):
            KummerParams(4, 6)
        with pytest.raises(InvalidParamsError):
            KummerParams(9, 3)

    def test_lower_limits(self):
        with pytest.raises(InvalidParamsError):
            KummerParams(1, 3)
        with pytest.raises(InvalidParamsError):
            KummerParams(4, 1)


class TestGeneratingSet:
    def test_m4_r3(self):
        gamma = kummer_generating_set(4, 3)
        assert list(gamma.points) == [(1, 5), (2, 2), (5, 1)]
        assert gamma.period == 4
        assert gamma.genus == 3

    def test_m4_r7(self):
        gamma = kummer_generating_set(4, 7)
        assert gamma.genus == 9
        pts = set(map(tuple, gamma.points))
        assert {(b, a) for a, b in pts} == pts

    @pytest.mark.parametrize("m,r", [(2, 15), (31, 30), (10, 3), (5, 12)])
    def test_genus_formula(self, m, r):
        assert kummer_generating_set(m, r).genus == (m - 1) * (r - 1) // 2


class TestRowBoxes:
    def test_m4_r3(self):
        assert kummer_gamma_k0(4, 3, 0) == [(2, 2)]
        assert kummer_gamma_k0(4, 3, 1) == [(5, 1)]
        assert kummer_gamma_k0(4, 3, 2) == []
        assert kummer_card_gamma_k0(4, 3, 0) == 1
        assert kummer_card_gamma_k0(4, 3, 1) == 1
        assert kummer_card_gamma_k0(4, 3, 2) == 0

    def test_m4_r7_top_index(self):
        # ceil(24/7) - ceil(20/7) = 1 at the top box
        assert kummer_card_gamma_k0(4, 7, 4) == 1
        assert kummer_gamma_k0(4, 7, 4) == [(17, 1)]

    @pytest.mark.parametrize("m,r", [(4, 3), (4, 7), (7, 3), (6, 11),
                                     (3, 8), (15, 4), (5, 13)])
    def test_lists_match_counts_and_genus(self, m, r):
        top = KummerParams(m, r).top_box
        total = 0
        for k in range(top + 2):
            row = kummer_gamma_k0(m, r, k)
            assert len(row) == kummer_card_gamma_k0(m, r, k)
            total += (k + 1) * len(row)
        assert total == (m - 1) * (r - 1) // 2

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParamsError):
            kummer_gamma_k0(4, 3, -1)
        for component in (kummer_g1, kummer_g3):
            with pytest.raises(InvalidParamsError, match="nonnegative"):
                component(4, 3, -1)


class TestComponents:
    def test_m4_r3_k0(self):
        assert flatten(kummer_g1(4, 3, 0)) == [(1, 1)]
        assert flatten(kummer_g3(4, 3, 0)) == [(2, 1)]
        # G4 is the reflected G3 by the diagonal law (G2 is empty)
        assert flatten(reflect(kummer_g3(4, 3, 0))) == [(1, 2)]

    def test_m4_r7_k0_square(self):
        assert flatten(kummer_g1(4, 7, 0)) == \
            [(1, 1), (1, 2), (2, 1), (2, 2)]
        # every column is the one mask of the square's side
        assert kummer_g1(4, 7, 0) == {1: 0b110, 2: 0b110}

    @pytest.mark.parametrize("m,r", [(4, 3), (4, 7), (6, 11), (3, 8)])
    def test_top_box_components_empty(self, m, r):
        top = KummerParams(m, r).top_box
        base = top * m
        assert flatten(kummer_g1(m, r, top), base) == []
        assert flatten(kummer_g3(m, r, top), base) == []

    @pytest.mark.parametrize("m,r", COPRIME_GRID)
    def test_columns_match_points(self, m, r):
        # the flattened columns equal the one-tuple-per-point index sets,
        # on every box and the first empty one beyond the top
        for k in range(KummerParams(m, r).top_box + 2):
            for columns, points in (
                    (kummer_g1, reference.kummer_g1_points),
                    (kummer_g3, reference.kummer_g3_points)):
                got = columns(m, r, k)
                assert flatten(got, m * k) == points(m, r, k)
                assert all(got.values())
            # the diagonal law's G4 is the reference's reflected G3
            assert flatten(reflect(kummer_g3(m, r, k)), m * k) == \
                reference.kummer_g4_points(m, r, k)

    @pytest.mark.parametrize("m,r", [(4, 3), (4, 7), (7, 3), (6, 11),
                                     (3, 8), (15, 4), (12, 7), (5, 14)])
    def test_match_generic_engine(self, m, r):
        boxed = decompose(kummer_generating_set(m, r))
        check_components(boxed, per_box=kummer_components(m, r),
                         **engine_side(boxed))

    @pytest.mark.parametrize("k", [4, 9])
    @pytest.mark.parametrize("index, name", [
        (0, "Gamma_k0"), (1, "G1"), (2, "G3")])
    def test_box_beyond_kmax_compared(self, k, index, name):
        # (7, 5) has kmax 4: the engine's boxes 4 and 9 are empty, so a
        # family set there with a point fails, and one without passes
        boxed = decompose(kummer_generating_set(7, 5))
        assert boxed.kmax == 4
        engine = engine_side(boxed)
        per_box = kummer_components(7, 5)
        per_box[k] = ((), {}, {})
        check_components(boxed, per_box=per_box, **engine)
        sets = [(), {}, {}]
        sets[index] = [(7 * k + 1, 1)] if index == 0 else {1: 0b10}
        per_box[k] = tuple(sets)
        with pytest.raises(GenericMismatchError,
                           match=rf"^k={k}: explicit {name} has 1 points, "
                                 rf"engine has 0$"):
            check_components(boxed, per_box=per_box, **engine)

    def test_row_count_formula_checked(self, monkeypatch):
        # each explicit row is checked against |Gamma_k0|, so a wrong count
        # formula fails the verdict
        real = kummer_mod.kummer_card_gamma_k0
        monkeypatch.setattr(kummer_mod, "kummer_card_gamma_k0",
                            lambda m, r, k: real(m, r, k) + 1)
        report = harness.verify_point("kummer", {"m": 7, "r": 5})
        assert report.verdicts["components_vs_generic"] == "fail"
        assert ("components_vs_generic: (m, r)=(7, 5) k=0: explicit row has "
                "1 points, |Gamma_k0| formula gives 2") in report.detail


def explicit_g0(m, r):
    """G0 merged from the explicit components of (m, r), whose size must be
    the closed-form sum, and the bounds from the explicit row sizes."""
    params = KummerParams(m, r)
    g0 = merge_components(diagonal_parts(kummer_components(m, r)), m)
    bnd = bounds_from_row_sizes(
        [kummer_card_gamma_k0(m, r, k) for k in range(params.top_box + 1)],
        params.genus)
    assert len(g0) == kummer_card_g0(m, r)
    return g0, bnd


class TestClosedForms:
    @pytest.mark.parametrize("m,r,expected", [
        (4, 3, 3), (4, 7, 29), (7, 3, 12), (6, 11, 230), (4, 11, 81),
        (3, 8, 17),
    ])
    def test_card_values(self, m, r, expected):
        assert kummer_card_g0(m, r) == expected

    @pytest.mark.parametrize("m,r", [(4, 3), (4, 7), (7, 3), (6, 11), (3, 8)])
    def test_card_matches_enumeration(self, m, r):
        gamma = kummer_generating_set(m, r)
        assert kummer_card_g0(m, r) == len(pure_gaps_direct(gamma))

    def test_assembled_matches_engine(self):
        for m, r in [(4, 3), (4, 7), (6, 11)]:
            gamma = kummer_generating_set(m, r)
            engine = assemble_pure_gaps(decompose(gamma))
            explicit, _ = explicit_g0(m, r)
            assert g0_boxes(explicit) == g0_boxes(engine)
            assert g0_points(engine) == pure_gaps_direct(gamma)

    def test_m4_r3_pure_gaps(self):
        g0, bnd = explicit_g0(4, 3)
        assert g0_points(g0) == [(1, 1), (1, 2), (2, 1)]
        assert len(g0) == 3
        assert bnd.upper == 3


class TestSpecialUr1:
    def test_values(self):
        assert kummer_card_special_ur1(1, 3) == 3
        assert kummer_card_special_ur1(2, 3) == 12
        assert kummer_card_special_ur1(1, 2) == 0

    def test_matches_general_sum_grid(self):
        for u in range(1, 4):
            for r in range(2, 11):
                value = kummer_card_special_ur1(u, r)
                assert value == kummer_card_g0(u * r + 1, r)

    def test_sharpness_at_u1(self):
        for r in range(3, 11):
            g0, bnd = explicit_g0(r + 1, r)
            assert len(g0) == bnd.upper
            assert len(g0) == (r - 1) * (r - 2) * r * (r + 3) // 12

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            kummer_card_special_ur1(0, 5)
        with pytest.raises(InvalidParamsError):
            kummer_card_special_ur1(1, 1)


class TestSpecialQN:
    @pytest.mark.parametrize("q,N,expected", [
        (7, 2, 29), (8, 3, 17), (11, 2, 230), (11, 3, 81),
    ])
    def test_values(self, q, N, expected):
        assert kummer_card_special_qN(q, N) == expected

    def test_equals_general_sum(self):
        assert kummer_card_special_qN(7, 2) == kummer_card_g0(4, 7)
        assert kummer_card_special_qN(11, 2) == kummer_card_g0(6, 11)

    def test_preconditions(self):
        with pytest.raises(InvalidParamsError):
            kummer_card_special_qN(7, 3)   # 3 does not divide 8
        with pytest.raises(InvalidParamsError, match="q - 2 - N >= 0"):
            kummer_card_special_qN(5, 6)   # 6 divides 6, but q - 2 - N < 0
        with pytest.raises(InvalidParamsError):
            kummer_card_special_qN(1, 1)


def test_empty_boxes_for_large_m():
    # boxes beyond r-2 must stay empty even when m exceeds r^2
    for m, r in [(10, 3), (26, 5), (37, 6), (50, 7)]:
        boxed = decompose(kummer_generating_set(m, r))
        assert all(k <= r - 2 for k in boxed.rows)
        assert kummer_card_gamma_k0(m, r, r - 1) == 0
