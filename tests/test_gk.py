import os
import subprocess
import sys
from pathlib import Path

import pytest

import puregaps.gk as gk_mod
import puregaps.harness as harness
from puregaps.engine import (
    assemble_pure_gaps,
    bounds,
    bounds_from_row_sizes,
    check_components,
    decompose,
    reflect,
)
from puregaps.errors import (
    GenericMismatchError,
    InvalidParamsError,
)
from puregaps.gk import (
    GKParams,
    gk_card_g0,
    gk_card_gamma_k0,
    gk_components,
    gk_g1,
    gk_g3,
    gk_gamma_k0,
    gk_generating_set,
    gk_upper_bound,
)
from puregaps.oracle import pure_gaps_direct

import expected_gk2 as gk2
import reference
from reference import (
    diagonal_parts,
    drop_first_point,
    engine_side,
    flatten,
    g0_boxes,
    g0_points,
    merge_components,
)


class TestParams:
    def test_derived_quantities(self):
        p = GKParams(2)
        assert p.genus == 10
        assert p.period == 9
        p = GKParams(3)
        assert p.genus == 99
        assert p.period == 28

    def test_q_below_two_rejected(self):
        with pytest.raises(InvalidParamsError):
            GKParams(1)
        with pytest.raises(InvalidParamsError):
            GKParams(0)

    def test_non_prime_power_warns(self):
        with pytest.warns(UserWarning):
            GKParams(6)

    def test_prime_powers_do_not_warn(self, recwarn):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27):
            GKParams(q)
        assert not recwarn.list

    def test_non_prime_power_warns_once_per_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        code = ("from puregaps.gk import gk_g1, gk_g3, gk_card_g0; "
                "gk_g1(6, 30); gk_g3(6, 30); gk_card_g0(6)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0
        warned = [line for line in proc.stderr.splitlines()
                  if "UserWarning" in line]
        assert len(warned) == 1
        assert "q=6 is not a prime power" in warned[0]


class TestGeneratingSet:
    def test_q2_exact(self):
        gamma = gk_generating_set(2)
        assert list(gamma.points) == sorted(gk2.GAMMA)
        assert gamma.period == 9
        assert gamma.genus == 10

    def test_q2_index_triples(self):
        # the points of index triples (i, j, k) = (2, 0, 1), (1, 2, 2) and
        # (2, 2, 3)
        points = gk_generating_set(2).points
        for point in ((3, 3), (13, 4), (19, 1)):
            assert point in points

    @pytest.mark.parametrize("q,genus", [(2, 10), (3, 99), (4, 456), (5, 1450)])
    def test_genus_formula(self, q, genus):
        assert gk_generating_set(q).genus == genus


class TestRowBoxes:
    def test_q2_rows(self):
        assert gk_gamma_k0(2, 0) == gk2.ROWS[0]
        assert gk_gamma_k0(2, 1) == gk2.ROWS[1]
        assert gk_gamma_k0(2, 2) == gk2.ROWS[2]
        assert gk_gamma_k0(2, 3) == []

    def test_q2_cards(self):
        assert [gk_card_gamma_k0(2, k) for k in range(4)] == [3, 2, 1, 0]

    def test_q3_piecewise_branches(self):
        assert gk_card_gamma_k0(3, 1) == 4   # k+3 branch
        assert gk_card_gamma_k0(3, 7) == 1   # q^2-1-k branch
        assert [gk_card_gamma_k0(3, k) for k in range(8)] == \
            [3, 4, 4, 4, 4, 3, 2, 1]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_genus_identity(self, q):
        total = sum((k + 1) * gk_card_gamma_k0(q, k) for k in range(q * q))
        assert total == GKParams(q).genus

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_lists_match_counts(self, q):
        for k in range(q * q):
            assert len(gk_gamma_k0(q, k)) == gk_card_gamma_k0(q, k)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParamsError):
            gk_card_gamma_k0(2, -1)
        for component in (gk_g1, gk_g3):
            with pytest.raises(InvalidParamsError, match="nonnegative"):
                component(2, -1)


class TestComponents:
    def test_q2_explicit_sets(self):
        assert flatten(gk_g1(2, 0)) == gk2.G1_0
        assert flatten(gk_g1(2, 1), 9) == gk2.G1_1
        assert flatten(gk_g3(2, 0)) == gk2.G3_0
        assert flatten(gk_g3(2, 1), 9) == gk2.G3_1
        # G4 is the reflected G3 by the diagonal law (G2 is empty)
        assert flatten(reflect(gk_g3(2, 0))) == gk2.G4_0
        assert flatten(reflect(gk_g3(2, 1)), 9) == gk2.G4_1

    def test_top_box_components_empty(self):
        for q in (2, 3):
            base = (q * q - 2) * (q**3 + 1)
            assert flatten(gk_g1(q, q * q - 2), base) == []
            assert flatten(gk_g3(q, q * q - 2), base) == []

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_columns_match_points(self, q):
        # the flattened columns equal the one-tuple-per-point index sets,
        # on every box and the first empty one beyond the top
        for k in range(q * q):
            base = k * (q**3 + 1)
            for columns, points in ((gk_g1, reference.gk_g1_points),
                                    (gk_g3, reference.gk_g3_points)):
                got = columns(q, k)
                assert flatten(got, base) == points(q, k)
                assert all(got.values())
            # the diagonal law's G4 is the reference's reflected G3
            assert flatten(reflect(gk_g3(q, k)), base) == \
                reference.gk_g4_points(q, k)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_match_generic_engine(self, q):
        boxed = decompose(gk_generating_set(q))
        check_components(boxed, per_box=gk_components(q),
                         **engine_side(boxed))

    def test_mismatch_names_box_and_component(self):
        per_box = gk_components(2)
        row, g1, g3 = per_box[1]
        per_box[1] = row, g1, drop_first_point(g3)

        boxed = decompose(gk_generating_set(2))
        with pytest.raises(GenericMismatchError,
                           match=r"^k=1: explicit G3 has 1 points, "
                                 r"engine has 2$"):
            check_components(boxed, per_box=per_box, **engine_side(boxed))

    def test_upper_bound_polynomial_checked(self, monkeypatch):
        # gk_components compares the explicit rows' upper bound with the
        # polynomial, and check_components those rows with the engine's,
        # so a wrong polynomial fails the verdict
        real = gk_mod.gk_upper_bound
        monkeypatch.setattr(gk_mod, "gk_upper_bound", lambda q: real(q) + 1)
        report = harness.verify_point("gk", {"q": 3})
        assert report.verdicts["components_vs_generic"] == "fail"
        assert ("components_vs_generic: row-size upper bound 4037 differs "
                "from polynomial 4038 at q=3") in report.detail


class TestClosedForms:
    def test_card_values(self):
        assert gk_card_g0(2) == 35
        assert gk_card_g0(3) == 3471
        assert gk_card_g0(4) == 71778
        assert gk_card_g0(5) == 716288

    def test_upper_bound_values(self):
        assert gk_upper_bound(2) == 47
        assert gk_upper_bound(3) == 4037
        assert gk_upper_bound(4) == 78834
        assert gk_upper_bound(5) == 763454

    def test_bound_vs_generic_homma_kim(self):
        # below g(g-1)/2 from q=3 on, above it at q=2
        assert gk_upper_bound(2) > 45
        for q in (3, 4, 5, 7):
            g = GKParams(q).genus
            assert gk_upper_bound(q) < g * (g - 1) // 2


def explicit_g0(q):
    """G0 merged from the explicit components of q, with the closed-form
    checks of the explicit route: its size is the cardinality polynomial
    and the bounds from the explicit row sizes; the upper one is the
    upper-bound polynomial."""
    params = GKParams(q)
    g0 = merge_components(diagonal_parts(gk_components(q)), params.period)
    bnd = bounds_from_row_sizes(
        [gk_card_gamma_k0(q, k) for k in range(q * q - 1)], params.genus)
    assert len(g0) == gk_card_g0(q)
    assert bnd.upper == gk_upper_bound(q)
    return g0, bnd


class TestPureGaps:
    def test_q2_full_listing(self):
        g0, bnd = explicit_g0(2)
        assert g0_points(g0) == gk2.G0_SORTED
        assert len(g0) == 35
        assert tuple(bnd) == (11, 47, 45)

    def test_q2_swap_symmetric(self):
        g0 = set(g0_points(explicit_g0(2)[0]))
        assert {(b, a) for a, b in g0} == g0

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_three_routes_agree(self, q):
        gamma = gk_generating_set(q)
        boxed = decompose(gamma)
        engine = assemble_pure_gaps(boxed)
        explicit, _ = explicit_g0(q)
        direct = pure_gaps_direct(gamma)
        assert g0_boxes(explicit) == g0_boxes(engine)
        assert g0_points(engine) == direct
        assert len(explicit) == gk_card_g0(q)
        assert bounds(boxed).upper == gk_upper_bound(q)
