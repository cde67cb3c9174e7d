"""Acceptance suite: one test per criterion, in order, each printing a
PASS line with the measured facts once its assertions hold.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from math import gcd

from puregaps.cli import main as cli_main
from puregaps.engine import assemble_pure_gaps, bounds, \
    bounds_from_row_sizes, components_by_box, decompose, reflect
from puregaps.gk import (
    GKParams,
    gk_card_g0,
    gk_g1,
    gk_g3,
    gk_generating_set,
    gk_upper_bound,
)
from puregaps.harness import bench_family
from puregaps.kummer import (
    KummerParams,
    kummer_card_g0,
    kummer_card_gamma_k0,
    kummer_card_special_qN,
    kummer_card_special_ur1,
    kummer_components,
    kummer_generating_set,
)
from puregaps.oracle import pure_gaps_direct

import expected_gk2 as gk2
import props
from reference import (
    diagonal_parts,
    flatten,
    g0_points,
    merge_components,
)

KUMMER_GRID = [(m, r) for m in range(2, 16) for r in range(2, 16)
               if gcd(m, r) == 1]


def _passed(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_gk_q2_exact_reproduction(capsys):
    start = time.perf_counter()
    code = cli_main(["gk", "--q", "2", "--emit", "puregaps"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [f"{a}\t{b}" for a, b in gk2.G0_SORTED]

    code = cli_main(["gk", "--q", "2", "--emit", "summary"])
    summary = capsys.readouterr().out
    fields = dict(line.split("\t", 1) for line in summary.splitlines())
    assert code == 0
    assert fields["cardinality"] == "35"
    assert fields["genus"] == "10"
    assert fields["period"] == "9"
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(1, f"35-point listing and summary exact, {elapsed:.3f}s")


def test_criterion_2_gk_q2_component_sets(capsys):
    boxed = decompose(gk_generating_set(2))
    routes = {
        "engine": {(f"G{i + 1}", k): part
                   for k, parts in components_by_box(boxed)
                   for i, part in enumerate(parts)},
        # the family is diagonal: G2 is empty and G4 the reflected G3
        "explicit": {
            ("G1", 0): gk_g1(2, 0), ("G1", 1): gk_g1(2, 1),
            ("G3", 0): gk_g3(2, 0), ("G3", 1): gk_g3(2, 1),
            ("G4", 0): reflect(gk_g3(2, 0)),
            ("G4", 1): reflect(gk_g3(2, 1)),
            ("G2", 0): {}, ("G2", 1): {}, ("G2", 2): {},
        },
    }
    expected = {
        ("G1", 0): gk2.G1_0, ("G1", 1): gk2.G1_1,
        ("G3", 0): gk2.G3_0, ("G3", 1): gk2.G3_1,
        ("G4", 0): gk2.G4_0, ("G4", 1): gk2.G4_1,
        ("G2", 0): [], ("G2", 1): [], ("G2", 2): [],
    }
    for route, computed in routes.items():
        for key, want in expected.items():
            assert flatten(computed[key], 9 * key[1]) == want, (route, key)
    with capsys.disabled():
        _passed(2, "all q=2 component sets match on both routes")


def test_criterion_3_gk_closed_form_vs_enumeration(capsys):
    start = time.perf_counter()
    cards = {}
    for q in (2, 3, 4, 5):
        gamma = gk_generating_set(q)
        engine = assemble_pure_gaps(decompose(gamma))
        direct = pure_gaps_direct(gamma)
        closed = gk_card_g0(q)
        assert closed == len(engine) == len(direct)
        assert g0_points(engine) == direct
        cards[q] = closed
    elapsed = time.perf_counter() - start
    assert cards[3] == 3471
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(3, f"q in 2..5 all routes agree {cards}, {elapsed:.2f}s")


def test_criterion_4_kummer_closed_form_vs_enumeration(capsys):
    start = time.perf_counter()
    for m, r in KUMMER_GRID:
        gamma = kummer_generating_set(m, r)
        engine = assemble_pure_gaps(decompose(gamma))
        direct = pure_gaps_direct(gamma)
        assert kummer_card_g0(m, r) == len(engine) == len(direct)
        assert g0_points(engine) == direct
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(4, f"{len(KUMMER_GRID)} coprime pairs m,r <= 15 agree, "
                   f"{elapsed:.2f}s")


def test_criterion_5_special_cases(capsys):
    for u in range(1, 4):
        for r in range(2, 11):
            closed = kummer_card_special_ur1(u, r)
            gamma = kummer_generating_set(u * r + 1, r)
            assert closed == len(pure_gaps_direct(gamma))
    qn_values = {}
    for q, N in ((7, 2), (8, 3), (11, 2), (11, 3)):
        closed = kummer_card_special_qN(q, N)
        gamma = kummer_generating_set((q + 1) // N, q)
        assert closed == len(pure_gaps_direct(gamma))
        qn_values[(q, N)] = closed
    assert qn_values[(7, 2)] == 29
    with capsys.disabled():
        _passed(5, f"ur1 sweep u<=3, r<=10 and qN values {qn_values} match "
                   "enumeration")


def test_criterion_6_sharpness(capsys):
    for r in range(3, 11):
        params = KummerParams(r + 1, r)
        m = params.m
        g0 = merge_components(diagonal_parts(kummer_components(m, r)), m)
        upper = bounds_from_row_sizes(
            [kummer_card_gamma_k0(m, r, k) for k in range(params.top_box + 1)],
            params.genus).upper
        assert len(g0) == kummer_card_g0(m, r)
        assert len(g0) == upper
    with capsys.disabled():
        _passed(6, "upper bound attained for m=r+1, r in 3..10")


def test_criterion_7_bound_sandwich(capsys):
    for q in (2, 3, 4, 5):
        boxed = decompose(gk_generating_set(q))
        card, bnd = len(assemble_pure_gaps(boxed)), bounds(boxed)
        assert bnd.lower <= card <= bnd.upper
        assert card <= bnd.homma_kim
        if q >= 3:
            assert bnd.upper < bnd.homma_kim
    assert gk_upper_bound(3) == 4037
    g3 = GKParams(3).genus
    assert g3 * (g3 - 1) // 2 == 4851
    for m, r in KUMMER_GRID:
        boxed = decompose(kummer_generating_set(m, r))
        card, bnd = len(assemble_pure_gaps(boxed)), bounds(boxed)
        assert bnd.lower <= card <= bnd.upper
        assert card <= bnd.homma_kim
    with capsys.disabled():
        _passed(7, "every tested input has lower <= |G0| <= upper and "
                   "|G0| <= g(g-1)/2; at q=3: 3471 <= 4037 < 4851")


def test_criterion_8_property_suite(capsys):
    with capsys.disabled():
        for name, runner in props.ALL_RUNNERS:
            count = runner(1000)
            assert count >= 1000
            _passed(8, f"property {name}: {count} random cases")


def test_criterion_9_benchmark_sanity(capsys):
    rows = bench_family("gk", {"q": 7})
    assert all(row.outputs_equal for row in rows)
    assert rows[0].genus == 8085
    assert {row.method for row in rows} == {"box-decomposition", "direct-glb"}
    assert all(row.seconds >= 0.0 for row in rows)
    timing = ", ".join(f"{row.method}={row.seconds:.2f}s" for row in rows)
    assert rows[0].cardinality == rows[1].cardinality == gk_card_g0(7)
    with capsys.disabled():
        _passed(9, f"GK q=7 (g=8085) outputs identical, {timing}, "
                   f"|G0|={rows[0].cardinality}")
