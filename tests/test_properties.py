"""Randomized invariant checks over the family grids.

The heavy lifting lives in props.py so the acceptance suite can rerun the
same properties at its own case counts.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from puregaps.engine import (
    BoxedGamma,
    assemble_pure_gaps,
    bounds,
    box_columns,
    box_components,
    compute_g1,
    compute_g2,
    compute_g3,
    compute_g4,
    decompose,
)
from puregaps.errors import CardinalityMismatchError
from puregaps.harness import oracle_mismatch, summarize_generic
from puregaps.oracle import pure_gap_boxes_direct, pure_gaps_direct

import props
import reference
from props import injective_pairs, non_diagonal_sets
from reference import (
    _residue_runs,
    flatten,
    g0_points,
    glb,
    incomparable,
    lub,
    merge_box,
)

N = 1000


def test_lattice_laws_random():
    assert props.run_lattice_laws(N) == N


def test_genus_identity_random():
    assert props.run_genus_identity(N) == N


def test_period_checker_random():
    assert props.run_period_checker(N) == N


def test_swap_symmetry_random():
    assert props.run_swap_symmetry(N) == N


def test_translate_disjointness_random():
    assert props.run_translate_disjointness(N) == N


def test_diagonal_agreement_random():
    assert props.run_diagonal_agreement(N) == N


def test_kummer_empty_boxes_random():
    assert props.run_kummer_empty_boxes(N) == N


coords = st.integers(min_value=0, max_value=2**60)
pts = st.tuples(coords, coords)


@settings(max_examples=500, deadline=None)
@given(pts, pts, pts)
def test_lub_glb_associative_and_absorbing(p, q, r):
    assert lub(lub(p, q), r) == lub(p, lub(q, r))
    assert glb(glb(p, q), r) == glb(p, glb(q, r))
    assert lub(p, glb(p, q)) == p
    assert glb(p, lub(p, q)) == p


@settings(max_examples=500, deadline=None)
@given(pts, pts)
def test_glb_lub_swap_commute(p, q):
    def swap(x):
        return (x[1], x[0])

    assert swap(glb(p, q)) == glb(swap(p), swap(q))
    assert swap(lub(p, q)) == lub(swap(p), swap(q))
    assert incomparable(p, q) == incomparable(swap(p), swap(q))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(non_diagonal_sets())
def test_non_diagonal_engine_matches_references(gamma):
    """On validated non-diagonal sets: box_columns equals the per-box merge
    regrouped point by point, the engine's G0 equals the oracle's (as
    points, box by box and as listed TSV and JSON text), the summary
    reports the oracle's count and the boxes' row sizes and bounds, and
    nothing raises a ConsistencyError."""
    boxed = decompose(gamma)
    for k in range(boxed.kmax):
        base = k * boxed.period
        merged = merge_box(k, [flatten(part, base)
                               for part in box_components(boxed, k)])
        assert box_columns(boxed, k) == \
            _residue_runs({k: merged}, boxed.period).get(k, {})
    direct = pure_gaps_direct(gamma)
    g0 = assemble_pure_gaps(boxed)
    assert g0_points(g0) == direct
    assert oracle_mismatch(g0, pure_gap_boxes_direct(gamma), boxed.kmax) == ""
    assert "".join(g0.pieces("tsv")) == \
        "".join(f"{a}\t{b}\n" for a, b in direct)
    assert "".join(g0.pieces("json")) == \
        "[" + ",".join(f"[{a},{b}]" for a, b in direct) + "]\n"
    report = summarize_generic(gamma, "drawn")
    assert report.ok, report.detail
    assert report.cardinality == len(direct)
    assert report.row_sizes == boxed.row_sizes()
    assert (report.lower_bound, report.upper_bound,
            report.homma_kim_bound) == tuple(bounds(boxed))


COMPONENTS = ((compute_g1, reference.compute_g1_points),
              (compute_g2, reference.compute_g2_points),
              (compute_g3, reference.compute_g3_points),
              (compute_g4, reference.compute_g4_points))


def assert_components_match_points(boxed):
    """Every box's compute_g1..g4, flattened, equal the one-tuple-per-point
    references; where the G1 cardinality check fails, both raise."""
    for k in range(boxed.kmax + 1):
        base = k * boxed.period
        for compute, points in COMPONENTS:
            try:
                want = points(boxed, k)
            except CardinalityMismatchError:
                with pytest.raises(CardinalityMismatchError):
                    compute(boxed, k)
                continue
            got = compute(boxed, k)
            assert flatten(got, base) == want
            assert list(got) == sorted(got) and all(got.values())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(non_diagonal_sets())
def test_non_diagonal_components_match_points(gamma):
    assert_components_match_points(decompose(gamma))


@settings(max_examples=300, deadline=None)
@given(injective_pairs(), st.integers(min_value=1, max_value=50))
# 10 and 15 both shift to 0 in box 0, so G4 meets one column twice
@example([(1, 1), (10, 2), (15, 3)], 5)
# 7 shifts to 2, box 0's own residue: G4 is strict there and stays empty
@example([(2, 1), (7, 3)], 5)
def test_injective_components_match_points(points, period):
    """Rows cut from unvalidated injective sets: no genus identity, and
    shifted first coordinates may meet a row's own or repeat."""
    rows = {}
    for a, b in sorted(points):
        if b < period:
            rows.setdefault(a // period, []).append((a, b))
    boxed = BoxedGamma(rows={k: tuple(row) for k, row in rows.items()},
                       period=period, genus=len(points),
                       kmax=max(rows, default=-1) + 1, diagonal=False)
    assert_components_match_points(boxed)
