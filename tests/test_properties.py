"""Randomized invariant checks over the family grids.

The heavy lifting lives in props.py so the acceptance suite can rerun the
same properties at its own case counts.
"""

from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import puregaps.engine as engine
from puregaps.engine import (
    BoxedGamma,
    PureGapSet,
    assemble_pure_gaps,
    bounds,
    components_by_box,
    decompose,
)
from puregaps.errors import (
    CardinalityMismatchError,
    ConsistencyError,
    DisjointnessViolationError,
)
from puregaps.harness import oracle_mismatch, summarize_generic
from puregaps.kummer import kummer_generating_set
from puregaps.lattice import (
    GeneratingSet,
    set_bits,
    validate_generating_set,
)
from puregaps.oracle import (
    band_span,
    pure_gap_boxes_direct,
    pure_gaps_direct,
)

import props
import reference
from props import (
    injective_pairs,
    non_diagonal_sets,
    residue_chain_sets,
    spread_pairs,
)
from reference import (
    _residue_runs,
    column_runs,
    flatten,
    g0_boxes,
    g0_points,
    glb,
    incomparable,
    lub,
    merge_box,
    oracle_mismatch_by_period,
    pure_gap_boxes_by_period,
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
    """On validated non-diagonal sets: each box of the engine's G0 equals
    the per-box merge of its components regrouped point by point, the
    engine's G0 equals the oracle's (as points, box by box and as listed
    TSV and JSON text), the summary reports the oracle's count and the
    boxes' row sizes and bounds, and nothing raises a ConsistencyError."""
    boxed = decompose(gamma)
    g0 = assemble_pure_gaps(boxed)
    for k, parts in components_by_box(boxed):
        base = k * boxed.period
        merged = merge_box(k, [flatten(part, base) for part in parts])
        assert g0.box(k) == \
            _residue_runs({k: merged}, boxed.period).get(k, {})
    direct = pure_gaps_direct(gamma)
    assert g0_points(g0) == direct
    assert oracle_mismatch(g0, pure_gap_boxes_direct(gamma)) == ""
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


def perturbed(g0, kmax, data):
    """``g0`` with one edit drawn below box ``kmax``: a bit dropped from a
    column, a bit added to a column (maybe one it holds), a column added
    to a box, or a box added; a drop from an empty ``g0`` adds a box.
    ``g0`` itself when a period below 2 or ``kmax == 0`` leaves no place
    for a point."""
    period = g0.period
    if period < 2 or not kmax:
        return g0
    boxes = {k: dict(columns) for k, columns in g0.boxes()}
    cells = sorted((k, r) for k, columns in boxes.items() for r in columns)
    kind = data.draw(st.sampled_from(("drop", "bit", "column", "box")))
    if kind in ("drop", "bit") and cells:
        k, r = data.draw(st.sampled_from(cells))
    else:
        held = sorted(boxes) if kind == "column" else \
            [k for k in range(kmax) if k not in boxes]
        k = data.draw(st.sampled_from(held or range(kmax)))
        r = data.draw(st.integers(min_value=1, max_value=period - 1))
    columns = boxes.setdefault(k, {})
    if kind == "drop" and cells:
        columns[r] &= ~(1 << data.draw(st.sampled_from(set_bits(columns[r]))))
    else:
        columns[r] = columns.get(r, 0) | 1 << data.draw(
            st.integers(min_value=1, max_value=period - 1))
    return PureGapSet(column_runs(boxes), period)


def assert_mismatch_matches_reference(g0, gamma, kmax):
    """The comparison of ``g0`` with the banded scan gives the text of the
    one-period reference comparison, which sees every box below
    ``kmax``."""
    assert oracle_mismatch(g0, pure_gap_boxes_direct(gamma)) == \
        oracle_mismatch_by_period(g0, pure_gap_boxes_by_period(gamma), kmax)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.one_of(non_diagonal_sets(), residue_chain_sets(),
                 st.sampled_from(props.FAMILY_POOL + props.WIDE_FAMILY_POOL)
                 .map(props.get_gamma)), st.data())
def test_oracle_mismatch_matches_one_period_reference(gamma, data):
    """On validated sets, non-diagonal, with a chain at every residue of
    a period near ``BAND_BITS``, and the families: the engine's ``G0``
    passes the banded comparison, and with one edit below ``kmax`` the
    banded comparison gives the one-period reference's text."""
    boxed = decompose(gamma)
    g0 = assemble_pure_gaps(boxed)
    assert oracle_mismatch(g0, pure_gap_boxes_direct(gamma)) == ""
    assert_mismatch_matches_reference(perturbed(g0, boxed.kmax, data),
                                      gamma, boxed.kmax)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(injective_pairs(), spread_pairs()), props.band_periods,
       st.data())
def test_injective_oracle_mismatch_matches_reference(points, period, data):
    """On rows cut from unvalidated injective sets, whose ``G0`` the
    engine builds but the scan of the whole set need not match, with or
    without one edit below ``kmax``: the banded comparison's text is the
    one-period reference's."""
    boxed = injective_boxed(points, period)
    try:
        g0 = assemble_pure_gaps(boxed)
    except ConsistencyError:
        assume(False)
    gamma = GeneratingSet(points=tuple(points), period=period)
    assert_mismatch_matches_reference(g0, gamma, boxed.kmax)
    assert_mismatch_matches_reference(perturbed(g0, boxed.kmax, data),
                                      gamma, boxed.kmax)


def test_top_box_point_dropped_matches_reference():
    """Kummer (701, 7), bands of 3 periods: the lowest point of the first
    column of the top box, box 4, dropped.  The drop shows in every band
    that box 4 is merged into, below box column 4 too, so a comparison
    that carried the scan's box after a differing column would list too
    few points."""
    gamma = kummer_generating_set(701, 7)
    boxed = decompose(gamma)
    assert (gamma.genus, band_span(gamma.period), boxed.kmax) == (2100, 3, 6)
    boxes = dict(assemble_pure_gaps(boxed).boxes())
    top = max(boxes)
    assert top == 4
    column = min(boxes[top])
    boxes[top][column] &= boxes[top][column] - 1
    g0 = PureGapSet(column_runs(boxes), gamma.period)
    assert oracle_mismatch(g0, pure_gap_boxes_direct(gamma))
    assert_mismatch_matches_reference(g0, gamma, boxed.kmax)


COMPONENTS = (
    (engine.compute_g1, reference.compute_g1_points),
    (lambda boxed, k, _: engine.compute_g2(boxed, k),
     reference.compute_g2_points),
    (engine.compute_g3, reference.compute_g3_points),
    (engine.compute_g4, reference.compute_g4_points))


def assert_components_match_points(boxed):
    """Every box's compute_g1..g4, from the sweep's state and flattened,
    equal the one-tuple-per-point references; where the G1 cardinality
    check fails, both raise, and G2..G4 still match.  components_by_box
    yields those boxes, top down, and raises CardinalityMismatchError at
    the topmost box whose G1 check fails."""
    built = {}
    failed = None
    for k, state in engine._sweep(boxed):
        base = k * boxed.period
        parts = []
        for compute, points in COMPONENTS:
            try:
                want = points(boxed, k)
            except CardinalityMismatchError:
                with pytest.raises(CardinalityMismatchError):
                    compute(boxed, k, state)
                failed = k if failed is None else failed
                continue
            got = compute(boxed, k, state)
            assert flatten(got, base) == want
            assert list(got) == sorted(got) and all(got.values())
            parts.append(got)
        if failed is None:
            built[k] = tuple(parts)
    yielded = {}
    with pytest.raises(CardinalityMismatchError) if failed is not None \
            else nullcontext():
        for k, parts in components_by_box(boxed):
            yielded[k] = parts
    assert yielded == built


#: A non-diagonal set whose shifted first coordinates ``F`` and second
#: coordinates ``S`` above a row differ, so a component built from one in
#: place of the other fails on it with no random draw.
ND7 = validate_generating_set([
    (1, 31), (2, 30), (4, 5), (5, 6), (6, 22), (8, 24), (9, 23), (13, 15),
    (15, 17), (16, 16), (20, 8), (22, 10), (23, 9), (27, 1), (29, 3),
    (30, 2)], 7)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(non_diagonal_sets())
@example(ND7)
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
    assert_components_match_points(injective_boxed(points, period))


def injective_boxed(points, period):
    """The rows of an unvalidated injective set, cut into boxes."""
    rows = {}
    for a, b in sorted(points):
        if b < period:
            rows.setdefault(a // period, []).append((a, b))
    return BoxedGamma(rows={k: tuple(row) for k, row in rows.items()},
                      period=period, genus=len(points),
                      kmax=max(rows, default=-1) + 1, diagonal=False)


@settings(max_examples=300, deadline=None)
@given(injective_pairs(), st.integers(min_value=1, max_value=50))
@example([(1, 1), (10, 2), (15, 3)], 5)
@example([(2, 1), (7, 3)], 5)
def test_injective_assemble_matches_points(points, period):
    """assemble_pure_gaps on unvalidated injective rows: it raises exactly
    when some box fails the G1 count (CardinalityMismatchError) or has a
    shifted first coordinate among its row's own
    (DisjointnessViolationError), with the class of the topmost such box;
    else exactly when a box's merge of the four references has a point at
    residue 0, outside the box (DisjointnessViolationError); else every
    box is that merge."""
    boxed = injective_boxed(points, period)
    error = None
    want = {}
    for k in reversed(range(boxed.kmax)):
        try:
            g1 = reference.compute_g1_points(boxed, k)
        except CardinalityMismatchError:
            error = CardinalityMismatchError
            break
        if {a for a, _ in g1} & {a for a, _ in boxed.row(k)}:
            error = DisjointnessViolationError
            break
        want[k] = merge_box(k, [points(boxed, k) for _, points in COMPONENTS])
    if error is None and any(a % period == 0 for box in want.values()
                             for a, _ in box):
        error = DisjointnessViolationError
    if error is not None:
        with pytest.raises(error):
            assemble_pure_gaps(boxed)
        return
    g0 = assemble_pure_gaps(boxed)
    assert g0_boxes(g0) == _residue_runs(want, period)
