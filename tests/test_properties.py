"""Randomized invariant checks over the family grids.

The heavy lifting lives in props.py so the acceptance suite can rerun the
same properties at its own case counts.
"""

import io

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from puregaps.cli import _stream_pure_gaps
from puregaps.engine import (
    assemble_pure_gaps,
    box_columns,
    box_components,
    decompose,
)
from puregaps.errors import ValidationError
from puregaps.harness import summarize_generic
from puregaps.lattice import validate_generating_set
from puregaps.oracle import pure_gap_boxes_direct, pure_gaps_direct

import props
from reference import _residue_runs, glb, incomparable, lub, merge_box

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


@st.composite
def non_diagonal_sets(draw):
    """Validated generating sets that are not diagonal.

    A random matching pairs first-coordinate residues ``r`` with
    second-coordinate residues ``s``; each pair, with a random height
    ``h``, is one chain of the period law, the points
    ``(r + i*period, s + (h - i)*period)`` for ``0 <= i <= h``.  Sets that
    validation rejects (a coordinate above ``2g - 1``) or that are
    diagonal are filtered out.
    """
    period = draw(st.integers(min_value=3, max_value=12))
    n = draw(st.integers(min_value=2, max_value=period - 1))
    residues = st.integers(min_value=1, max_value=period - 1)
    firsts = draw(st.lists(residues, min_size=n, max_size=n, unique=True))
    seconds = draw(st.lists(residues, min_size=n, max_size=n, unique=True))
    heights = draw(st.lists(st.integers(min_value=0, max_value=4),
                            min_size=n, max_size=n))
    points = [(r + i * period, s + (h - i) * period)
              for r, s, h in zip(firsts, seconds, heights)
              for i in range(h + 1)]
    try:
        gamma = validate_generating_set(points, period)
    except ValidationError:
        assume(False)
    assume(not decompose(gamma).diagonal)
    return gamma


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(non_diagonal_sets())
def test_non_diagonal_engine_matches_references(gamma):
    """On validated non-diagonal sets: box_columns equals the per-box merge
    regrouped point by point, the engine's G0 equals the oracle's (as
    points, box by box and as listed text), and nothing raises a
    ConsistencyError."""
    boxed = decompose(gamma)
    for k in range(boxed.kmax):
        merged = merge_box(k, box_components(boxed, k))
        assert box_columns(boxed, k) == \
            _residue_runs({k: merged}, boxed.period).get(k, {})
    direct = pure_gaps_direct(gamma)
    result = assemble_pure_gaps(boxed)
    assert result.g0 == direct
    assert result.g0.equals_boxes(pure_gap_boxes_direct(gamma))
    out = io.StringIO()
    _stream_pure_gaps(boxed, "tsv", out)
    assert out.getvalue() == "".join(f"{a}\t{b}\n" for a, b in direct)
    report = summarize_generic(gamma, "drawn")
    assert report.ok, report.detail
