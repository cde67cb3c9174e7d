"""Randomized invariant checks over the family grids.

The heavy lifting lives in props.py so the acceptance suite can rerun the
same properties at its own case counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import props
from reference import glb, incomparable, lub

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
