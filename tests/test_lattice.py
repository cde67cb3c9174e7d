import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregaps.errors import (
    CoordinateDivisibleByPeriodError,
    DuplicateFirstCoordinateError,
    DuplicateSecondCoordinateError,
    GapBeyondGenusBoundError,
    InvalidParamsError,
    PeriodPropertyViolationError,
    ZeroOrNegativeCoordinateError,
)
from puregaps.lattice import COORD_MAX, LatticePoint, validate_generating_set

from expected_gk2 import GAMMA as GK2_GAMMA
from reference import glb, incomparable, lub


class TestLatticePoint:
    def test_behaves_like_tuple(self):
        p = LatticePoint(3, 4)
        assert p == (3, 4)
        assert hash(p) == hash((3, 4))
        assert p.a == 3 and p.b == 4
        assert sorted([LatticePoint(2, 9), (1, 5), LatticePoint(1, 4)]) == \
            [(1, 4), (1, 5), (2, 9)]

    def test_zero_is_allowed(self):
        assert LatticePoint(0, 0) == (0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatticePoint(-1, 0)
        with pytest.raises(ValueError):
            LatticePoint(0, -7)

    def test_rejects_overflow(self):
        assert LatticePoint(COORD_MAX, 0) == (COORD_MAX, 0)
        with pytest.raises(OverflowError):
            LatticePoint(COORD_MAX + 1, 0)
        with pytest.raises(OverflowError):
            LatticePoint(0, 2**64)


def test_lub_examples():
    assert lub((1, 5), (5, 1)) == (5, 5)
    assert lub((3, 3), (3, 3)) == (3, 3)
    assert lub((10, 10), (19, 1)) == (19, 10)


def test_glb_examples():
    assert glb((1, 5), (5, 1)) == (1, 1)
    assert glb((0, 0), (7, 7)) == (0, 0)
    assert glb((10, 10), (19, 1)) == (10, 1)


def test_incomparable_examples():
    assert incomparable((1, 5), (5, 1))
    assert not incomparable((3, 3), (13, 4))
    assert not incomparable((3, 3), (3, 5))
    assert not incomparable((2, 2), (2, 2))


coords = st.integers(min_value=0, max_value=2**52)
points = st.tuples(coords, coords)


def _le(p, q):
    return p[0] <= q[0] and p[1] <= q[1]


@settings(max_examples=300, deadline=None)
@given(points, points)
def test_lattice_laws(p, q):
    up, dn = lub(p, q), glb(p, q)
    assert up == lub(q, p)
    assert dn == glb(q, p)
    assert lub(p, p) == p and glb(p, p) == p
    assert _le(dn, p) and _le(dn, q)
    assert _le(p, up) and _le(q, up)
    assert (dn == p) == _le(p, q)


@settings(max_examples=300, deadline=None)
@given(points, points)
def test_incomparable_characterizations(p, q):
    assert incomparable(p, q) == (glb(p, q) not in (p, q))
    assert incomparable(p, q) == (lub(p, q) not in (p, q))


class TestValidateGeneratingSet:
    def test_gk2_set_is_valid(self):
        gamma = validate_generating_set(GK2_GAMMA, 9)
        assert gamma.genus == 10
        assert gamma.period == 9
        assert list(gamma.points) == sorted(GK2_GAMMA)

    def test_empty_set_any_period(self):
        gamma = validate_generating_set([], 1)
        assert gamma.genus == 0
        assert gamma.points == ()

    def test_period_property_violation(self):
        with pytest.raises(PeriodPropertyViolationError) as info:
            validate_generating_set([(3, 3), (12, 5)], 9)
        assert info.value.beta == 3
        assert info.value.k == 1

    def test_missing_required_shift_detected(self):
        # (2, 11) forces (11, 2) to exist
        with pytest.raises(PeriodPropertyViolationError):
            validate_generating_set([(2, 11), (3, 3)], 9)

    def test_duplicate_first_coordinate(self):
        with pytest.raises(DuplicateFirstCoordinateError):
            validate_generating_set([(3, 3), (3, 5)], 9)

    def test_duplicate_second_coordinate(self):
        with pytest.raises(DuplicateSecondCoordinateError):
            validate_generating_set([(3, 5), (4, 5)], 9)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroOrNegativeCoordinateError):
            validate_generating_set([(0, 3)], 9)
        with pytest.raises(ZeroOrNegativeCoordinateError):
            validate_generating_set([(3, 0)], 9)

    def test_coordinate_divisible_by_period(self):
        with pytest.raises(CoordinateDivisibleByPeriodError):
            validate_generating_set([(9, 2)], 9)
        with pytest.raises(CoordinateDivisibleByPeriodError):
            validate_generating_set([(2, 18)], 9)

    def test_gap_beyond_genus_bound(self):
        # satisfies the period law, yet 16 and 11 exceed 2g-1 = 7
        with pytest.raises(GapBeyondGenusBoundError):
            validate_generating_set([(3, 16), (8, 11), (13, 6), (18, 1)], 5)

    def test_bad_period(self):
        with pytest.raises(InvalidParamsError):
            validate_generating_set([], 0)

    def test_tau_mapping(self):
        gamma = validate_generating_set(GK2_GAMMA, 9)
        tau = gamma.tau()
        assert tau[2] == 11 and tau[11] == 2
        assert tau[1] == 19 and tau[10] == 10 and tau[19] == 1

    def test_period_equivalence_both_ways(self):
        # beta + k*period is a first coordinate iff k*period < tau(beta)
        gamma = validate_generating_set(GK2_GAMMA, 9)
        tau = gamma.tau()
        firsts = set(tau)
        for beta, image in tau.items():
            for k in range(1, 4):
                assert ((beta + 9 * k) in firsts) == (9 * k < image)
