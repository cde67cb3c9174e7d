from bisect import bisect_left
from itertools import combinations, product
from math import gcd

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
    ResidueChainStartError,
    ValidationError,
    ZeroOrNegativeCoordinateError,
)
import puregaps.gk as gk_mod
import puregaps.kummer as kummer_mod
from puregaps.engine import decompose
from puregaps.gammafile import _read_chains, dump_gamma, parse_gamma
from puregaps.lattice import COORD_MAX, validate_generating_set

import props
from expected_gk2 import GAMMA as GK2_GAMMA
from reference import (
    LatticePoint,
    decompose_by_scan,
    glb,
    incomparable,
    lub,
    parse_gamma_lines,
)


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

    def test_residue_chain_start(self):
        # the residue-1 and residue-2 chains start at 5 and 6: the period
        # law and the 2g-1 bound hold, but the rows would weigh 12, not 10
        points = [(3, 15), (5, 6), (6, 13), (7, 11), (9, 2), (10, 9),
                  (11, 7), (14, 5), (15, 3), (18, 1)]
        with pytest.raises(ResidueChainStartError) as info:
            validate_generating_set(points, 4)
        assert info.value.beta == 5

    def test_bad_period(self):
        with pytest.raises(InvalidParamsError):
            validate_generating_set([], 0)

    @pytest.mark.parametrize("points, period, named", [
        ([(1, 1)], 2.0, "period must be a positive integer, got 2.0"),
        ([(1, 2.0), (2.0, 1)], 3, "(1, 2.0): a generating point"),
        ([(1, 2, 3)], 3, "(1, 2, 3): a generating point"),
        ([(1, "a")], 3, "(1, 'a'): a generating point"),
        ([5], 3, "generating points must be pairs of ints"),
        # a valid Kummer (4, 7) set with a float whose residue, 1.0, an
        # int coordinate already has
        ([(1, 17), (2, 10), (3, 3), (5.0, 13), (6, 6), (9, 9), (10, 2),
          (13, 5), (17, 1)], 4, "(5.0, 13): a generating point"),
        ([], True, "period must be a positive integer, got True"),
        ([(True, True)], 2, "(True, True): a generating point"),
        # the valid Kummer (4, 3) set with True for a 1 in either projection
        ([(2, 2), (True, 5), (5, 1)], 4, "(True, 5): a generating point"),
        ([(2, 2), (1, 5), (5, True)], 4, "(5, True): a generating point"),
        # the same set with a triple that starts with the valid point
        ([(2, 2), (1, 5, 9), (5, 1)], 4, "(1, 5, 9): a generating point"),
    ], ids=["float-period", "float-coordinate", "triple", "str-coordinate",
            "not-a-pair", "float-sharing-a-residue", "bool-period",
            "bool-point", "bool-first-coordinate", "bool-second-coordinate",
            "triple-in-a-valid-set"])
    def test_wrong_type_rejected(self, points, period, named):
        with pytest.raises(InvalidParamsError) as info:
            validate_generating_set(points, period)
        assert str(info.value).startswith(named)

    def test_tau_mapping(self):
        gamma = validate_generating_set(GK2_GAMMA, 9)
        tau = dict(gamma.points)
        assert tau[2] == 11 and tau[11] == 2
        assert tau[1] == 19 and tau[10] == 10 and tau[19] == 1

    def test_period_equivalence_both_ways(self):
        # beta + k*period is a first coordinate iff k*period < tau(beta)
        gamma = validate_generating_set(GK2_GAMMA, 9)
        tau = dict(gamma.points)
        firsts = set(tau)
        for beta, image in tau.items():
            for k in range(1, 4):
                assert ((beta + 9 * k) in firsts) == (9 * k < image)


#: Family sets, by module and parameters: GK q <= 5 and a Kummer grid.
FAMILY_SETS = [(gk_mod, (q,)) for q in range(2, 6)] + [
    (kummer_mod, (m, r)) for m in range(2, 14) for r in range(2, 14)
    if gcd(m, r) == 1]
FAMILY_IDS = [f"{module.__name__.split('.')[-1]}{args}"
              for module, args in FAMILY_SETS]


def assert_starts_hold_the_set(gamma):
    """The set's points, built from its starts, are sorted, and its walk
    from the top down is them in reverse; the starts are their slice
    below the period; their number is the genus; the rows read from the
    starts are those of a scan of the points; and the points validate, in
    reverse order, and round-trip through the set file, to the same
    set."""
    points = gamma.points
    assert list(points) == sorted(set(points))
    assert list(gamma.descending()) == sorted(points, reverse=True)
    assert gamma.starts == points[:bisect_left(points, (gamma.period,))]
    assert len(points) == gamma.genus
    assert all(type(c) is int for point in points for c in point)
    assert decompose(gamma) == decompose_by_scan(gamma)
    again = validate_generating_set(points[::-1], gamma.period)
    assert again == gamma and again.points == points
    back = parse_gamma(dump_gamma(gamma))
    assert back == gamma and back.points == points


class TestChainStarts:
    """A set is held by its chain starts: its points, rows and set file
    are what they were when the set held every point."""

    @pytest.mark.parametrize("module, args", FAMILY_SETS, ids=FAMILY_IDS)
    def test_points_are_the_sorted_enumeration(self, monkeypatch, module,
                                               args):
        enumerated = []
        real = module.validate_generating_set

        def spy(pts, period):
            enumerated.extend(pts)
            return real(pts, period)

        monkeypatch.setattr(module, "validate_generating_set", spy)
        family = module.__name__.split(".")[-1]
        gamma = getattr(module, f"{family}_generating_set")(*args)
        assert gamma.points == tuple(sorted(enumerated))
        assert_starts_hold_the_set(gamma)

    @settings(max_examples=200, deadline=None)
    @given(props.non_diagonal_sets())
    def test_non_diagonal_sets(self, gamma):
        assert_starts_hold_the_set(gamma)

    def test_empty_set(self):
        gamma = validate_generating_set([], 5)
        assert gamma.starts == () and gamma.points == () and gamma.genus == 0
        assert_starts_hold_the_set(gamma)


@st.composite
def chain_sets(draw):
    """Sets that keep the period law: one chain per drawn residue, with
    distinct last second coordinates, each started at its residue but at
    most one, which starts a period above it.  Returns (points, period,
    whether a chain starts above its residue)."""
    period = draw(st.integers(min_value=2, max_value=9))
    residues = st.integers(min_value=1, max_value=period - 1)
    firsts = draw(st.lists(residues, min_size=1, unique=True))
    lasts = draw(st.lists(residues, min_size=len(firsts),
                          max_size=len(firsts), unique=True))
    lifted = draw(st.sampled_from([None, *firsts]))
    points = []
    for r, b in zip(firsts, lasts):
        n = draw(st.integers(min_value=1, max_value=3))
        start = r + period * (r == lifted)
        points += [(start + i * period, b + (n - 1 - i) * period)
                   for i in range(n)]
    return points, period, lifted is not None


@settings(max_examples=400, deadline=None)
@given(chain_sets())
def test_validated_chain_sets_decompose(case):
    """An accepted set has every chain start at its residue, and its genus
    identity holds; a chain started above its residue is rejected, as such
    unless the 2g-1 bound rejects the set first."""
    points, period, shifted = case
    try:
        gamma = validate_generating_set(points, period)
    except GapBeyondGenusBoundError:
        return
    except ResidueChainStartError:
        assert shifted
        return
    assert not shifted
    decompose(gamma)


def _validated(points, period):
    """The points of the validated set, or None if validation rejects."""
    try:
        return validate_generating_set(points, period).points
    except ValidationError:
        return None


def _refusal(parse, text):
    """The class and message of the error ``parse(text)`` raises."""
    with pytest.raises(ValidationError) as info:
        parse(text)
    return info.type, str(info.value)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_validation_is_exact_on_the_grid(genus):
    """Among all ``g``-point subsets of ``[1, 2g - 1]^2``, at every period
    ``2 .. 2g + 1``, validation in sorted and in reversed order and the
    chain read of the sorted text accept exactly the sets built from rows.
    Validation rejects any coordinate off that grid, so at this genus no
    valid set is missed.  The text behind a comment line, which sends it
    off the chain read to the line scan, is accepted for the same sets,
    and every other one is refused as the line scanner refuses it: the
    refusal's second scan runs on each.  The rows that ``decompose`` reads
    from the starts of each accepted set are those of a scan of its
    points, and its walk from the top down is its points in reverse."""
    top = 2 * genus - 1
    grid = list(product(range(1, top + 1), repeat=2))
    counts = []
    for period in range(2, 2 * genus + 2):
        built = props.row_sets(genus, period)
        accepted = set()
        for subset in combinations(grid, genus):  # sorted, as the grid is
            text = f"period {period}\n" + "".join(
                f"{a}\t{b}\n" for a, b in subset)
            gamma = _read_chains(text)
            got = (_validated(subset, period),
                   _validated(subset[::-1], period),
                   gamma and gamma.points)
            want = subset if subset in built else None
            assert got == (want,) * 3, (period, subset)
            commented = "# x\n" + text
            if want:
                assert parse_gamma(commented).points == want
                assert decompose(gamma) == decompose_by_scan(gamma)
                assert list(gamma.descending()) == sorted(
                    gamma.points, reverse=True) == list(want[::-1])
                accepted.add(subset)
            else:
                assert _refusal(parse_gamma, commented) == \
                    _refusal(parse_gamma_lines, commented), (period, subset)
        assert accepted == built
        counts.append(len(built))
    if genus == 3:
        assert counts[1:] == [4, 10, 96, 600, 600]
