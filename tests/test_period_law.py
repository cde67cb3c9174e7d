"""The chain-form period-law check against the shift walk it replaced.

``period_law_violations`` checks the successor rule plus one run per
residue class; ``reference.period_law_shift_walk`` checks the law itself
at every shift count.  They must agree on whether a map breaks the law,
and every witness the chain form names must be one the walk finds too.
The chain levels of the points below the period, which validation
compares with a set instead, must equal the points exactly when the law
holds and every chain starts below the period.
"""

from bisect import bisect_left
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puregaps.errors import (
    GapBeyondGenusBoundError,
    PeriodPropertyViolationError,
    ResidueChainStartError,
    ValidationError,
)
from puregaps.gammafile import parse_gamma
from puregaps.lattice import (
    _levels,
    period_law_violations,
    validate_generating_set,
)

import props
from reference import check_period_property, period_law_shift_walk


def assert_agrees(tau, period):
    items = sorted(tau.items())
    found = list(period_law_violations(period, items))
    walked = period_law_shift_walk(tau, period)
    assert bool(found) == bool(walked)
    starts_below = all(a < period or a - period in tau for a in tau)
    starts = items[:bisect_left(items, (period,))]
    levels = list(chain.from_iterable(_levels(starts, period)))[::-1]
    assert (levels == items) == (not walked and starts_below)
    witnesses = [(beta, k) for beta, k, _ in found]
    assert set(witnesses) <= set(walked)
    betas = [beta for beta, _ in witnesses]
    assert betas == sorted(set(betas))
    return found


@st.composite
def mutated_family_sets(draw):
    """A family generating set as a dict, with one to three mutations: an
    image moved by +-period, a point dropped, a new head added at
    ``a + k*period``, or two images swapped."""
    gamma = props.get_gamma(draw(st.sampled_from(props.FAMILY_POOL)))
    period = gamma.period
    tau = dict(gamma.points)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not tau:
            break
        a = draw(st.sampled_from(sorted(tau)))
        kind = draw(st.sampled_from(("move", "drop", "head", "swap")))
        if kind == "move":
            up = draw(st.booleans()) or tau[a] <= period
            tau[a] += period if up else -period
        elif kind == "drop":
            del tau[a]
        elif kind == "head":
            k = draw(st.integers(min_value=1, max_value=3))
            tau.setdefault(a + k * period,
                           draw(st.integers(min_value=1,
                                            max_value=2 * period)))
        else:
            c = draw(st.sampled_from(sorted(tau)))
            tau[a], tau[c] = tau[c], tau[a]
    return tau, period


@st.composite
def small_injective_maps(draw):
    """Injective maps on small positive integers.  Images stay below twice
    the period, so the successor rule often holds and a broken run is what
    remains to find."""
    period = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=0, max_value=min(12, 2 * period)))
    firsts = draw(st.lists(st.integers(min_value=1, max_value=60),
                           min_size=n, max_size=n, unique=True))
    seconds = draw(st.lists(st.integers(min_value=1, max_value=2 * period),
                            min_size=n, max_size=n, unique=True))
    return dict(zip(firsts, seconds)), period


#: The smoke-test set whose residue-1 and residue-2 chains start at 5 and
#: 6, above the period 4: it keeps the law, so only the level compare
#: fails.
P4 = ({3: 15, 5: 6, 6: 13, 7: 11, 9: 2, 10: 9, 11: 7, 14: 5, 15: 3, 18: 1}, 4)


class TestAgreesWithShiftWalk:
    @settings(max_examples=400, deadline=None)
    @given(mutated_family_sets())
    @example(P4)
    def test_mutated_family_sets(self, case):
        tau, period = case
        found = assert_agrees(tau, period)
        points = list(tau.items())
        if len(set(tau.values())) < len(tau) or any(
                a % period == 0 or b % period == 0 for a, b in points):
            return  # rejected before the law is checked
        try:
            validate_generating_set(points, period)
        except PeriodPropertyViolationError as exc:
            assert found and (exc.beta, exc.k) == found[0][:2]
        except (GapBeyondGenusBoundError, ResidueChainStartError):
            assert not found
        else:
            assert not found

    @settings(max_examples=400, deadline=None)
    @given(small_injective_maps())
    def test_small_injective_maps(self, case):
        assert_agrees(*case)


@pytest.mark.parametrize("points, beta, k, line", [
    ([(3, 3), (12, 5)], 3, 1, 2),    # 12 present although 9 >= tau(3)
    ([(3, 3), (21, 5)], 3, 2, 2),    # a second run in class 3
    ([(1, 20), (10, 11)], 10, 1, 3),  # the nearer point of the chain
    # a far second run: a shift walk would take 1e11 steps to reach it
    ([(1, 1), (9 * 10**11 + 1, 3)], 1, 10**11, 2),
])
def test_pinned_witnesses(points, beta, k, line):
    with pytest.raises(PeriodPropertyViolationError) as info:
        validate_generating_set(points, 9)
    assert (info.value.beta, info.value.k) == (beta, k)
    text = "period 9\n" + "".join(f"{a}\t{b}\n" for a, b in points)
    with pytest.raises(ValidationError, match=f"line {line}"):
        parse_gamma(text)


def test_checker_collects_every_violation():
    report = check_period_property([(3, 3), (12, 5), (4, 4), (22, 6)], 9)
    assert report.violations == (
        "(3, 3) with k=1: 12 may not be a first coordinate since 1*9 >= 3",
        "(4, 4) with k=2: 22 may not be a first coordinate since 2*9 >= 4",
    )


def test_families_pass():
    for point in props.FAMILY_POOL:
        gamma = props.get_gamma(point)
        assert not assert_agrees(dict(gamma.points), gamma.period)
