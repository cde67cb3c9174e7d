"""Columns are int masks, bit ``b`` set for each second coordinate ``b``:
the decode helper, the containment check of PureGapSet, and the
comparison with the direct scan, each on a mask."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import puregaps.harness as harness
from puregaps.engine import PureGapSet, assemble_pure_gaps, decompose
from puregaps.errors import DisjointnessViolationError
from puregaps.gk import gk_generating_set
from puregaps.lattice import set_bits

from reference import column_runs, mask


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=300)))
@example(set())
@example({0})
@example({0, 64, 65})
def test_set_bits_round_trip(positions):
    """set_bits lists the set bits ascending, bit 0 and high bits too, and
    a mask is rebuilt from its list."""
    m = mask(positions)
    assert set_bits(m) == sorted(positions)
    assert mask(set_bits(m)) == m


@st.composite
def inside_and_bad_bit(draw):
    """A period, a column mask strictly inside (0, period), and a bit at 0
    or at or above the period."""
    period = draw(st.integers(min_value=2, max_value=80))
    inside = draw(st.sets(st.integers(min_value=1, max_value=period - 1)))
    bad = draw(st.one_of(st.just(0), st.integers(min_value=period,
                                                 max_value=3 * period)))
    return period, mask(inside), bad


@settings(max_examples=300, deadline=None)
@given(inside_and_bad_bit(), st.integers(min_value=0, max_value=3))
def test_pure_gap_set_rejects_a_bit_outside_the_box(drawn, k):
    period, inside, bad = drawn
    columns = {1: inside | 1 << 1}
    assert len(PureGapSet(column_runs({k: columns}), period)) == \
        (k + 1) * columns[1].bit_count()
    columns[period - 1] = inside | 1 << bad
    with pytest.raises(DisjointnessViolationError,
                       match=rf"^column a={k * period + period - 1} of "
                             rf"G_\({k},0\) leaves box \({k}, 0\)$"):
        PureGapSet(column_runs({k: columns}), period)
    # a run of two residues whose column leaves the box: its lowest is named
    with pytest.raises(DisjointnessViolationError,
                       match=rf"^column a={k * period + 1} of "
                             rf"G_\({k},0\) leaves box \({k}, 0\)$"):
        PureGapSet({k: [(1 << 1 | 1 << (period - 1), inside | 1 << bad)]},
                   period)
    # a run with a residue outside the box: that residue is named
    with pytest.raises(DisjointnessViolationError,
                       match=rf"^column a={(k + 1) * period} of "
                             rf"G_\({k},0\) leaves box \({k}, 0\)$"):
        PureGapSet({k: [(1 << 1 | 1 << period, 1 << 1)]}, period)
    # two runs of one box that share a residue: counted twice otherwise
    with pytest.raises(DisjointnessViolationError,
                       match=rf"^column a={k * period + 1} of "
                             rf"G_\({k},0\) is in two runs$"):
        PureGapSet({k: [(1 << 1, 1 << 1), (1 << 1, inside | 1 << 1)]},
                   period)


class TestFlippedBit:
    """One bit flipped in one column of the engine's G0 at GK q=5 fails
    ``engine_vs_oracle``, naming the points of every translate of it."""

    K = 1

    @pytest.fixture(scope="class")
    def boxed(self):
        return decompose(gk_generating_set(5))

    @pytest.mark.parametrize("added", [True, False], ids=["added", "dropped"])
    def test_verify_names_the_points(self, monkeypatch, boxed, added):
        g0 = assemble_pure_gaps(boxed)
        period = g0.period
        k = self.K
        r, column = min(g0.box(k).items())
        if added:
            b = min(set(range(1, period)) - set(set_bits(column)))
        else:
            b = set_bits(column)[0]
        runs = {i: dict(g0.box(i)) for i in range(boxed.kmax)}
        runs[k][r] = column ^ 1 << b
        flipped = PureGapSet(column_runs(runs), period)
        monkeypatch.setattr(harness, "assemble_pure_gaps",
                            lambda boxed: flipped)

        report = harness.verify_point("gk", {"q": 5})
        assert report.verdicts["engine_vs_oracle"] == "fail"
        points = sorted(((k - j) * period + r, b + j * period)
                        for j in range(k + 1))
        extra, missing = (points, []) if added else ([], points)
        assert len(flipped) == len(g0) + (k + 1) * (1 if added else -1)
        assert (f"engine_vs_oracle: G0: {len(flipped)} vs {len(g0)} points; "
                f"unexpected {extra[:5]}, missing {missing[:5]}") \
            in report.detail
