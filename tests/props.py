"""Seeded randomized property runners shared by the property and
acceptance suites, and the Hypothesis strategies of sets that are not
the diagonal families.

Each runner draws its cases from a fixed-seed RNG, asserts the property on
every case and returns the number of cases exercised.  Family computations
are memoized so repeated draws of the same parameters stay cheap.
"""

from math import gcd
import random

from hypothesis import assume
from hypothesis import strategies as st

from puregaps.engine import (
    assemble_pure_gaps,
    check_reflection,
    components_by_box,
    decompose,
)
from puregaps.errors import ValidationError
from puregaps.gk import gk_generating_set
from puregaps.kummer import kummer_generating_set
from puregaps.lattice import validate_generating_set
from puregaps.oracle import BAND_BITS

from reference import (
    check_period_property,
    flatten,
    g0_points,
    glb,
    incomparable,
    lub,
)

GK_QS = (2, 3, 4)
KUMMER_PAIRS = tuple((m, r) for m in range(2, 16) for r in range(2, 16)
                     if gcd(m, r) == 1)
FAMILY_POOL = tuple([("gk", (q,)) for q in GK_QS]
                    + [("kummer", pair) for pair in KUMMER_PAIRS])

_gammas = {}
_boxes = {}
_results = {}
_swap_checked = set()


def get_gamma(point):
    if point not in _gammas:
        kind, params = point
        if kind == "gk":
            _gammas[point] = gk_generating_set(*params)
        else:
            _gammas[point] = kummer_generating_set(*params)
    return _gammas[point]


def get_boxed(point):
    if point not in _boxes:
        _boxes[point] = decompose(get_gamma(point))
    return _boxes[point]


def get_result(point):
    if point not in _results:
        _results[point] = assemble_pure_gaps(get_boxed(point))
    return _results[point]


def _le(p, q):
    return p[0] <= q[0] and p[1] <= q[1]


def run_lattice_laws(n, seed=0x1A77):
    """Commutativity, idempotence, the order laws and the incomparability
    characterizations of lub/glb on random points."""
    rng = random.Random(seed)
    for _ in range(n):
        p = (rng.randrange(0, 2**50), rng.randrange(0, 2**50))
        q = (rng.randrange(0, 2**50), rng.randrange(0, 2**50))
        up, dn = lub(p, q), glb(p, q)
        assert up == lub(q, p) and dn == glb(q, p)
        assert lub(p, p) == p and glb(p, p) == p
        assert _le(dn, p) and _le(dn, q)
        assert _le(p, up) and _le(q, up)
        assert (dn == p) == _le(p, q)
        assert incomparable(p, q) == (dn not in (p, q)) == (up not in (p, q))
    return n


def run_genus_identity(n, seed=0x6E05):
    """sum (k+1)|rows[k]| equals the genus on random family sets."""
    rng = random.Random(seed)
    for _ in range(n):
        boxed = get_boxed(rng.choice(FAMILY_POOL))
        total = sum((k + 1) * size for k, size in enumerate(boxed.row_sizes()))
        assert total == boxed.genus
    return n


def run_period_checker(n, seed=0x9E21):
    """The displacement-law checker passes on family sets and flags a
    single tampered image."""
    rng = random.Random(seed)
    for _ in range(n):
        gamma = get_gamma(rng.choice(FAMILY_POOL))
        assert check_period_property(gamma).ok
        pts = list(gamma.points)
        idx = rng.randrange(len(pts))
        a, b = pts[idx]
        pts[idx] = (a, b + gamma.period)
        assert not check_period_property(pts, gamma.period).ok
    return n


def check_swap_symmetry(point):
    """Assert that the generating set at ``point`` and its pure gap set
    are both symmetric under the coordinate swap; once per point."""
    if point not in _swap_checked:
        pset = set(get_gamma(point).points)
        assert {(b, a) for a, b in pset} == pset
        g0 = set(g0_points(get_result(point)))
        assert {(b, a) for a, b in g0} == g0
        _swap_checked.add(point)


def run_swap_symmetry(n, seed=0x51AB):
    """Coordinate-swap symmetry of the generating set carries over to the
    pure gap set."""
    rng = random.Random(seed)
    for _ in range(n):
        check_swap_symmetry(rng.choice(FAMILY_POOL))
    return n


def run_translate_disjointness(n, seed=0x7D15):
    """The (k, j) translates of the per-box pure gap sets are pairwise
    disjoint, so the union size is the weighted per-box sum."""
    rng = random.Random(seed)
    for _ in range(n):
        point = rng.choice(FAMILY_POOL)
        result = get_result(point)
        boxed = get_boxed(point)
        period = boxed.period
        union = set()
        expected = 0
        for k, comps in components_by_box(boxed):
            box = set()
            for comp in comps:
                box.update(flatten(comp, k * period))
            expected += (k + 1) * len(box)
            for j in range(k + 1):
                union.update((a - j * period, b + j * period) for a, b in box)
        assert len(union) == expected == len(result)
    return n


def run_diagonal_agreement(n, seed=0xD1A6):
    """When every generating point has equal residues, the second
    component is empty and the fourth is the coordinate swap of the third
    translated by -w_k, box by box; check_reflection accepts the set."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n):
        boxed = get_boxed(rng.choice(FAMILY_POOL))
        assert boxed.diagonal
        k = rng.randrange(max(1, boxed.kmax))
        shift = k * boxed.period
        _, g2, g3, g4 = dict(components_by_box(boxed)).get(k, ({},) * 4)
        assert flatten(g2, shift) == []
        assert flatten(g4, shift) == sorted(
            (b + shift, a - shift) for a, b in flatten(g3, shift))
        check_reflection(boxed)
        checked += 1
    return checked


def run_kummer_empty_boxes(n, seed=0xE3B0):
    """For m much larger than r the top box index stays r-2: no row may
    appear beyond it."""
    rng = random.Random(seed)
    for _ in range(n):
        r = rng.randrange(2, 7)
        m = rng.randrange(r * r + 1, r * r + 60)
        while gcd(m, r) != 1:
            m += 1
        boxed = get_boxed(("kummer", (m, r)))
        assert all(k <= r - 2 for k in boxed.rows)
        assert boxed.kmax <= r - 1
    return n


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


@st.composite
def injective_pairs(draw, max_genus=40):
    """Pairs with distinct first and distinct second coordinates, in any
    order; the small coordinate range makes the projections overlap."""
    n = draw(st.integers(min_value=0, max_value=max_genus))
    coord = st.integers(min_value=1, max_value=4 * max_genus)
    firsts = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    seconds = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    return list(zip(firsts, seconds))


#: Family points whose scan spans several bands, or whose period is near
#: ``BAND_BITS``, on either side: a band of one period and of two.
WIDE_FAMILY_POOL = (("kummer", (101, 41)), ("kummer", (1021, 4)),
                    ("kummer", (2047, 3)), ("kummer", (2048, 3)),
                    ("kummer", (2050, 3)))

#: Periods on both sides of ``BAND_BITS``: a band of many periods, of two
#: and of one.
band_periods = st.one_of(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=BAND_BITS - 2, max_value=BAND_BITS + 2),
    st.integers(min_value=BAND_BITS + 3, max_value=3 * BAND_BITS))


@st.composite
def residue_chain_sets(draw):
    """Validated sets with a chain at every residue of a period near
    ``BAND_BITS``: the recipe of :func:`non_diagonal_sets` with all
    residues matched at random, each chain of height 0 to 4, so that the
    second coordinates span several bands of the direct scan."""
    period = draw(st.sampled_from((601, 1024, BAND_BITS - 1, BAND_BITS,
                                   BAND_BITS + 5)))
    rng = draw(st.randoms(use_true_random=False))
    seconds = list(range(1, period))
    rng.shuffle(seconds)
    points = [(r + i * period, s + (h - i) * period)
              for r, s in zip(range(1, period), seconds)
              for h in (rng.randrange(5),) for i in range(h + 1)]
    try:
        return validate_generating_set(points, period)
    except ValidationError:
        assume(False)


@st.composite
def spread_pairs(draw, max_points=25):
    """Injective pairs spread over a few bands: coordinates up to
    ``3 * BAND_BITS``, some second coordinates near ``10**12``."""
    n = draw(st.integers(min_value=0, max_value=max_points))
    coord = st.integers(min_value=1, max_value=3 * BAND_BITS)
    far = st.integers(min_value=10**12 - 3 * BAND_BITS,
                      max_value=10**12 + 3 * BAND_BITS)
    firsts = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    seconds = draw(st.lists(st.one_of(coord, far), min_size=n, max_size=n,
                            unique=True))
    return list(zip(firsts, seconds))


ALL_RUNNERS = (
    ("lattice_laws", run_lattice_laws),
    ("genus_identity", run_genus_identity),
    ("period_checker", run_period_checker),
    ("swap_symmetry", run_swap_symmetry),
    ("translate_disjointness", run_translate_disjointness),
    ("diagonal_agreement", run_diagonal_agreement),
    ("kummer_empty_boxes", run_kummer_empty_boxes),
)
