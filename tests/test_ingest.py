"""The whole-list parser and validator against the line scanner and the
point-by-point validator they replaced (``reference``).

On valid input both routes must return the same points and period; on
invalid input they must raise the same exception class with the same
message, so the whole-list passes name the same offender as a walk
would: the same line, the same first bad point in input order, the same
first duplicate in sorted order.
"""

import io
import json
import sys
import tracemalloc
from contextlib import ExitStack
from enum import IntEnum
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregaps.errors import (
    CoordinateDivisibleByPeriodError,
    DuplicateFirstCoordinateError,
    DuplicateSecondCoordinateError,
    GammaFileError,
    GapBeyondGenusBoundError,
    InvalidParamsError,
    ResidueChainStartError,
    ZeroOrNegativeCoordinateError,
)
from puregaps import cli, gammafile, lattice
from puregaps.gammafile import dump_gamma, parse_gamma
from puregaps.kummer import kummer_generating_set
from puregaps.lattice import COORD_MAX, validate_generating_set

import props
import test_cli
from reference import parse_gamma_lines, validate_per_point
from test_period_law import small_injective_maps


def outcome(func, *args):
    """What ``func(*args)`` gives: ("ok", points, period) or ("raises",
    class, message, beta, k)."""
    try:
        gamma = func(*args)
    except (ValueError, OverflowError) as exc:
        return ("raises", type(exc), str(exc), getattr(exc, "beta", None),
                getattr(exc, "k", None))
    return ("ok", list(gamma.points), gamma.period)


# --- validation -------------------------------------------------------------

@st.composite
def mutated_point_lists(draw):
    """A family generating set as a list of pairs in a drawn order, with
    zero to three mutations: a coordinate set to zero, negative, a multiple
    of the period, past 2g-1 or past the 64-bit range; an image moved by
    +-period; a point dropped, repeated or given a used coordinate; a new
    head at ``a + k*period``; or two images swapped."""
    gamma = props.get_gamma(draw(st.sampled_from(props.FAMILY_POOL)))
    period = gamma.period
    pts = draw(st.permutations(list(gamma.points)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not pts:
            break
        i = draw(st.integers(min_value=0, max_value=len(pts) - 1))
        a, b = pts[i]
        kind = draw(st.sampled_from((
            "zero", "negative", "divisible", "genus", "overflow", "move",
            "drop", "repeat", "first", "second", "head", "swap")))
        side = draw(st.booleans())
        if kind in ("zero", "negative", "divisible", "genus", "overflow"):
            value = {"zero": 0, "negative": -a,
                     "divisible": period * draw(st.integers(1, 3)),
                     "genus": 2 * len(pts) + draw(st.integers(0, 3)),
                     "overflow": COORD_MAX + 1}[kind]
            pts[i] = (value, b) if side else (a, value)
        elif kind == "move":
            pts[i] = (a, b + period if side or b <= period else b - period)
        elif kind == "drop":
            del pts[i]
        elif kind == "repeat":
            pts.insert(draw(st.integers(0, len(pts))), (a, b))
        elif kind in ("first", "second"):
            c, d = draw(st.sampled_from(pts))
            new = (a, d + 1) if kind == "first" else (c + 1, b)
            pts.insert(draw(st.integers(0, len(pts))), new)
        elif kind == "head":
            k = draw(st.integers(min_value=1, max_value=3))
            pts.append((a + k * period,
                        draw(st.integers(min_value=1, max_value=2 * period))))
        else:
            j = draw(st.integers(min_value=0, max_value=len(pts) - 1))
            (c, d) = pts[j]
            pts[i], pts[j] = (a, d), (c, b)
    return pts, period


class TestValidatorAgreesWithPerPoint:
    @settings(max_examples=500, deadline=None)
    @given(mutated_point_lists())
    def test_mutated_family_sets(self, case):
        points, period = case
        assert outcome(validate_generating_set, points, period) == \
            outcome(validate_per_point, points, period)

    @settings(max_examples=400, deadline=None)
    @given(small_injective_maps(), st.randoms(use_true_random=False))
    def test_small_injective_maps(self, case, rnd):
        tau, period = case
        points = list(tau.items())
        rnd.shuffle(points)
        assert outcome(validate_generating_set, points, period) == \
            outcome(validate_per_point, points, period)

    @pytest.mark.parametrize("points, period, error, message", [
        # input order: divisible before zero, and zero before divisible
        ([(9, 2), (0, 3)], 9, CoordinateDivisibleByPeriodError,
         "(9, 2): coordinate divisible by period 9"),
        ([(0, 3), (9, 2)], 9, ZeroOrNegativeCoordinateError,
         "(0, 3): generating set coordinates must be positive"),
        ([(2, 5), (4, -1), (2, 18)], 9, ZeroOrNegativeCoordinateError,
         "(4, -1): generating set coordinates must be positive"),
        # sorted order: in input order the second coordinate 7 repeats
        # first, in sorted order the first coordinate 5; and the reverse
        ([(5, 7), (3, 7), (5, 2)], 11, DuplicateFirstCoordinateError,
         "first coordinate 5 appears twice"),
        ([(5, 2), (5, 9), (3, 7), (4, 7)], 11, DuplicateSecondCoordinateError,
         "second coordinate 7 appears twice"),
        # sorted order: (18, 1) is past 2g-1 first in input order
        ([(18, 1), (13, 6), (8, 11), (3, 16)], 5, GapBeyondGenusBoundError,
         "(3, 16): coordinate exceeds 2g-1 = 7 for genus 4"),
        # sorted order: the chains at 6 and 5 both start above the period
        ([(6, 13), (3, 15), (5, 6), (7, 11), (9, 2), (10, 9), (11, 7),
          (14, 5), (15, 3), (18, 1)], 4, ResidueChainStartError,
         "(5, 6): the first coordinates are not the gaps of a semigroup "
         "containing the period 4: 5 is one and 1 is not"),
    ])
    def test_two_bad_points_name_the_same_offender(self, points, period,
                                                   error, message):
        with pytest.raises(error) as info:
            validate_generating_set(points, period)
        assert str(info.value) == message
        assert outcome(validate_per_point, points, period)[1:3] == \
            (error, message)

    def test_points_are_plain_tuples(self):
        gamma = validate_generating_set(
            props.get_gamma(("kummer", (5, 7))).points, 5)
        assert all(type(p) is tuple for p in gamma.points)


def chains_of(gamma):
    """The chains of a valid set, start first, by residue class."""
    chains = {}
    for a, b in gamma.points:
        chains.setdefault(a % gamma.period, []).append((a, b))
    return chains


@st.composite
def chain_mutated_sets(draw):
    """A family or non-diagonal set in a drawn order, with one or two of
    its chains changed: repeated whole, its start dropped, extended by one
    point past its end, or its start's image moved by +-period."""
    gamma = draw(st.one_of(
        st.sampled_from(props.FAMILY_POOL).map(props.get_gamma),
        props.non_diagonal_sets()))
    period = gamma.period
    chains = chains_of(gamma)
    pts = list(gamma.points)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        chain = chains[draw(st.sampled_from(sorted(chains)))]
        (a0, b0), (a1, b1) = chain[0], chain[-1]
        kind = draw(st.sampled_from(("repeat", "drop", "extend", "move")))
        if kind == "repeat":
            pts += chain
        elif kind == "extend":
            pts.append((a1 + period, draw(st.integers(1, 3 * period))))
        elif chain[0] in pts:
            i = pts.index(chain[0])
            if kind == "drop":
                del pts[i]
            else:
                pts[i] = (a0, b0 + draw(st.sampled_from((period, -period))))
    return draw(st.permutations(pts)), period


class TestChainLevelFaults:
    """Faults that keep every point well formed and break only how the
    points make up chains; validation checks them on the chain starts."""

    @settings(max_examples=500, deadline=None)
    @given(chain_mutated_sets())
    def test_agrees_with_per_point(self, case):
        points, period = case
        assert outcome(validate_generating_set, points, period) == \
            outcome(validate_per_point, points, period)

    @pytest.fixture(scope="class")
    def kummer(self):
        gamma = props.get_gamma(("kummer", (41, 30)))
        assert gamma.genus >= 500
        return gamma

    def test_float_inside_a_chain(self, kummer):
        chain = max(chains_of(kummer).values(), key=len)
        a, b = chain[len(chain) // 2]
        points = [(float(a), b) if p == (a, b) else p for p in kummer.points]
        with pytest.raises(InvalidParamsError) as info:
            validate_generating_set(points, kummer.period)
        assert str(info.value).startswith(f"({float(a)}, {b}): ")

    def test_true_at_a_chain_end(self, kummer):
        (a, b), = [p for p in kummer.points if p[1] == 1]
        assert a > kummer.period  # an end, not a start
        points = [(a, True) if p == (a, b) else p for p in kummer.points]
        with pytest.raises(InvalidParamsError) as info:
            validate_generating_set(points, kummer.period)
        assert str(info.value).startswith(f"({a}, True): ")

    def test_int_enum_accepted(self, kummer):
        a, b = kummer.points[len(kummer.points) // 2]
        coord = IntEnum("Coord", {"A": a})
        points = [(coord.A, b) if p == (a, b) else p for p in kummer.points]
        gamma = validate_generating_set(points, kummer.period)
        assert gamma == kummer
        assert coord.A in map(itemgetter(0), gamma.points)


# --- parsing ----------------------------------------------------------------

SEPARATORS = ("\t", " ", "  ", " \t", "\t ", "\t\t", " \t ")
FILLER = ("", "   ", "\t", "# a comment", "  # indented comment", "#",
          "\t#tab-indented")


@st.composite
def family_texts(draw):
    """``(lines, newline, period)``: a family set's ``.gamma`` text as a
    list of lines, with comment and blank lines, leading and trailing
    whitespace and any separator mix inserted, to be joined by LF or
    CRLF."""
    gamma = props.get_gamma(draw(st.sampled_from(props.FAMILY_POOL)))
    pad = st.sampled_from(("", " ", "\t", "  "))
    sep = st.sampled_from(SEPARATORS)
    lines = [f"{draw(pad)}period{draw(sep)}{gamma.period}{draw(pad)}"]
    lines += [f"{draw(pad)}{a}{draw(sep)}{b}{draw(pad)}"
              for a, b in gamma.points]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(FILLER)))
    return lines, draw(st.sampled_from(("\n", "\r\n"))), gamma.period


def join(lines, newline, final=True):
    return newline.join(lines) + (newline if final else "")


@st.composite
def mutated_texts(draw):
    """``(lines, newline)``: a family text with one or two mutations that
    break it: a dropped or extra field, a non-integer token, a trailing
    note, a repeated line, a zero or period-divisible coordinate, an image
    moved by the period, a missing or late header."""
    lines, newline, period = draw(family_texts())
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        kind = draw(st.sampled_from((
            "drop_field", "extra_field", "token", "note", "repeat", "zero",
            "divisible", "move", "no_header", "late_header")))
        heads = [i for i, line in enumerate(lines)
                 if line.split()[:1] == ["period"]]
        pairs = [i for i, line in enumerate(lines)
                 if len(line.split()) == 2 and all(
                     map(str.isdigit, line.split()))]
        if kind in ("no_header", "late_header"):
            if not heads:
                continue
            header = lines.pop(heads[0])
            if kind == "late_header":
                lines.insert(draw(st.integers(heads[0], len(lines))), header)
            continue
        if not pairs:
            continue
        i = draw(st.sampled_from(pairs))
        a, b = lines[i].split()
        if kind == "drop_field":
            lines[i] = a
        elif kind == "extra_field":
            lines[i] = f"{a}\t{b}\t{b}"
        elif kind == "token":
            lines[i] = f"{a}\t{draw(st.sampled_from(('x', '1.5', '0x1')))}"
        elif kind == "note":
            lines[i] = f"{a}\t{b}  # note"
        elif kind == "repeat":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        elif kind == "zero":
            lines[i] = f"0\t{b}" if draw(st.booleans()) else f"{a}\t0"
        elif kind == "divisible":
            lines[i] = f"{period * draw(st.integers(1, 3))}\t{b}"
        else:
            lines[i] = f"{a}\t{int(b) + period}"
    return lines, newline


def check_valid_text(case, final):
    lines, newline, _ = case
    text = join(lines, newline, final)
    # a valid text, comments and any layout included, never needs the
    # line-numbered diagnostic scan
    with mock.patch.object(gammafile, "_parse_lines",
                           side_effect=AssertionError("scanned")):
        got = outcome(parse_gamma, text)
    assert got[0] == "ok"
    assert got == outcome(parse_gamma_lines, text)


def check_mutated_text(case):
    text = join(*case)
    assert outcome(parse_gamma, text, "f.gamma") == \
        outcome(parse_gamma_lines, text, "f.gamma")


#: Chunk sizes small enough that a family text crosses many chunk ends.
SMALL_CHUNKS = (1, 7, 64)


class TestParserAgreesWithLineScanner:
    @settings(max_examples=300, deadline=None)
    @given(family_texts(), st.booleans())
    def test_valid_texts(self, case, final):
        check_valid_text(case, final)

    @settings(max_examples=500, deadline=None)
    @given(mutated_texts())
    def test_mutated_texts(self, case):
        check_mutated_text(case)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    @settings(max_examples=100, deadline=None)
    @given(family_texts(), st.booleans())
    def test_valid_texts_small_chunks(self, chunk, case, final):
        with mock.patch.object(gammafile, "_CHUNK_CHARS", chunk):
            check_valid_text(case, final)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    @settings(max_examples=150, deadline=None)
    @given(mutated_texts())
    def test_mutated_texts_small_chunks(self, chunk, case):
        with mock.patch.object(gammafile, "_CHUNK_CHARS", chunk):
            check_mutated_text(case)

    @pytest.mark.parametrize("chunk, text", [
        # the "\r" of a "\r\n" sits where a cut of `chunk` characters
        # would fall: in a comment, and after the header
        (7, "# abcd\r\nperiod 4\r\n1\t5\r\n5\t1\r\n2\t2\r\n"),
        (9, "period 4\r\n1\t5\r\n5\t1\r\n2\t2\r\n"),
        (9, "period 4\r\n1\t5\r\n5\t1\r\n2\tx\r\n"),
        # the header after more than one chunk of comment lines
        (7, "# one\n# two\n# three\n\nperiod 4\n1\t5\n5\t1\n2\t2\n"),
        (7, "# one\n# two\n# three\n\nperiod x\n1\t5\n5\t1\n2\t2\n"),
        # a last line with no newline
        (7, "period 4\n1\t5\n5\t1\n2\t2"),
        (7, "period 4\n1\t5\n5\t1\n2\t2 x"),
        (64, "period 4\n1\t5\n5\t1\n2\t2"),
        # a chunk of blank lines only, before and after the header
        (7, "\n" * 9 + "period 4\n1\t5\n5\t1\n2\t2\n"),
        (7, "period 4\n" + "\n" * 9 + "1\t5\n5\t1\n2\t2\n"),
        (7, "period 4\n" + " \t\n" * 5 + "1\t5\n5\t1\n5\t2\n"),
        # separators of str.splitlines other than "\n" end no chunk
        (1, "period 4\x0c1\t5\r5\t1\u20282\t2\n"),
        (1, "period 4\x851\t5\x1c5\t1\x1e5\t2\n"),
    ])
    def test_pinned_texts_small_chunks(self, chunk, text):
        want = outcome(parse_gamma_lines, text, "f.gamma")
        # a valid text is read without the diagnostic scan
        scanned = AssertionError("scanned") if want[0] == "ok" else None
        with mock.patch.object(gammafile, "_CHUNK_CHARS", chunk), \
                mock.patch.object(gammafile, "_parse_lines",
                                  side_effect=scanned,
                                  wraps=gammafile._parse_lines):
            assert outcome(parse_gamma, text, "f.gamma") == want

    @pytest.mark.parametrize("text", [
        "",
        "period 9\n",
        "1\t5\nperiod 9\n",
        "period 4\n1\t5  # note\n5\t1\n2\t2\n",
        "period 4\n1 \t 5\n5\t1\n2\t2\n",
        "period 4\n1 5\t1\n",
        "period 4\n\n# x\n1\t5\n1\t5\n",
        "period 4\n1\t5\n5\t1\n2\t2\n3\t9\n",
        "period 0\n",
        "period\t4\r\n1\t5\r\n5 1\r\n2\t\t2\r\n",
        f"period 4\n1\t{COORD_MAX + 2}\n",
        "period 9\n3\t3\n3\t3\n12\t5\n",
        # a canonical text and one more character, with no newline
        "period 4\n1\t5\n2\t2\n5\t1\n3",
    ])
    def test_pinned_texts(self, text):
        assert outcome(parse_gamma, text) == outcome(parse_gamma_lines, text)

    def test_round_trip_is_byte_identical(self):
        for point in props.FAMILY_POOL:
            gamma = props.get_gamma(point)
            text = dump_gamma(gamma)
            assert text == "period %d\n" % gamma.period + "".join(
                f"{a}\t{b}\n" for a, b in gamma.points)
            assert parse_gamma(text) == gamma

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_dump_small_chunks(self, chunk):
        """Dumped a few points at a time, the text is the same, for sets
        that fill the last chunk or not, and for an empty set; chunks of
        64 hold some of these sets whole and split others."""
        gammas = [props.get_gamma(point) for point in props.FAMILY_POOL]
        with mock.patch.object(gammafile, "_DUMP_POINTS", chunk):
            for gamma in gammas + [validate_generating_set([], 4)]:
                assert dump_gamma(gamma) == "period %d\n" % gamma.period + \
                    "".join(f"{a}\t{b}\n" for a, b in gamma.points)

    def test_parse_peak_is_bounded_by_the_result(self):
        """A dumped text is read by its chain starts: the points are built
        once, in a list that dies once the set's tuple holds them, and
        checked against the text one piece of the dump at a time, so the
        parse peaks well under 1.3 times what it returns (1.08 times at
        Kummer (4501, 30), genus 65,250, under Python 3.11.7)."""
        text = dump_gamma(kummer_generating_set(4501, 30))
        tracemalloc.start()
        try:
            gamma = parse_gamma(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gamma.genus == 65250
        assert peak <= 1.3 * retained, (peak, retained)

    def test_dump_peak_is_bounded_by_the_output(self):
        """The text is formatted one chunk of points at a time and joined,
        so the dump peaks near twice its output (2.04 times at Kummer
        (4501, 30)), not at a format tuple of every coordinate."""
        gamma = kummer_generating_set(4501, 30)
        tracemalloc.start()
        try:
            text = dump_gamma(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sys.getsizeof(text), (peak, len(text))

    def test_trailing_note_is_not_a_comment(self):
        with pytest.raises(GammaFileError,
                           match="line 2: non-integer coordinate"):
            parse_gamma("period 4\n1\t5  # note\n5\t1\n2\t2\n")


# --- the chain read ---------------------------------------------------------

#: Mutations of a dumped text that keep it close to the canonical form:
#: each sends the text off the chain read, to the line path.  The first
#: eleven change the text's form; the last four keep every line canonical
#: and break how the lines make up chains: two adjacent lines swapped, a
#: chain start dropped, a chain's last line dropped, a start's image moved
#: by +-period.
CANONICAL_MUTATIONS = ("leading_zeros", "plus", "underscore", "arabic",
                       "zero", "long_token", "period_leading_zero",
                       "period_crlf", "late_header", "comment",
                       "no_final_newline", "swap", "drop_start",
                       "drop_chain_end", "move_start")


@st.composite
def canonical_mutants(draw):
    """A family set's :func:`dump_gamma` text with one mutation that looks
    canonical, or nearly so: ``007``, ``+5``, ``1_0``, Arabic-Indic digits,
    ``0`` and a 4,301-digit token in a pair, ``period 04`` and
    ``period 4\\r\\n`` headers, the header after a pair, a comment
    mid-file, no final newline; or two adjacent lines swapped, a chain
    start or a chain's last line dropped, or a start's image moved by
    +-period."""
    gamma = props.get_gamma(draw(st.sampled_from(props.FAMILY_POOL)))
    period = gamma.period
    lines = dump_gamma(gamma).splitlines()
    kind = draw(st.sampled_from(CANONICAL_MUTATIONS))
    if kind == "period_leading_zero":
        lines[0] = f"period 0{period}"
    elif kind == "period_crlf":
        lines[0] += "\r"
    elif kind == "late_header":
        lines.insert(draw(st.integers(1, len(lines) - 1)), lines.pop(0))
    elif kind == "comment":
        lines.insert(draw(st.integers(1, len(lines))), "# a comment")
    elif kind == "swap":
        i = draw(st.integers(0, len(lines) - 2))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind in ("drop_start", "drop_chain_end", "move_start"):
        chain = draw(st.sampled_from(sorted(chains_of(gamma).values())))
        a, b = chain[-1] if kind == "drop_chain_end" else chain[0]
        i = gamma.points.index((a, b)) + 1  # the header is line 0
        if kind == "move_start":
            up = draw(st.booleans()) or b <= period
            lines[i] = f"{a}\t{b + period if up else b - period}"
        else:
            del lines[i]
    elif kind != "no_final_newline" and len(lines) > 1:
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split("\t")
        j = draw(st.integers(0, 1))
        token = fields[j]
        fields[j] = {
            "leading_zeros": "00" + token,
            "plus": "+" + token,
            "underscore": token[:1] + "_" + token[1:],
            "arabic": "".join(chr(0x660 + int(c)) for c in token),
            "zero": "0",
            "long_token": "1" + "0" * 4300,
        }[kind]
        lines[i] = "\t".join(fields)
    return "\n".join(lines) + ("" if kind == "no_final_newline" else "\n")


def chain_route_only():
    """A context in which a parse that leaves the chain read fails: the
    line comprehension, the line scanner and the law walk raise."""
    stack = ExitStack()
    for module, name in ((gammafile, "_read_lines"),
                         (gammafile, "_parse_lines"),
                         (lattice, "period_law_violations")):
        stack.enter_context(mock.patch.object(
            module, name, side_effect=AssertionError(name)))
    return stack


#: Texts that would make a chain read without its guards expand without
#: bound, or that probe its input checks: a chain of 5e10 points in a
#: one-line file, a negative image beside a huge one whose chain lengths
#: add up to the line count, a 5,000-digit period, a 5,000-digit
#: coordinate and both, a valid set with its start block out of order,
#: and a chain of 50,000 points whose length matches a file of as many
#: lines, all but two of them blank.
HOSTILE_TEXTS = (
    "period 2\n1\t99999999999\n",
    "period 5\n1\t-5000000000000\n2\t5000000000007\n",
    "period " + "7" * 5000 + "\n1\t1\n",
    "period 4\n1\t" + "9" * 5000 + "\n",
    "period " + "7" * 5000 + "\n1\t" + "9" * 5000 + "\n",
    "period 4\n2\t2\n1\t5\n5\t1\n",
    "period 2\n1\t99999\n9\n" + "\n" * 49998,
    "period  7\n" + test_cli.TestStream.NON_DIAGONAL["nd7"][0][8:],
    "period +7\n" + test_cli.TestStream.NON_DIAGONAL["nd7"][0][8:],
)


class TestCanonicalChunks:
    """Canonical texts are read by their chain starts and proved by the
    dump; every other text goes to the line path, with the line scanner's
    outcome."""

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS + (gammafile._CHUNK_CHARS,))
    @settings(max_examples=150, deadline=None)
    @given(canonical_mutants())
    def test_mutated_dumps_agree_with_line_scanner(self, chunk, text):
        want = outcome(parse_gamma_lines, text, "f.gamma")
        # a valid text is read without the diagnostic scan
        scanned = AssertionError("scanned") if want[0] == "ok" else None
        with mock.patch.object(gammafile, "_CHUNK_CHARS", chunk), \
                mock.patch.object(gammafile, "_parse_lines",
                                  side_effect=scanned,
                                  wraps=gammafile._parse_lines):
            assert outcome(parse_gamma, text, "f.gamma") == want

    def test_every_dump_takes_the_chain_route(self):
        """The dump of every family set of the pool and of the nd5 and nd7
        sets is read by its chains alone, to the line scanner's set."""
        gammas = [props.get_gamma(point) for point in props.FAMILY_POOL]
        gammas += [parse_gamma(text) for text, _ in
                   test_cli.TestStream.NON_DIAGONAL.values()]
        for gamma in gammas:
            text = dump_gamma(gamma)
            want = outcome(parse_gamma_lines, text)
            with chain_route_only():
                assert outcome(parse_gamma, text) == want

    def test_dump_never_takes_the_line_path(self):
        """Kummer (4501, 30), genus 65,250, is read by its 4,500 chain
        starts: no other line is split, and the law is not walked."""
        gamma = kummer_generating_set(4501, 30)
        text = dump_gamma(gamma)
        with chain_route_only():
            assert parse_gamma(text) == gamma

    def test_one_comment_sends_one_chunk_down_the_line_path(self):
        """One comment line sends the whole text off the chain read: every
        chunk of it is read by the line comprehension, to the same set,
        with no diagnostic scan."""
        gamma = kummer_generating_set(4501, 30)
        lines = dump_gamma(gamma).splitlines(keepends=True)
        lines.insert(30000, "# a comment\n")
        text = "".join(lines)
        assert gammafile._read_chains(text) is None
        with mock.patch.object(gammafile, "_read_lines",
                               wraps=gammafile._read_lines) as spy, \
                mock.patch.object(gammafile, "_parse_lines",
                                  side_effect=AssertionError("scanned")):
            assert parse_gamma(text) == gamma
        assert "".join(call.args[0] for call in spy.call_args_list) == text

    @pytest.mark.parametrize("header", ["period  2001\n", "period +2001\n"],
                             ids=["spaced", "signed"])
    def test_header_is_canonical_before_expanding(self, header):
        """A header that ``int`` reads but :func:`dump_gamma` does not
        write sends the text to the line path before any chain is
        expanded."""
        text = dump_gamma(kummer_generating_set(2001, 5))
        text = header + text[text.index("\n") + 1:]
        with mock.patch.object(gammafile, "_levels",
                               side_effect=AssertionError("expanded")):
            assert gammafile._read_chains(text) is None
        assert parse_gamma(text) == parse_gamma_lines(text)

    @pytest.mark.parametrize("text", HOSTILE_TEXTS, ids=(
        "chain_5e10", "negative_b0", "long_period", "long_coordinate",
        "long_both", "unsorted_starts", "blank_lines", "spaced_header",
        "signed_header"))
    def test_hostile_texts_are_bounded(self, text):
        """Each has the line scanner's outcome, and the parse peaks under
        1 MiB: no chain is expanded past the file's line count."""
        want = outcome(parse_gamma_lines, text, "f.gamma")
        tracemalloc.start()
        try:
            got = outcome(parse_gamma, text, "f.gamma")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20, peak


class TestStreamedGammaEmission:
    """``--emit gamma`` writes one piece at a time, byte-identical to the
    whole text: the exchange format, and ``json.dumps`` of the set's
    ``{"period", "points"}`` object and a newline."""

    @staticmethod
    def expected(gamma, fmt):
        if fmt == "json":
            return json.dumps({"period": gamma.period, "points": [
                [a, b] for a, b in gamma.points]}) + "\n"
        return "period %d\n" % gamma.period + "".join(
            f"{a}\t{b}\n" for a, b in gamma.points)

    @pytest.mark.parametrize("dump_points", [1, 3, 64, 4096])
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_byte_identical(self, tmp_path, dump_points, fmt):
        """For sets that fill the last piece or not, and an empty set."""
        gammas = [props.get_gamma(point) for point in props.FAMILY_POOL]
        gammas.append(validate_generating_set([], 4))
        with mock.patch.object(gammafile, "_DUMP_POINTS", dump_points):
            for gamma in gammas:
                path = tmp_path / "set.gamma"
                path.write_text(dump_gamma(gamma), encoding="utf-8")
                out = io.StringIO()
                with mock.patch.object(sys, "stdout", out):
                    code = cli.main(["generic", "--input", str(path),
                                     "--emit", "gamma", "--format", fmt])
                assert code == 0
                assert out.getvalue() == self.expected(gamma, fmt)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_written_one_piece_at_a_time(self, fmt):
        class Recorder(io.StringIO):
            def write(self, piece):
                sizes.append(len(piece))
                return super().write(piece)

        sizes = []
        out = Recorder()
        with mock.patch.object(sys, "stdout", out):
            code = cli.main(["kummer", "--m", "4501", "--r", "30",
                             "--emit", "gamma", "--format", fmt])
        assert code == 0
        assert out.getvalue() == self.expected(
            kummer_generating_set(4501, 30), fmt)
        # 65,250 points in pieces of 4,096, each point under 20 characters
        assert len(sizes) >= 65250 // 4096
        assert max(sizes) < 4096 * 20
