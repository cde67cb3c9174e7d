"""Plain-text exchange format for generating sets.

UTF-8 text.  Lines starting with ``#`` (after optional whitespace) and
blank lines are ignored; a ``#`` after a pair is not a comment.  The
first payload line must be ``period <int>``; every following payload line
is one ``<beta><TAB><tau>`` pair.  Parse and validation diagnostics carry
1-based line numbers.

A text is read by one of two routes, the chain read or the line scan.

The chain read comes first.  A valid set is the union of the chains
``(a0 + i*period, b0 - i*period)``, ``0 <= i < ceil(b0/period)``, one
from each of its points below the period, and :func:`dump_gamma` writes
them sorted, so the text :func:`dump_gamma` writes holds its whole set
in its leading lines, the chain starts.  :func:`_read_chains` reads a
``period <int>`` first line, written as :func:`dump_gamma` writes it,
and then only the lines with ``a < period``.  It checks the starts by
:func:`lattice._starts_fit` against the number of lines after the
header, and that those lines hold at least four characters each, as a
point's line does, so no text can make it stream more points than it has
lines, or than a quarter of its characters.  It then holds the starts in
a :class:`GeneratingSet`, through the raw constructor, and accepts the
text only if the pieces of :func:`dump_pieces` of that set, streamed
from the starts, match it exactly, one after the other.  Equality with
the canonical rendering of a valid chain set proves the format, every
value, the order, the exact ``int`` types and the period law at once, so
on this route no line other than a start is split, converted or walked,
no tuple of the set's points is built, and no set is returned that
validation would refuse.

Any other text (comments, blank lines, spaces, CRLF, a last line with no
newline, signs, underscores, leading zeros, non-ASCII digits, an invalid
set) is read by the one line scan, :func:`_scan_lines`, with the grammar
above.  It reads the text in chunks of about ``_CHUNK_CHARS``
characters, each ending just after a newline, so lines are held one
chunk at a time, never the whole file's.  It lists the pairs with no map
of coordinates, and :func:`validate_generating_set` gets them as an
iterator, so the list dies once validation has copied it.  Only when the
scan or validation refuses the text is it scanned a second time, by the
same function given two maps of coordinates to lines, to name the first
fault in line order: a coordinate already seen on a line before any
malformed line, then the malformed line, and otherwise the point that
validation names.  Before that scan, the traceback of validation's
error is cleared, since its frames hold validation's copies of the set,
so the maps are never held beside them.

A set is written from its starts, one level of its chains at a time
and at most ``_DUMP_POINTS`` points per format operation, as pieces that
the command line writes one at a time and :func:`dump_gamma` joins, so a
dump holds its text and the pieces of it, never a tuple of the set's
points or a format tuple of every coordinate.
"""

from __future__ import annotations

from itertools import chain

from .errors import GammaFileError, ValidationError
from .lattice import GeneratingSet, _starts_fit, validate_generating_set


#: Characters of text split into lines at a time.  A chunk runs on to just
#: after the first newline at or past this many characters, so each line
#: lies in one chunk: a ``"\r\n"`` pair and every other separator of
#: ``str.splitlines`` end before the cut.
_CHUNK_CHARS = 1 << 16

#: Points formatted at a time by :func:`dump_pieces`.
_DUMP_POINTS = 4096


def parse_gamma(text: str, source: str = "<string>") -> GeneratingSet:
    """Parse and validate the text of a generating set file."""
    gamma = _read_chains(text)
    if gamma is not None:
        return gamma
    try:
        period, pairs = _scan_lines(text, source)
        pairs = iter(pairs)  # the list dies once validation has copied it
        return validate_generating_set(pairs, period)
    except GammaFileError:
        error = None  # the second scan raises it again, or an earlier repeat
    except (ValidationError, OverflowError) as exc:
        error = exc.with_traceback(None)  # its frames hold validation's points
    first_line, second_line = {}, {}
    _scan_lines(text, source, first_line, second_line)
    if not isinstance(error, ValidationError):
        raise error
    beta = getattr(error, "beta", None)
    where = f" (point at line {first_line[beta]})" if beta in first_line else ""
    raise GammaFileError(
        f"{source}: {type(error).__name__}: {error}{where}") from error


def _read_chains(text: str):
    """The valid set whose :func:`dump_gamma` text is ``text``, read from
    its chain starts, or None when ``text`` is not such a text."""
    body = text.find("\n") + 1
    # refuses a long first line unsliced: the header comparison below
    # copies the line, or the whole text when it has no newline
    if not (body and text.startswith("period ")):
        return None
    starts = []
    try:
        period = int(text[7:body - 1])
        if period < 1 or text[:body] != f"period {period}\n":
            return None
        end = body - 1
        while True:  # the leading lines with a < period
            start, end = end + 1, text.find("\n", end + 1)
            a, _, b = text[start:end].partition("\t")
            if end < 0 or int(a) >= period:
                break
            starts.append((int(a), int(b)))
    except ValueError:
        return None
    lines = text.count("\n", body)
    # A point's line holds at least four characters, so once the chain
    # lengths add up to the line count, the chains hold at most a quarter
    # as many points as the text has characters: blank lines cannot make
    # the expansion outgrow the text.
    if 4 * lines > len(text) - body or not _starts_fit(starts, period, lines):
        return None
    gamma = GeneratingSet(starts=tuple(starts), period=period)
    end = 0
    for piece in dump_pieces(gamma):
        if not text.startswith(piece, end):
            return None
        end += len(piece)
    return gamma if end == len(text) else None


def _chunks(text: str):
    """Yield ``text`` in chunks of about ``_CHUNK_CHARS`` characters, each
    but the last ending just after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _scan_lines(text: str, source: str, first_line=None, second_line=None):
    """``(period, pairs)`` of ``text``, read line by line, one chunk of it
    at a time; GammaFileError for the first line at fault, a bad header or
    pair.  Given the two dicts, it maps each coordinate to its line in
    them, raises for a coordinate already seen too, and lists no pair."""
    period = None
    pairs = []
    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if period is None:
            fields = line.split()
            if len(fields) != 2 or fields[0] != "period":
                raise GammaFileError(
                    f"{source}: line {lineno}: expected 'period <int>' header, "
                    f"got {line!r}")
            try:
                period = int(fields[1])
            except ValueError:
                raise GammaFileError(
                    f"{source}: line {lineno}: period {fields[1]!r} is not an "
                    "integer") from None
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            fields = line.split()
        if len(fields) != 2:
            raise GammaFileError(
                f"{source}: line {lineno}: expected '<beta><TAB><tau>', got "
                f"{line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GammaFileError(
                f"{source}: line {lineno}: non-integer coordinate in {line!r}"
            ) from None
        if first_line is None:
            pairs.append((a, b))
        elif a in first_line:
            raise GammaFileError(
                f"{source}: DuplicateFirstCoordinate at line {lineno}: {a} "
                f"first seen at line {first_line[a]}")
        elif b in second_line:
            raise GammaFileError(
                f"{source}: DuplicateSecondCoordinate at line {lineno}: {b} "
                f"first seen at line {second_line[b]}")
        else:
            first_line[a] = second_line[b] = lineno
    if period is None:
        raise GammaFileError(f"{source}: missing 'period <int>' header")
    return period, pairs


def load_gamma(path) -> GeneratingSet:
    """Read and validate a generating set file from disk.  A file that is
    not UTF-8 raises GammaFileError naming the line of its first bad
    byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise GammaFileError(
            f"{path}: line {lineno}: not UTF-8 text ({exc.reason} at byte "
            f"{exc.start})") from None
    del data  # the bytes are not held while the text is parsed
    return parse_gamma(text, source=str(path))


def dump_gamma(gamma: GeneratingSet) -> str:
    """Serialize a generating set in the exchange format (sorted points):
    the pieces of :func:`dump_pieces`, joined."""
    return "".join(dump_pieces(gamma))


def dump_pieces(gamma: GeneratingSet, fmt: str = "tsv"):
    """Yield the text of ``gamma`` in pieces of at most ``_DUMP_POINTS``
    points, one format operation each: the exchange format for ``"tsv"``,
    and for ``"json"`` the text of ``json.dumps({"period": period,
    "points": [[a, b], ...]})`` and a newline.

    The points are streamed from the starts in sorted order: level ``i`` of
    the chains, ``(a0 + i*period, b0 - i*period)`` for each start with
    ``i*period < b0``, after level ``i - 1``.  A level is held as two int
    lists, its first and its second coordinates, interleaved into one flat
    list by slice assignment, so a dump builds no tuple per point and holds
    one level's coordinates and one piece's format tuple at a time."""
    starts, period = gamma
    as_json = fmt == "json"
    yield (f'{{"period": {period}, "points": [' if as_json
           else f"period {period}\n")
    cell = ", [%s, %s]" if as_json else "%s\t%s\n"
    skip = 2 if as_json else 0  # no separator before the first point
    firsts, seconds = [list(c) for c in zip(*starts)] or [[], []]
    while firsts:
        flat = firsts * 2
        flat[::2], flat[1::2] = firsts, seconds
        for start in range(0, len(flat), 2 * _DUMP_POINTS):
            chunk = flat[start:start + 2 * _DUMP_POINTS]
            yield ((cell * (len(chunk) // 2)) % tuple(chunk))[skip:]
            skip = 0
        firsts = [a + period for a, b in zip(firsts, seconds) if b > period]
        seconds = [b - period for b in seconds if b > period]
    if as_json:
        yield "]}\n"
