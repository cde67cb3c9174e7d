"""Plain-text exchange format for generating sets.

UTF-8 text.  Lines starting with ``#`` (after optional whitespace) and
blank lines are ignored; a ``#`` after a pair is not a comment.  The
first payload line must be ``period <int>``; every following payload line
is one ``<beta><TAB><tau>`` pair.  Parse and validation diagnostics carry
1-based line numbers.

A file is read by its chains first.  A valid set is the union of the
chains ``(a0 + i*period, b0 - i*period)``, ``0 <= i < ceil(b0/period)``,
one from each of its points below the period, and :func:`dump_gamma`
writes them sorted, so the text :func:`dump_gamma` writes holds its
whole set in its leading lines, the chain starts.  :func:`_read_chains`
reads a ``period <int>`` first line, written as :func:`dump_gamma` writes
it, and then only the lines with ``a < period``.  Before it expands
anything, it checks the starts by :func:`lattice._starts_fit` against
the number of lines after the header, and that those lines hold at least
four characters each, as a point's line does, so no text can make it
build more points than it has lines, or than a quarter of its
characters.  It then builds the set from the chain levels of
:func:`lattice._levels`, sorted, and accepts the text only if the pieces
of :func:`dump_pieces` of the set match it exactly, one after the other.
Equality with the canonical rendering of a valid chain set proves the
format, every value, the order, the exact ``int`` types and the period
law at once, so on this route no line other than a start is split,
converted or walked.

Any other text (comments, blank lines, spaces, CRLF, a last line with no
newline, signs, underscores, leading zeros, non-ASCII digits, an invalid
set) is read in whole-list passes over one chunk of text at a time: the
text is cut into chunks of about ``_CHUNK_CHARS`` characters, each
ending just after a newline, so lines are held one chunk at a time,
never the whole file's.  Each chunk has its payload lines picked out,
split and converted in one comprehension.  The pairs are then validated
as a list, handed over as an iterator so that the parser's list dies
once validation has copied it.  Only when a pass fails is the text
scanned line by line, to name the line at fault.

A set is written ``_DUMP_POINTS`` points per format operation, as pieces
that the command line writes one at a time and :func:`dump_gamma` joins,
so a dump holds its text and the pieces of it, never a format tuple of
every coordinate.
"""

from __future__ import annotations

from itertools import chain

from .errors import GammaFileError, ValidationError
from .lattice import (
    GeneratingSet, _levels, _starts_fit, validate_generating_set)


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
        period, pairs = _read_payload(text)
        pairs = iter(pairs)  # the list dies once validation has copied it
        return validate_generating_set(pairs, period)
    except (ValueError, OverflowError):  # ValidationError is a ValueError
        return _parse_lines(text.splitlines(), source)


def _read_chains(text: str):
    """The valid set whose :func:`dump_gamma` text is ``text``, read from
    its chain starts, or None when ``text`` is not such a text."""
    body = text.find("\n") + 1
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
    points = []
    for level in _levels(starts, period):
        points += level
    gamma = GeneratingSet(points=tuple(points), period=period)
    del points  # the list is not held while the text is compared
    end = 0
    for piece in dump_pieces(gamma):
        if not text.startswith(piece, end):
            return None
        end += len(piece)
    return gamma if end == len(text) else None


def _read_payload(text: str) -> tuple:
    """``(period, pairs)`` of a well-formed file's text; ValueError (with
    no line number) when any payload line is malformed.  Each chunk goes
    through :func:`_read_lines`, and the header is the first payload line
    of whichever chunk holds it."""
    period = None
    pairs = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        period = _read_lines(text[start:end], period, pairs)
        start = end
    if period is None:
        raise ValueError("missing header")
    return int(period), pairs


def _read_lines(chunk: str, period, pairs: list):
    """Append the pairs of ``chunk``'s payload lines to ``pairs`` and
    return the period, taken from the chunk's first payload line while it
    is ``None``; ValueError when a payload line is malformed."""
    payload = [line for line in map(str.strip, chunk.splitlines())
               if line and line[0] != "#"]
    if period is None and payload:
        word, period = payload.pop(0).split()
        if word != "period":
            raise ValueError("bad header")
    pairs += [(int(a), int(b)) for a, b in map(str.split, payload)]
    return period


def _parse_lines(lines: list, source: str) -> GeneratingSet:
    """Parse and validate line by line, raising for the first line at
    fault: a bad header or pair, a coordinate already seen, or the point
    whose validation error names a first coordinate.  The diagnostic run
    after a whole-list pass has failed."""
    period = None
    pairs = []
    first_line = {}
    second_line = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
        if a in first_line:
            raise GammaFileError(
                f"{source}: DuplicateFirstCoordinate at line {lineno}: {a} "
                f"first seen at line {first_line[a]}")
        if b in second_line:
            raise GammaFileError(
                f"{source}: DuplicateSecondCoordinate at line {lineno}: {b} "
                f"first seen at line {second_line[b]}")
        first_line[a] = lineno
        second_line[b] = lineno
        pairs.append((a, b))

    if period is None:
        raise GammaFileError(f"{source}: missing 'period <int>' header")
    try:
        return validate_generating_set(pairs, period)
    except ValidationError as exc:
        beta = getattr(exc, "beta", None)
        where = f" (point at line {first_line[beta]})" if beta in first_line else ""
        raise GammaFileError(
            f"{source}: {type(exc).__name__}: {exc}{where}") from exc


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
    """Yield the text of ``gamma`` in pieces of ``_DUMP_POINTS`` points,
    one format operation each: the exchange format for ``"tsv"``, and for
    ``"json"`` the text of ``json.dumps({"period": period, "points":
    [[a, b], ...]})`` and a newline.  A piece's format tuple is one
    chunk's coordinates, not the set's."""
    points = gamma.points
    if fmt == "json":
        yield f'{{"period": {gamma.period}, "points": ['
        chunks = _format_chunks(points, ", [%s, %s]")
        yield next(chunks, "")[2:]  # no separator before the first point
        yield from chunks
        yield "]}\n"
        return
    yield f"period {gamma.period}\n"
    yield from _format_chunks(points, "%s\t%s\n")


def _format_chunks(points, cell: str):
    """``cell`` formatted with each point, ``_DUMP_POINTS`` points per
    piece."""
    for start in range(0, len(points), _DUMP_POINTS):
        chunk = points[start:start + _DUMP_POINTS]
        yield (cell * len(chunk)) % tuple(chain.from_iterable(chunk))
