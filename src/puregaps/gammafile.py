"""Plain-text exchange format for generating sets.

UTF-8 text.  Lines starting with ``#`` (after optional whitespace) and
blank lines are ignored; a ``#`` after a pair is not a comment.  The
first payload line must be ``period <int>``; every following payload line
is one ``<beta><TAB><tau>`` pair.  Parse and validation diagnostics carry
1-based line numbers.

A file is read in whole-list passes: the payload lines are picked out,
each is split and converted in one comprehension, and the pairs are
validated as a list.  Only when a pass fails is the text scanned line by
line, to name the line at fault.
"""

from __future__ import annotations

from itertools import chain, islice

from .errors import GammaFileError, ValidationError
from .lattice import GeneratingSet, validate_generating_set


def parse_gamma(text: str, source: str = "<string>") -> GeneratingSet:
    """Parse and validate the text of a generating set file."""
    lines = text.splitlines()
    try:
        period, pairs = _read_payload(lines)
        return validate_generating_set(pairs, period)
    except (ValueError, OverflowError):  # ValidationError is a ValueError
        return _parse_lines(lines, source)


def _read_payload(lines: list) -> tuple:
    """``(period, pairs)`` of a well-formed file's lines; ValueError (with
    no line number) when any payload line is malformed."""
    payload = [line for line in map(str.strip, lines)
               if line and line[0] != "#"]
    if not payload:
        raise ValueError("missing header")
    word, period = payload[0].split()
    if word != "period":
        raise ValueError("bad header")
    pairs = [(int(a), int(b))
             for a, b in map(str.split, islice(payload, 1, None))]
    return int(period), pairs


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
    """Serialize a generating set in the exchange format (sorted points),
    with one format operation over every coordinate."""
    coords = tuple(chain.from_iterable(gamma.points))
    return f"period {gamma.period}\n" + ("%s\t%s\n" * gamma.genus) % coords
