"""Golden digests of the command line's output.

Every case is one ``puregaps`` command line; its digest is the SHA-256 of
what the command writes to stdout, with the wall-clock cells of ``verify``
rows (``name_s=<seconds>``) cut to ``name_s=``.  The table,
``tests/golden.json``, maps each command line to its exit code and digest.
``tests/test_golden.py`` recomputes every digest and names the command
lines that differ, so a change of any covered output, by even one byte,
fails the suite.

Usage, from the root of the repository::

    PYTHONPATH=src python devtools/golden.py           # compare with the table
    PYTHONPATH=src python devtools/golden.py --write   # rewrite the table

A change that rewrites the table must say which digests changed and why.
``generic`` cases read set files that :func:`write_inputs` writes into a
scratch directory, the working directory of every case, so their command
lines name them by relative path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from math import gcd
from pathlib import Path

TABLE = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

#: Set files of the ``generic`` cases, by name.  nd5 and nd7 are small
#: non-diagonal sets; each has a pure gap with second coordinate 2g - 2.
SMALL_SETS = {
    "nd5.gamma": "period 5\n1\t1\n2\t9\n4\t8\n7\t4\n9\t3\n",
    "nd7.gamma": "period 7\n" + "".join(f"{a}\t{b}\n" for a, b in (
        (1, 31), (2, 30), (4, 5), (5, 6), (6, 22), (8, 24), (9, 23),
        (13, 15), (15, 17), (16, 16), (20, 8), (22, 10), (23, 9),
        (27, 1), (29, 3), (30, 2))),
}

#: Family set files, written by ``--emit gamma``: name -> family arguments.
FAMILY_SETS = {
    "gk3.gamma": ["gk", "--q", "3"],
    "k7-5.gamma": ["kummer", "--m", "7", "--r", "5"],
    "k41-60.gamma": ["kummer", "--m", "41", "--r", "60"],
}

_TIMING = re.compile(r"(\w+_s)=[0-9.]+")


def nd601_text() -> str:
    """The non-diagonal set of period 601 (genus 1820) that CI builds: each
    residue r carries a chain of random height below 5 that ends at a
    shuffled second coordinate."""
    rng = random.Random(29)
    p = 601
    seconds = list(range(1, p))
    rng.shuffle(seconds)
    points = []
    for r, s in zip(range(1, p), seconds):
        h = rng.randrange(5)
        points.extend((r + i * p, s + (h - i) * p) for i in range(h + 1))
    return f"period {p}\n" + "".join(f"{a}\t{b}\n" for a, b in sorted(points))


def cases() -> list:
    """Every covered command line, in table order."""
    out = []
    for fmt in ("tsv", "json"):
        out += [["gk", "--q", str(q), "--emit", "summary", "--format", fmt]
                for q in range(2, 10)]
    out += [["kummer", "--m", str(m), "--r", str(r), "--emit", "summary"]
            for m in range(2, 21) for r in range(2, 21) if gcd(m, r) == 1]
    for emit in ("puregaps", "gamma"):
        for fmt in ("tsv", "json"):
            out += [["gk", "--q", str(q), "--emit", emit, "--format", fmt]
                    for q in range(2, 6)]
            out += [["kummer", "--m", str(m), "--r", str(r), "--emit", emit,
                     "--format", fmt]
                    for m, r in ((7, 5), (13, 11), (41, 60), (43, 37),
                                 (101, 3))]
    for name in (*SMALL_SETS, "nd601.gamma", *FAMILY_SETS):
        for emit in ("summary", "puregaps", "gamma"):
            for fmt in ("tsv", "json"):
                out.append(["generic", "--input", name, "--emit", emit,
                            "--format", fmt])
    out += [["verify"], ["verify", "--special", "ur1"],
            ["verify", "--special", "qn"]]
    return out


def key(argv) -> str:
    return " ".join(argv)


def run(argv) -> tuple:
    """(exit code, stdout) of one command line, run in this process."""
    from puregaps.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def write_inputs(directory) -> None:
    """Write the set files the ``generic`` cases read into ``directory``."""
    directory = Path(directory)
    for name, text in SMALL_SETS.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "nd601.gamma").write_text(nd601_text(), encoding="utf-8")
    for name, argv in FAMILY_SETS.items():
        code, text = run([*argv, "--emit", "gamma"])
        if code:
            raise RuntimeError(f"{key(argv)} --emit gamma exited {code}")
        (directory / name).write_text(text, encoding="utf-8")


def digest(argv) -> dict:
    """The table entry of one command line, run in the current directory."""
    code, text = run(argv)
    if argv[0] == "verify":
        text = _TIMING.sub(r"\1=", text)
    return {"code": code,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def compute() -> dict:
    """Every case's table entry, computed in a scratch directory."""
    import warnings

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # GK q=6 is not a prime power; its warning goes to stderr, not into
        # a digest.
        warnings.simplefilter("ignore")
        os.chdir(tmp)
        try:
            write_inputs(tmp)
            return {key(argv): digest(argv) for argv in cases()}
        finally:
            os.chdir(here)


def load() -> dict:
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(table: dict, got: dict) -> list:
    """The command lines whose entries differ, or that only one side has."""
    return sorted(k for k in table.keys() | got.keys()
                  if table.get(k) != got.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/golden.json from this checkout")
    args = parser.parse_args(argv)
    got = compute()
    if args.write:
        with open(TABLE, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(got)} digests to {TABLE}")
        return 0
    bad = mismatches(load(), got)
    for k in bad:
        print(f"differs: {k}")
    print(f"{len(got) - len(bad)} of {len(got)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
