"""Wall time, point counts and memory of the engine's G0 on chosen inputs.

Each input is measured in a fresh child process that imports ``puregaps``
from the source tree given by ``--src``, so two checkouts (before and
after a change) can be compared on one host::

    python devtools/measure_columns.py --src src --label after > after.json

A child builds the input's generating set and its boxes, then times
``assemble_pure_gaps`` (the best of ``--repeat`` untraced runs), then
builds it once more under ``tracemalloc``: ``retained_mib`` is what the
G0 values hold once built, ``traced_peak_mib`` the peak during the build.
``peak_rss_mib`` is the child's own peak RSS (``VmHWM``) at the end, its
generating set included.  Inputs with ``scan`` also time the direct scan
drained into the engine's comparison, ``scan_and_compare_s`` (the best
of ``--repeat`` runs), and give the peak RSS just before it,
``rss_before_scan_mib``; ``generic`` times the CLI's ``generic --emit
summary`` on the input's set file; ``load`` times ``load_gamma`` on that
file (``load_s``, the best of ``--repeat`` runs) and loads it once more
under ``tracemalloc``: ``load_retained_mib`` is what the loaded set holds,
``load_traced_peak_mib`` the peak during the load.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

#: name -> (the child's builder, extras).  A builder returns a list of
#: generating sets, validated by the package under test.  ``memory`` builds
#: G0 once more under tracemalloc, ``scan`` times the direct scan and the
#: comparison, ``generic`` the summary of the input's set file, ``load``
#: the generate+validate layer: reading that file back.
INPUTS = {
    "non_diagonal_sets": ("non_diagonal", ("memory",)),
    "gk_q7": ("gk 7", ("memory", "scan")),
    "sparse_p4001": ("sparse", ("memory", "scan")),
    "random_chains_p4001": ("chains 4001", ("memory", "scan")),
    "gk_q10": ("gk 10", ("scan",)),
    "gk_q19": ("gk 19", ()),
    "kummer_4501_30": ("kummer 4501 30", ("scan", "generic", "load")),
    "kummer_351_230": ("kummer 351 230", ("scan",)),
    "kummer_1001_500": ("kummer 1001 500", ("scan", "load")),
}

CHILD = r"""
import json, os, random, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import puregaps
from puregaps import (assemble_pure_gaps, decompose, gk_generating_set,
                      kummer_generating_set, validate_generating_set)
from puregaps.errors import ValidationError
from puregaps.harness import oracle_mismatch
from puregaps.oracle import pure_gap_boxes_direct

def chains(period, pairs):
    # (r, s, h): the chain (r + i*period, s + (h - i)*period), 0 <= i <= h
    return validate_generating_set(
        [(r + i * period, s + (h - i) * period)
         for r, s, h in pairs for i in range(h + 1)], period)

def non_diagonal():
    # the recipe of the non_diagonal_sets property strategy, seeded
    rng = random.Random(31)
    out = []
    while len(out) < 300:
        period = rng.randint(3, 12)
        n = rng.randint(2, period - 1)
        firsts = rng.sample(range(1, period), n)
        seconds = rng.sample(range(1, period), n)
        heights = [rng.randint(0, 4) for _ in range(n)]
        try:
            gamma = chains(period, zip(firsts, seconds, heights))
        except ValidationError:
            continue
        if not decompose(gamma).diagonal:
            out.append(gamma)
    return out

def sparse():
    # Period 4001.  Row 0 holds the chains of every residue but 4000, their
    # second coordinates increasing with the residue and skipping 2000; the
    # chain of residue 4000 has height 1 and second coordinate 2000.  So the
    # points above row 0 have the one second coordinate 2000, and each of
    # the 2000 row-0 points with a larger one has the one-point column
    # {2000}: a mask of 2000 bits with one set.
    p = 4001
    seconds = [s for s in range(1, p) if s != 2000]
    return [chains(p, [(r, s, 0) for r, s in zip(range(1, p - 1), seconds)]
                   + [(p - 1, 2000, 1)])]

def random_chains(p):
    # the CI recipe of the period-601 set, at another period
    rng = random.Random(29)
    seconds = list(range(1, p))
    rng.shuffle(seconds)
    return [chains(p, [(r, s, rng.randrange(5))
                       for r, s in zip(range(1, p), seconds)])]

def build(spec):
    kind, *args = spec.split()
    args = list(map(int, args))
    if kind == "gk":
        return [gk_generating_set(*args)]
    if kind == "kummer":
        return [kummer_generating_set(*args)]
    if kind == "chains":
        return random_chains(*args)
    return {"non_diagonal": non_diagonal, "sparse": sparse}[kind]()

def peak_rss_mib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024

spec, extras, repeat, workdir = sys.argv[2], sys.argv[3].split(","), int(sys.argv[4]), sys.argv[5]
gammas = build(spec)
boxes = [decompose(g) for g in gammas]
best = float("inf")
for _ in range(repeat):
    start = time.perf_counter()
    built = [assemble_pure_gaps(b) for b in boxes]
    best = min(best, time.perf_counter() - start)
    del built
out = {"sets": len(gammas), "genus": sum(g.genus for g in gammas),
       "period": max(g.period for g in gammas), "assemble_s": best}
if "memory" in extras:
    tracemalloc.start()
g0s = [assemble_pure_gaps(b) for b in boxes]
if "memory" in extras:
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    out.update(retained_mib=retained / 2**20, traced_peak_mib=peak / 2**20)
out["points"] = sum(map(len, g0s))
if "scan" in extras:
    out["rss_before_scan_mib"] = peak_rss_mib()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        texts = [oracle_mismatch(g0, pure_gap_boxes_direct(g))
                 for g0, g in zip(g0s, gammas)]
        best = min(best, time.perf_counter() - start)
        assert texts == [""] * len(texts), texts
    out["scan_and_compare_s"] = best
if "generic" in extras or "load" in extras:
    from puregaps.gammafile import dump_gamma, load_gamma
    path = os.path.join(workdir, "input.gamma")
    with open(path, "w") as fh:
        fh.write(dump_gamma(gammas[0]))
if "load" in extras:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        loaded = load_gamma(path)
        best = min(best, time.perf_counter() - start)
        assert loaded == gammas[0]
        del loaded
    out["load_s"] = best
    tracemalloc.start()
    loaded = load_gamma(path)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del loaded
    out.update(load_retained_mib=retained / 2**20,
               load_traced_peak_mib=peak / 2**20)
if "generic" in extras:
    import contextlib, io
    from puregaps.cli import main
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = main(["generic", "--input", path, "--emit", "summary"])
    out["generic_summary_s"] = time.perf_counter() - start
    assert code == 0 and "verdict.engine_vs_oracle\tpass" in text.getvalue()
out["peak_rss_mib"] = peak_rss_mib()
print(json.dumps(out))
"""


def measure(src: str, name: str, repeat: int) -> dict:
    spec, extras = INPUTS[name]
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, os.path.abspath(src), spec,
             ",".join(extras), str(repeat), work],
            capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src",
                        help="directory holding the puregaps package")
    parser.add_argument("--label", default="")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("inputs", nargs="*", default=list(INPUTS))
    args = parser.parse_args(argv)
    results = {name: measure(args.src, name, args.repeat)
               for name in args.inputs}
    json.dump({"label": args.label, "inputs": results}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
