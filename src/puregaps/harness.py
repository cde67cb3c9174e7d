"""Cross-checking and benchmarking harness behind the CLI.

Each parameter point yields a :class:`RunReport`; verification points run
both routes to the pure gap set (the box engine and the direct oracle
scan), check the family's explicit rows and components G1 and G3 against
the engine's box by box, and record a verdict per cross-check; the scan
is compared with the engine's ``G0`` as it yields each box column, by
:func:`oracle_mismatch`, the one such comparison, which ``bench`` also
streams the scan through.  A scan box is one band of ``c`` periods high
(:func:`~puregaps.oracle.pure_gap_boxes_direct`), so one loop down the
box columns merges the engine's boxes ``c`` at a time into the same
layout as it goes.  Both sides hold a box column as int mask columns, so
it compares by one dict ``==``; a matched box is then held as the
scan's, whose band ints many columns share, and only a differing column
is listed to name its points.
Families are diagonal: their G2 and G4 are the diagonal law's,
checked once, by :func:`~puregaps.engine.check_reflection`.  Summaries
run the engine alone and compare its weighted size with the closed form.
A report's verdicts are one table, ``VERDICT_KEYS`` (``SPECIAL_KEYS`` for
the special-case checks), in table order, each ``skipped`` unless its
route runs it.  Only checks that can fail on validated input are verdicts: the
period displacement law is enforced by validation (a ``ValidationError``)
and the genus identity by :func:`~puregaps.engine.decompose` (a
``ConsistencyError``), before any verdict is recorded.  A verification
point builds the engine's ``G0`` once and its per-box components once,
each in one sweep down the boxes; the family's check against the
engine, :func:`~puregaps.engine.check_components` on the family's
``<name>_components``, and the diagonal law take both from it.  Grids
run their points one after another, in deterministic parameter order,
and yield each report as its point finishes.
"""

from __future__ import annotations

import time
from collections import namedtuple
from math import gcd

from . import gk as gk_mod
from . import kummer as kummer_mod
from .engine import (
    _size,
    assemble_pure_gaps,
    bounds,
    check_components,
    check_reflection,
    components_by_box,
    decompose,
)
from .errors import ConsistencyError
from .lattice import GeneratingSet, set_bits
from .oracle import (
    band_span,
    count_pure_gaps_direct,
    pure_gap_boxes_direct,
)

#: Closed-form families, each diagonal: name -> (module, parameter names).
#: The module gives data, not a check: ``<name>_generating_set``,
#: ``<name>_card_g0`` and ``<name>_components`` (box index -> its
#: (Gamma_{k,0}, G1, G3), the components by mask column), each taking the
#: parameters in this order.  The CLI builds one subcommand per entry,
#: with an int flag per parameter.
FAMILIES = {"gk": (gk_mod, ("q",)), "kummer": (kummer_mod, ("m", "r"))}

#: Default parameter sweep for the m=(q+1)/N special case.
DEFAULT_QN_PAIRS = ((7, 2), (8, 3), (11, 2), (11, 3))

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"

VERDICT_KEYS = (
    "engine_vs_oracle",
    "closed_form_vs_enumeration",
    "components_vs_generic",
    "bound_sandwich",
    "diagonal_reflection",
)

#: Verdicts of a special-case check; ``upper_bound_sharp`` only where the
#: upper bound is known to be sharp.
SPECIAL_KEYS = ("special_vs_enumeration", "upper_bound_sharp")


class RunReport(namedtuple("RunReport", (
        "family", "params", "genus", "period", "row_sizes", "cardinality",
        "lower_bound", "upper_bound", "homma_kim_bound", "verdicts",
        "timings", "detail"), defaults=("",))):
    """One parameter point: inputs, results, verdicts and timings."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(v != FAIL for v in self.verdicts.values())

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({inner})"


def call_family(family: str, func: str, params: dict):
    """Call ``func`` (``{}`` stands for the family name) of a family's module
    on the family's parameters, in table order.  The function is looked up
    at each call, so a rebound module attribute (a tracing wrapper) is the
    one called."""
    module, names = FAMILIES[family]
    return getattr(module, func.format(family))(*(params[n] for n in names))


def oracle_mismatch(g0, scan) -> str:
    """``""`` when the engine's ``G0`` lists the same points as ``scan``,
    the box columns of :func:`~puregaps.oracle.pure_gap_boxes_direct`,
    else the ``engine_vs_oracle`` failure text: both sizes and the first
    five points of each difference.  A scan box column out of strictly
    decreasing order, repeated or below 0 fails with a text naming it.

    With ``c = band_span(period)``, scan box ``(i, j)`` is one period wide
    and ``c`` periods high, so it holds the translates ``G_{i+j*c+t,0} +
    w_{j*c+t}``, ``t < c``: it must equal ``H[i + j*c]``, the engine's
    boxes ``i + j*c + t``, ``t < c``, merged, each shifted up ``t``
    periods.  One loop runs down the box columns, ``i`` from the larger
    of the engine's top box and the scan's first box column to 0.  At
    each ``i`` it extends the band recurrence ``H[i][r] = box(i)[r] |
    (H[i+1][r] & low) << period``, ``low`` the ``(c-1)*period`` lowest
    bits, none when ``c == 1``, forms the engine's box column ``{j:
    H[i + j*c]}``, takes the scan's box column ``i`` if it is next, and
    compares the two by one dict ``==`` of mask columns (both sides are
    canonical); so every box of the engine, at any height, is compared.
    A matched ``H[i]`` is then held as the scan's equal box ``(i, 0)``,
    whose columns are band ints shared by many columns, not one fresh
    int per merged column.  The scan is held one box column at a time.
    Only a differing column's boxes are listed, by
    :func:`~puregaps.lattice.set_bits`, to name points, and their excess
    over ``len(g0)`` gives the scan's size.
    """
    period = g0.period
    span = band_span(period)
    low = (1 << (span - 1) * period) - 1
    boxes = dict(g0.boxes())
    scan = iter(scan)
    head = next(scan, None)
    top = max(max(boxes, default=0), head[0] if head else 0)
    merged = {}   # m -> H[m], none empty; the scan's once matched
    excess = 0
    extra, missing = [], []
    for i in range(top, -1, -1):
        here = boxes.pop(i, {})
        for r, mask in merged.get(i + 1, {}).items():
            if kept := mask & low:
                here[r] = here.get(r, 0) | kept << period
        if here:
            merged[i] = here
        got = {j: merged[m] for j, m in enumerate(range(i, top + 1, span))
               if m in merged}
        want = {}
        if head and head[0] == i:
            want = head[1]
            head = next(scan, None)
        if head and not 0 <= head[0] < i:
            return (f"scan box column {head[0]} follows box column {i}; "
                    "box columns must strictly decrease to 0")
        if got == want:
            if here:
                merged[i] = want[0]
            continue
        for j in got.keys() | want.keys():
            bs, vs = got.get(j, {}), want.get(j, {})
            excess += _size(vs) - _size(bs)
            base, shift = i * period, j * span * period
            for r in bs.keys() | vs.keys():
                b, v = bs.get(r, 0), vs.get(r, 0)
                extra.extend((base + r, shift + x)
                             for x in set_bits(b & ~v)[:5])
                missing.extend((base + r, shift + x)
                               for x in set_bits(v & ~b)[:5])
    if not (extra or missing):
        return ""
    return (f"G0: {len(g0)} vs {len(g0) + excess} points; "
            f"unexpected {sorted(extra)[:5]}, missing {sorted(missing)[:5]}")


class _Checks:
    """A verdict table, every key ``skipped`` until its check is recorded,
    and the counterexample texts of the checks that failed."""

    def __init__(self, keys=VERDICT_KEYS):
        self.verdicts = dict.fromkeys(keys, SKIPPED)
        self.details = []

    def record(self, name, ok, detail=""):
        self.verdicts[name] = PASS if ok else FAIL
        if not ok and detail:
            self.details.append(f"{name}: {detail}")

    def run(self, name, check, *args):
        """Record ``name`` as passed unless ``check(*args)`` raises a
        ConsistencyError, whose text is then the detail."""
        try:
            check(*args)
        except ConsistencyError as exc:
            self.record(name, False, str(exc))
        else:
            self.record(name, True)

    def detail(self):
        return "; ".join(self.details)


def _base_report(family, params, gamma, boxed, g0, bnd, checks, timings):
    return RunReport(
        family=family, params=dict(params), genus=gamma.genus,
        period=gamma.period, row_sizes=boxed.row_sizes(),
        cardinality=len(g0), lower_bound=bnd.lower, upper_bound=bnd.upper,
        homma_kim_bound=bnd.homma_kim, verdicts=checks.verdicts,
        timings=timings, detail=checks.detail())


def _failed_report(family, params, exc, keys=VERDICT_KEYS):
    verdicts = _Checks(keys).verdicts
    verdicts["internal_consistency"] = FAIL
    return RunReport(
        family=family, params=dict(params), genus=-1, period=-1,
        row_sizes=[], cardinality=-1, lower_bound=-1, upper_bound=-1,
        homma_kim_bound=-1, verdicts=verdicts, timings={},
        detail=f"{type(exc).__name__}: {exc}")


def _check_bounds(checks, g0, bnd):
    card = len(g0)
    ok = bnd.lower <= card <= bnd.upper and card <= bnd.homma_kim
    checks.record("bound_sandwich", ok,
                  f"lower={bnd.lower} card={card} "
                  f"upper={bnd.upper} hk={bnd.homma_kim}")


def _check_oracle(checks, g0, scan):
    """Record whether the engine's G0 equals the oracle's box columns, by
    :func:`oracle_mismatch`, and return that."""
    text = oracle_mismatch(g0, scan)
    checks.record("engine_vs_oracle", not text, text)
    return not text


def _check_closed_form(checks, g0, closed_card):
    checks.record("closed_form_vs_enumeration", closed_card == len(g0),
                  f"closed={closed_card} engine={len(g0)}")


def summarize_family(family: str, params: dict) -> RunReport:
    """Summary-mode report for a closed-form family (no timings, oracle
    skipped; the verify command owns the expensive cross-checks).

    The engine's ``G0`` is built by column and its length, a weighted
    per-box sum, is compared with the closed form; no family component is
    built and ``G0`` is never listed."""
    gamma = call_family(family, "{}_generating_set", params)
    boxed = decompose(gamma)
    g0 = assemble_pure_gaps(boxed)
    bnd = bounds(boxed)
    checks = _Checks()
    _check_closed_form(checks, g0,
                       call_family(family, "{}_card_g0", params))
    _check_bounds(checks, g0, bnd)
    return _base_report(family, params, gamma, boxed, g0, bnd, checks, {})


def summarize_generic(gamma: GeneratingSet, label: str) -> RunReport:
    """Summary-mode report for a file-loaded generating set.

    There is no closed form to compare, so the direct oracle scan is run
    instead; the family verdicts stay skipped, and so does the diagonal
    law on a non-diagonal set.
    """
    boxed = decompose(gamma)
    g0 = assemble_pure_gaps(boxed)
    bnd = bounds(boxed)
    checks = _Checks()
    _check_oracle(checks, g0, pure_gap_boxes_direct(gamma))
    _check_bounds(checks, g0, bnd)
    if boxed.diagonal:
        checks.run("diagonal_reflection", check_reflection, boxed)
    return _base_report("generic", {"input": label}, gamma, boxed, g0, bnd,
                        checks, {})


def verify_point(family: str, params: dict) -> RunReport:
    """Run every cross-check for one family parameter point."""
    try:
        return _verify_point_checked(family, params)
    except ConsistencyError as exc:
        return _failed_report(family, params, exc)


def _verify_point_checked(family: str, params: dict) -> RunReport:
    timings = {}
    gamma = call_family(family, "{}_generating_set", params)

    start = time.perf_counter()
    boxed = decompose(gamma)
    g0 = assemble_pure_gaps(boxed)
    bnd = bounds(boxed)
    timings["decomposition_s"] = time.perf_counter() - start

    # Each box column of the scan is compared as it comes, then dropped.
    start = time.perf_counter()
    checks = _Checks()
    _check_oracle(checks, g0, pure_gap_boxes_direct(gamma))
    timings["direct_oracle_s"] = time.perf_counter() - start

    start = time.perf_counter()
    closed_card = call_family(family, "{}_card_g0", params)
    timings["closed_form_s"] = time.perf_counter() - start

    _check_closed_form(checks, g0, closed_card)
    # The engine's components are built once per box and feed both the
    # family's box-by-box check, which also checks that they merge to the
    # engine's G0, and the diagonal law.  The family's sets are built
    # inside the check, so a failing closed form of theirs is its detail.
    generic = dict(components_by_box(boxed))
    checks.run("components_vs_generic", lambda: check_components(
        boxed, generic, g0, call_family(family, "{}_components", params)))
    _check_bounds(checks, g0, bnd)
    checks.run("diagonal_reflection", check_reflection, boxed, generic)
    return _base_report(family, params, gamma, boxed, g0, bnd, checks,
                        timings)


def _verify_special(family, params, r, closed_form, timed=False,
                    sharp=False):
    """Check a special-case closed form, ``closed_form()``, against the
    engine's and the oracle's counts on the Kummer set ``(params["m"], r)``,
    which must also pass :func:`check_reflection`; neither count lists
    ``G0``.  With ``timed`` the closed form's time is the report's timing;
    with ``sharp`` the upper bound must also equal the closed form."""
    keys = SPECIAL_KEYS if sharp else SPECIAL_KEYS[:1]
    try:
        start = time.perf_counter()
        closed = closed_form()
        timing = ({"closed_form_s": time.perf_counter() - start} if timed
                  else {})
        gamma = kummer_mod.kummer_generating_set(params["m"], r)
        boxed = decompose(gamma)
        check_reflection(boxed)
        g0 = assemble_pure_gaps(boxed)
        bnd = bounds(boxed)
        direct = count_pure_gaps_direct(gamma)
    except ConsistencyError as exc:
        return _failed_report(family, params, exc, keys)
    engine = len(g0)
    checks = _Checks(keys)
    checks.record("special_vs_enumeration", closed == engine == direct,
                  f"closed={closed} engine={engine} oracle={direct}")
    if sharp:
        checks.record("upper_bound_sharp", closed == bnd.upper,
                      f"closed={closed} upper={bnd.upper}")
    return _base_report(family, params, gamma, boxed, g0, bnd, checks, timing)


def verify_special_ur1(u: int, r: int) -> RunReport:
    """Check the m = u*r + 1 closed form against real enumeration."""
    return _verify_special(
        "kummer-ur1", {"u": u, "r": r, "m": u * r + 1}, r,
        lambda: kummer_mod.kummer_card_special_ur1(u, r),
        timed=True, sharp=(u == 1))


def verify_special_qn(q: int, N: int) -> RunReport:
    """Check the m = (q+1)/N closed form against real enumeration."""
    m = (q + 1) // N if N and (q + 1) % N == 0 else 0
    return _verify_special(
        "kummer-qn", {"q": q, "N": N, "m": m}, q,
        lambda: kummer_mod.kummer_card_special_qN(q, N))


def map_points(points):
    """Run verification points ``(kind, params)`` in order, a family name,
    ``"ur1"`` or ``"qn"``, yielding each report as its point finishes."""
    for kind, params in points:
        if kind in FAMILIES:
            yield verify_point(kind, params)
        elif kind == "ur1":
            yield verify_special_ur1(params["u"], params["r"])
        elif kind == "qn":
            yield verify_special_qn(params["q"], params["N"])
        else:
            raise ValueError(f"unknown point kind {kind!r}")


def build_verify_points(family: str, q_max: int, mr_max: int,
                        special: str | None, u_max: int, r_max: int):
    """The deterministic list of verification points for a grid request."""
    ur1 = [("ur1", {"u": u, "r": r})
           for u in range(1, u_max + 1) for r in range(2, r_max + 1)]
    qn = [("qn", {"q": q, "N": N}) for q, N in DEFAULT_QN_PAIRS]
    if special == "ur1":
        return ur1
    if special == "qn":
        return qn
    points = []
    if family in ("gk", "all"):
        points.extend(("gk", {"q": q}) for q in range(2, q_max + 1))
    if family in ("kummer", "all"):
        points.extend(("kummer", {"m": m, "r": r})
                      for m in range(2, mr_max + 1)
                      for r in range(2, mr_max + 1) if gcd(m, r) == 1)
        points += ur1 + qn
    return points


class BenchRow(namedtuple("BenchRow", (
        "family", "params", "genus", "method", "seconds", "cardinality",
        "outputs_equal"))):
    """One (parameter point, method) timing with the equality gate."""

    __slots__ = ()


def bench_family(family: str, params: dict) -> list:
    """Time the box-decomposition route against the direct glb scan.

    The box route's time ends at its :class:`~puregaps.engine.PureGapSet`.
    The direct scan's box columns are then streamed into the
    ``engine_vs_oracle`` check of ``verify``, :func:`oracle_mismatch`,
    each dropped once compared; the direct route's time is the time spent
    inside the scan's own ``next()`` calls, so it is scan time only.  A
    mismatch raises ConsistencyError with that check's text, before
    timings are returned.  Once the check passes, both routes list
    ``len(g0)`` points, so that is both rows' cardinality.
    """
    gamma = call_family(family, "{}_generating_set", params)

    start = time.perf_counter()
    boxed = decompose(gamma)
    g0 = assemble_pure_gaps(boxed)
    t_box = time.perf_counter() - start

    t_direct = 0.0

    def timed(rows):
        nonlocal t_direct
        start = time.perf_counter()
        for row in rows:
            t_direct += time.perf_counter() - start
            yield row
            start = time.perf_counter()
        t_direct += time.perf_counter() - start

    checks = _Checks(("engine_vs_oracle",))
    if not _check_oracle(checks, g0, timed(pure_gap_boxes_direct(gamma))):
        raise ConsistencyError(checks.detail())
    return [
        BenchRow(family, dict(params), gamma.genus, method, seconds,
                 len(g0), True)
        for method, seconds in (("box-decomposition", t_box),
                                ("direct-glb", t_direct))
    ]
