"""Cross-checking and benchmarking harness behind the CLI.

Each parameter point yields a :class:`RunReport`; verification points run
both routes to the pure gap set (the box engine and the direct oracle
scan), check the family's explicit rows and components against the
engine's box by box, and record a verdict per cross-check.  Summaries
run the engine alone and compare its weighted size with the closed form.
A report's verdicts are one table, ``VERDICT_KEYS`` (``SPECIAL_KEYS`` for
the special-case checks), in table order, each ``skipped`` unless its
route runs it.  Only checks that can fail on validated input are verdicts: the
period displacement law is enforced by validation (a ``ValidationError``)
and the genus identity by :func:`~puregaps.engine.decompose` (a
``ConsistencyError``), before any verdict is recorded.  A verification
point builds the engine's ``G0`` and its per-box components once; the
family's check against the engine (``verify_against_engine``, through
:func:`~puregaps.engine.check_components`) and the diagonal law take both
from it.  Grids run their points one after another, in deterministic
parameter order.
"""

from __future__ import annotations

import time
from collections import namedtuple
from math import gcd

from . import gk as gk_mod
from . import kummer as kummer_mod
from .engine import (
    assemble_pure_gaps,
    box_components,
    check_reflection,
    decompose,
)
from .errors import ConsistencyError
from .lattice import GeneratingSet
from .oracle import (
    count_pure_gaps_direct,
    points_of,
    pure_gap_boxes_direct,
)

#: Closed-form families: name -> (module, parameter names).  The module
#: provides ``<name>_generating_set``, ``<name>_card_g0``,
#: ``<name>_components`` and ``verify_against_engine``, each taking the
#: parameters in this order (``verify_against_engine`` takes the
#: decomposed generating set before them and, by keyword, the components
#: as ``per_box``, the engine's as ``generic`` and the engine's ``G0`` as
#: ``g0``).  The CLI builds one subcommand per entry, with an int flag per
#: parameter.
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


def call_family(family: str, func: str, params: dict, *lead, **options):
    """Call ``func`` (``{}`` stands for the family name) of a family's module
    on ``lead``, then the family's parameters, then ``options`` by keyword.
    The function is looked up at each call, so a rebound module attribute
    (a tracing wrapper) is the one called."""
    module, names = FAMILIES[family]
    return getattr(module, func.format(family))(
        *lead, *(params[n] for n in names), **options)


def _diff_sets(name, got, want):
    got_set, want_set = set(got), set(want)
    extra = sorted(got_set - want_set)[:5]
    missing = sorted(want_set - got_set)[:5]
    return (f"{name}: {len(got_set)} vs {len(want_set)} points; "
            f"unexpected {extra}, missing {missing}")


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

    def run(self, name, check, *args, **options):
        """Record ``name`` as passed unless ``check(*args, **options)``
        raises a ConsistencyError, whose text is then the detail."""
        try:
            check(*args, **options)
        except ConsistencyError as exc:
            self.record(name, False, str(exc))
        else:
            self.record(name, True)

    def detail(self):
        return "; ".join(self.details)


def _base_report(family, params, gamma, boxed, result, checks, timings):
    return RunReport(
        family=family, params=dict(params), genus=gamma.genus,
        period=gamma.period, row_sizes=boxed.row_sizes(),
        cardinality=result.cardinality, lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        homma_kim_bound=result.homma_kim_bound,
        verdicts=checks.verdicts, timings=timings, detail=checks.detail())


def _failed_report(family, params, exc, keys=VERDICT_KEYS):
    verdicts = _Checks(keys).verdicts
    verdicts["internal_consistency"] = FAIL
    return RunReport(
        family=family, params=dict(params), genus=-1, period=-1,
        row_sizes=[], cardinality=-1, lower_bound=-1, upper_bound=-1,
        homma_kim_bound=-1, verdicts=verdicts, timings={},
        detail=f"{type(exc).__name__}: {exc}")


def _check_bounds(checks, result):
    card = result.cardinality
    ok = (result.lower_bound <= card <= result.upper_bound
          and card <= result.homma_kim_bound)
    checks.record("bound_sandwich", ok,
                  f"lower={result.lower_bound} card={card} "
                  f"upper={result.upper_bound} hk={result.homma_kim_bound}")


def _check_oracle(checks, result, boxes, period):
    """Record whether the engine's G0 equals the oracle's boxes, box by
    box, and return that.  The diff costs two |G0|-sized sets, so it is
    built only on failure."""
    ok = result.g0.equals_boxes(boxes)
    checks.record("engine_vs_oracle", ok,
                  "" if ok else _diff_sets("G0", result.g0,
                                           points_of(boxes, period)))
    return ok


def _check_closed_form(checks, result, closed_card):
    checks.record("closed_form_vs_enumeration",
                  closed_card == result.cardinality,
                  f"closed={closed_card} engine={result.cardinality}")


def summarize_family(family: str, params: dict) -> RunReport:
    """Summary-mode report for a closed-form family (no timings, oracle
    skipped; the verify command owns the expensive cross-checks).

    The engine's ``G0`` is built by column and its length, a weighted
    per-box sum, is compared with the closed form; no family component is
    built and ``G0`` is never listed."""
    gamma = call_family(family, "{}_generating_set", params)
    boxed = decompose(gamma)
    result = assemble_pure_gaps(boxed)
    checks = _Checks()
    _check_closed_form(checks, result,
                       call_family(family, "{}_card_g0", params))
    _check_bounds(checks, result)
    return _base_report(family, params, gamma, boxed, result, checks, {})


def summarize_generic(gamma: GeneratingSet, label: str) -> RunReport:
    """Summary-mode report for a file-loaded generating set.

    There is no closed form to compare, so the direct oracle scan is run
    instead; the family verdicts stay skipped, and so does the diagonal
    law on a non-diagonal set.
    """
    boxed = decompose(gamma)
    result = assemble_pure_gaps(boxed)
    checks = _Checks()
    _check_oracle(checks, result, pure_gap_boxes_direct(gamma), gamma.period)
    _check_bounds(checks, result)
    if boxed.diagonal:
        checks.run("diagonal_reflection", check_reflection, boxed)
    return _base_report("generic", {"input": label}, gamma, boxed, result,
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
    result = assemble_pure_gaps(boxed)
    timings["decomposition_s"] = time.perf_counter() - start

    start = time.perf_counter()
    boxes = pure_gap_boxes_direct(gamma)
    timings["direct_oracle_s"] = time.perf_counter() - start

    # The oracle's boxes are compared at once and dropped, so they are not
    # held while the family route builds its components.
    checks = _Checks()
    _check_oracle(checks, result, boxes, gamma.period)
    del boxes

    start = time.perf_counter()
    closed_card = call_family(family, "{}_card_g0", params)
    per_box = call_family(family, "{}_components", params)
    timings["closed_form_s"] = time.perf_counter() - start

    _check_closed_form(checks, result, closed_card)
    # The engine's components are built once per box and feed both the
    # family's box-by-box check, which also checks that they merge to the
    # engine's G0, and the diagonal law.
    generic = {k: box_components(boxed, k) for k in range(boxed.kmax)}
    checks.run("components_vs_generic", call_family, family,
               "verify_against_engine", params, boxed, per_box=per_box,
               generic=generic, g0=result.g0)
    _check_bounds(checks, result)
    checks.run("diagonal_reflection", check_reflection, boxed, generic)
    return _base_report(family, params, gamma, boxed, result, checks, timings)


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
        result = assemble_pure_gaps(boxed)
        direct = count_pure_gaps_direct(gamma)
    except ConsistencyError as exc:
        return _failed_report(family, params, exc, keys)
    engine = len(result.g0)
    checks = _Checks(keys)
    checks.record("special_vs_enumeration", closed == engine == direct,
                  f"closed={closed} engine={engine} oracle={direct}")
    if sharp:
        checks.record("upper_bound_sharp", closed == result.upper_bound,
                      f"closed={closed} upper={result.upper_bound}")
    return _base_report(family, params, gamma, boxed, result, checks, timing)


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
    """Run verification points ``(kind, params)`` in order: a family name,
    ``"ur1"`` or ``"qn"``."""
    reports = []
    for kind, params in points:
        if kind in FAMILIES:
            reports.append(verify_point(kind, params))
        elif kind == "ur1":
            reports.append(verify_special_ur1(params["u"], params["r"]))
        elif kind == "qn":
            reports.append(verify_special_qn(params["q"], params["N"]))
        else:
            raise ValueError(f"unknown point kind {kind!r}")
    return reports


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

    The box route's time ends at its :class:`~puregaps.engine.PureGapSet`;
    the direct scan's ends at its glbs sorted into boxes.  The value is then
    compared with the boxes box by box, by the ``engine_vs_oracle`` check
    of ``verify``, before timings are returned; a mismatch raises
    ConsistencyError with that check's text.  The direct route's
    cardinality is the total length of its boxes' columns.
    """
    gamma = call_family(family, "{}_generating_set", params)

    start = time.perf_counter()
    direct = pure_gap_boxes_direct(gamma)
    t_direct = time.perf_counter() - start

    start = time.perf_counter()
    result = assemble_pure_gaps(decompose(gamma))
    t_box = time.perf_counter() - start

    checks = _Checks(("engine_vs_oracle",))
    if not _check_oracle(checks, result, direct, gamma.period):
        raise ConsistencyError(checks.detail())
    direct_card = sum(len(vs) for columns in direct.values()
                      for vs in columns.values())
    return [
        BenchRow(family, dict(params), gamma.genus, "box-decomposition",
                 t_box, result.cardinality, True),
        BenchRow(family, dict(params), gamma.genus, "direct-glb",
                 t_direct, direct_card, True),
    ]
