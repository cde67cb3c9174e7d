"""Measured child process of the puregaps benchmark.

``run.py`` starts it as ``python3 perfbench/worker.py PLAN.json``.  The child
times its own set-up (``import puregaps`` and one untimed warm-up op), then
runs rounds of the planned ops in a closed loop from this one thread: each
round executes every planned point once, in a shuffled order, and the
child runs the plan's ``rounds``, but starts no new round after the plan's
``wall_limit`` (at least one round).  Each op's output is
checked against its reference after its timer stops.  In a traced run each
op is executed twice, once with the layer spans installed and once without,
so the tracing overhead can be read off the same process.  Results go to
the JSON file the plan names.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import sys
import time

import tracing
import workloads

VERDICTS_OK = ("pass", "skipped")


def _file_digest(path):
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return digest.hexdigest(), lines


def _check_fields(ref, genus, period, card, homma_kim, lower, upper,
                  verdicts):
    """Compare the fields every summary and report carries."""
    got = (genus, period, card, homma_kim)
    want = (ref["genus"], ref["period"], ref["cardinality"],
            ref["homma_kim"])
    if got != want:
        return f"(genus, period, |G0|, homma_kim) = {got}, expected {want}"
    if not lower <= card <= upper:
        return f"bounds {lower} <= {card} <= {upper} do not hold"
    bad = {k: v for k, v in verdicts.items() if v not in VERDICTS_OK}
    if bad:
        return f"verdicts {bad}"
    return None


class Ops:
    """The ops of one workload and the checks of their outputs."""

    def __init__(self, pg, plan):
        self.pg = pg
        self.workload = plan["workload"]
        self.out = plan["output_path"]
        self.files = plan["files"]
        self.texts = {}
        if self.workload == "ingest":
            for path in self.files.values():
                with open(path, "rb") as fh:
                    self.texts[path] = fh.read()

    def _cli_to_file(self, argv):
        with open(self.out, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            return self.pg.cli.main(argv)

    def run(self, point):
        """Execute one op; the return value is what ``check`` inspects."""
        pg = self.pg
        family = point["family"]
        if self.workload == "list":
            return self._cli_to_file(
                workloads.cli_args(point) + ["--emit", "puregaps"])
        if self.workload == "ingest":
            gamma = pg.load_gamma(self.files[workloads.label(point)])
            result = pg.bounds(pg.decompose(gamma))
            return gamma, result, pg.dump_gamma(gamma)
        if family == "ur1":
            return pg.harness.verify_special_ur1(point["u"], point["r"])
        if family == "qn":
            return pg.harness.verify_special_qn(point["q"], point["N"])
        if point["via"] == "generic":
            return self._cli_to_file(
                ["generic", "--input", self.files[workloads.label(point)],
                 "--emit", "summary"])
        params = ({"q": point["q"]} if family == "gk"
                  else {"m": point["m"], "r": point["r"]})
        return pg.harness.verify_point(family, params)

    def check(self, point, ref, out):
        """None when the op's output is right, else what is wrong."""
        if self.workload == "ingest":
            gamma, bnd, text = out
            if text.encode("utf-8") != self.texts[
                    self.files[workloads.label(point)]]:
                return "dump_gamma output differs from the input file"
            return _check_fields(ref, gamma.genus, gamma.period,
                                 ref["cardinality"], bnd.homma_kim,
                                 bnd.lower, bnd.upper, {})
        if isinstance(out, int):
            if out != 0:
                return f"exit code {out}"
            if self.workload == "list":
                got = _file_digest(self.out)
                want = (ref["digest"], ref["lines"])
                return None if got == want else \
                    f"listing (sha256, lines) = {got}, expected {want}"
            return self._check_summary(point, ref)
        return _check_fields(ref, out.genus, out.period, out.cardinality,
                             out.homma_kim_bound, out.lower_bound,
                             out.upper_bound, out.verdicts)

    def _check_summary(self, point, ref):
        with open(self.out, encoding="utf-8") as fh:
            fields = dict(line.split("\t", 1)
                          for line in fh.read().splitlines())
        family = "generic" if point.get("via") == "generic" \
            else point["family"]
        if fields.get("family") != family:
            return f"family {fields.get('family')!r}, expected {family!r}"
        verdicts = {k: v for k, v in fields.items()
                    if k.startswith("verdict.")}
        return _check_fields(
            ref, *(int(fields[k]) for k in (
                "genus", "period", "cardinality", "homma_kim_bound",
                "lower_bound", "upper_bound")), verdicts)


def _measure(ops, plan, tracer):
    points, refs = plan["points"], plan["refs"]
    rng = random.Random(f"order:{plan['workload']}:{plan['seed']}:"
                        f"{plan['child']}")
    records, errors = [], []
    rounds = 0
    wall0 = time.monotonic()
    while rounds == 0 or (rounds < plan["rounds"]
                          and time.monotonic() - wall0 < plan["wall_limit"]):
        order = list(range(len(points)))
        rng.shuffle(order)
        for idx in order:
            if tracer is None:
                variants = (False,)
            else:
                variants = (True, False) if rounds % 2 == 0 else (False, True)
            for traced in variants:
                gc.collect()
                # A fresh output file per op: rewriting a truncated file
                # makes the file system flush it to disk at close.
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(plan["output_path"])
                if traced:
                    tracer.op = len(records)
                    tracer.install()
                start = time.perf_counter()
                try:
                    out = ops.run(points[idx])
                    error = None
                except Exception as exc:  # an op that raises is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
                if error is None:
                    try:
                        error = ops.check(points[idx], refs[idx], out)
                    except Exception as exc:  # unreadable output fails the op
                        error = f"output check raised {exc!r}"
                out = None
                records.append([idx, elapsed, int(traced), error is None])
                if error is not None and len(errors) < 5:
                    errors.append(f"{workloads.label(points[idx])}: {error}")
        rounds += 1
    return records, errors, rounds


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    start = time.perf_counter()
    import puregaps
    import puregaps.cli
    import puregaps.harness
    ops = Ops(puregaps, plan)
    ops.run(plan["warmup"])
    setup_s = time.perf_counter() - start

    where = os.path.realpath(puregaps.__file__)
    if not where.startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"puregaps imported from {where}, not from {plan['src']}",
              file=sys.stderr)
        return 3
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
    records, errors, rounds = _measure(ops, plan, tracer)
    result = {"setup_s": setup_s, "ops": records, "errors": errors,
              "rounds": rounds,
              "maxrss_kib": tracing.peak_rss_kib()}
    if tracer is not None:
        result.update(spans=tracer.spans, unbound=tracer.missing)
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
