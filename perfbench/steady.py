"""Steadiness check of the puregaps benchmark.

Runs two sets of runs of ``run.py`` on the same checkout, each run with
its own seed, and reports for every end-to-end metric and workload whether
the two sets agree within the bounds in ``BENCHMARK.json``:

* the spread of each set, the distance between its first and third
  quartile as a share of its median, is within the metric's bound;
* the two sets' medians differ by no more than the bound, as a share of
  the first set's median, in either direction.

``setup_s`` is held to the second test only, and its spread is printed.
It is the median of a run's set-ups, and a median flips between the
host's speed phases (see ``README.md``): its spread was 0.24 to 0.26
where every other timing spread at most 0.16.

The first set uses seeds 1 to ``--runs``, the second the next ``--runs``
seeds; every workload in ``BENCHMARK.json`` is measured.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--trace-runs 1]
        [--record perfbench/history/BENCH_<label>.json] [--label LABEL]

``--record`` writes the measured values, their medians and quartiles, and
the per-layer metrics of ``--trace-runs`` traced runs per workload, as one
entry of the benchmark history.  Exit status 1 when a run fails, an output
check fails, or the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def _worse(metric, first, second):
    """How much worse ``second`` is than ``first``, as a share of ``first``;
    negative when it is better."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload, one seed each")
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    ok = True
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "machine": {"cpus": os.cpu_count(),
                         "python": platform.python_version(),
                         "platform": platform.platform()},
             "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for first in (1, 1 + args.runs):
            runs = []
            for seed in range(first, first + args.runs):
                out = _run(workload, seed, bench["run_seconds"], 0)
                if not out["correct"]:
                    print(f"{workload} seed {seed}: {out['failed']} of "
                          f"{out['attempted']} ops failed")
                    ok = False
                runs.append(out)
            sets.append(runs)
        failed = sum(r["failed"] for one_set in sets for r in one_set)
        attempted = sum(r["attempted"] for one_set in sets for r in one_set)
        record = {"fail_ratio": failed / attempted, "attempted": attempted,
                  "end_to_end": {}, "per_layer": []}
        print(f"\n{workload}: 2 sets of {args.runs} runs, "
              f"fail_ratio {failed}/{attempted}")
        print(f"  {'metric':14s} {'unit':6s} {'bound':>6s} "
              + "".join(f"{'median' + str(k + 1):>15s} "
                        f"{'spread' + str(k + 1):>8s}"
                        for k in range(2))
              + f" {'worse':>8s}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [_stats([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            worse = _worse(metric, stats[0]["median"], stats[1]["median"])
            good = abs(worse) <= bound and (
                name == "setup_s"
                or all(s["spread"] <= bound for s in stats))
            ok = ok and good
            record["end_to_end"][name] = {"unit": metric["unit"],
                                          "bound": bound, "sets": stats}
            print(f"  {name:14s} {metric['unit']:6s} {bound:6.3f} "
                  + "".join(f"{s['median']:15.6f} {s['spread']:8.4f}"
                            for s in stats)
                  + f" {worse:+8.4f}  {'agree' if good else 'DISAGREE'}")
        for seed in range(1, 1 + args.trace_runs):
            out = _run(workload, seed, bench["run_seconds"], 1)
            ok = ok and out["correct"]
            values = {k: v["value"] for k, v in out["metrics"].items()}
            record["per_layer"].append({"seed": seed, "metrics": values})
        entry["workloads"][workload] = record
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(entry, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
