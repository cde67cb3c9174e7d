"""Benchmark of puregaps, driven from outside through its public functions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {list,crosscheck,ingest}
        --seed N --seconds S --trace {0,1}

The seed draws the workload's parameter points (see ``workloads.py``).
The run writes the inputs it needs and builds the references the outputs
are checked against.  It then measures in ``CHILDREN`` fresh child
processes in turn (``worker.py``), with ``PUREGAPS_THREADS`` cleared, each
timing its own set-up and then running the same number of rounds of the
closed loop.  The number of rounds follows from ``--seconds`` alone, never
from the program's speed (see ``_rounds_per_child``), so every run of a
given length ranks the same number of ops.  Each child gets its own
``PYTHONHASHSEED``, derived from the seed: the string-hash layout of a
process moves Python's speed by several percent, and spreading a run over
several layouts keeps one layout from setting the result.  It prints a
readable report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Scratch files live under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Measuring children per run; set-up is the median of their set-ups.
CHILDREN = 10
#: Nominal length of one round (every drawn point once), which turns
#: ``--seconds`` into a round count.  At the seed commit a round takes 2.6
#: to 3.2 s on a 2-core x86-64 host, depending on the workload.
ROUND_S = 3.0
#: The whole run, all children included, must end within this many seconds.
RUN_DEADLINE_S = 150


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "puregaps").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _listing_refs(points) -> list:
    """(sha256, line count) of the TSV listing of each point, built from
    ``pure_gaps_direct``.  Cached per point under ``WORK``, keyed by the
    hash of the package source, so each checkout builds each one once."""
    cache_path = WORK / "listing-refs.json"
    source = _source_hash()
    cache = {}
    if cache_path.is_file():
        stored = json.loads(cache_path.read_text())
        if stored.get("source") == source:
            cache = stored["refs"]
    missing = {workloads.label(p): p for p in points
               if workloads.label(p) not in cache}
    if missing:
        sys.path.insert(0, str(SRC))
        import puregaps
        for point in missing.values():
            if point["family"] == "gk":
                gamma = puregaps.gk_generating_set(point["q"])
            else:
                gamma = puregaps.kummer_generating_set(point["m"], point["r"])
            gaps = puregaps.pure_gaps_direct(gamma)
            digest = hashlib.sha256()
            for i in range(0, len(gaps), 1 << 16):
                digest.update("".join(f"{a}\t{b}\n"
                                      for a, b in gaps[i:i + (1 << 16)])
                              .encode())
            cache[workloads.label(point)] = [digest.hexdigest(), len(gaps)]
            del gaps
        cache_path.write_text(json.dumps({"source": source, "refs": cache}))
    return [cache[workloads.label(p)] for p in points]


def _child(plan, run_dir, deadline):
    """Run one worker child on ``plan``; return its result dict."""
    name = f"child{plan['child']}"
    plan = dict(plan, result_path=str(run_dir / f"{name}.result.json"))
    plan_path = run_dir / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env.pop("PUREGAPS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str((plan["seed"] * CHILDREN + plan["child"])
                                % 2**32)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} child exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(Path(plan["result_path"]).read_text())


def _rounds_per_child(seconds):
    """Rounds each child runs: a run of ``--seconds`` 30 has 10 x 1 = 10
    rounds.  A fixed count keeps the tail percentile on the same rank of
    the doubled fixed point whatever the program's speed (see
    ``workloads.strata``); a faster program just measures for less time."""
    return max(1, round(seconds / (CHILDREN * ROUND_S)))


def _upper_quartile(times):
    # Each child runs every point at least once: at least CHILDREN values.
    return statistics.quantiles(times, n=4)[2]


def _tail(times):
    """(percentile, value): the highest whole percentile with at least ten
    ops beyond it, by nearest rank; the maximum when there are ten or
    fewer ops."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return 100, ordered[-1]
    pct = 100 * (n - 10) // n
    return pct, ordered[(pct * n + 99) // 100 - 1]


def _plan(args, run_dir):
    points = workloads.draw(args.workload, args.seed)
    warmup = workloads.WARMUP[args.workload]
    refs = [workloads.reference(p) for p in points]
    files = {}
    if args.workload in ("crosscheck", "ingest"):
        for point in points + [warmup]:
            if args.workload == "ingest" or point.get("via") == "generic":
                path = run_dir / f"{workloads.label(point)}.gamma"
                path.write_text(workloads.gamma_text(point), encoding="utf-8")
                files[workloads.label(point)] = str(path)
    if args.workload == "list":
        for ref, (digest, lines) in zip(refs, _listing_refs(points)):
            ref.update(digest=digest, lines=lines)
    return {
        "workload": args.workload, "seed": args.seed,
        "trace": bool(args.trace),
        "points": points, "refs": refs, "warmup": warmup, "files": files,
        "src": str(SRC), "output_path": str(run_dir / "output.txt"),
        "rounds": _rounds_per_child(args.seconds),
        # A child starts no new round after this much wall time, so that a
        # much slower program still ends the run in time.
        "wall_limit": max(3 * args.seconds, 30) / CHILDREN,
    }


def _report(args, plan, results):
    points = plan["points"]
    sizes = [workloads.size(args.workload, p) for p in points]
    records = [r for result in results for r in result["ops"]]
    attempted = len(records)
    failed = sum(1 for r in records if not r[3])
    plain = [r[1] for r in records if not r[2]]
    unit = "generating points" if args.workload == "ingest" else "pure gaps"
    print(f"workload {args.workload}  seed {args.seed}  "
          f"children {len(results)}  rounds {sum(r['rounds'] for r in results)}  ops {attempted}")
    for idx, (point, sz) in enumerate(zip(points, sizes)):
        own = [r[1] for r in records if r[0] == idx and not r[2]]
        print(f"  point {workloads.label(point)}  {sz} {unit}  "
              f"median {statistics.median(own):.4f} s  upper quartile "
              f"{_upper_quartile(own):.4f} s of {len(own)} ops")
    for error in [e for result in results for e in result["errors"]][:5]:
        print(f"  FAILED {error}")
    print(f"fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")

    if args.trace:
        spans = [result["spans"] for result in results]
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "points": points,
             "spans_per_child": spans}))
        layers = tracing.layer_metrics(s for child in spans for s in child)
        _print_layers(layers, sum(r[1] for r in records if r[2]))
        if results[0]["unbound"]:
            print(f"functions not found, layers report 0: "
                  f"{results[0]['unbound']}")
        traced = statistics.median(r[1] for r in records if r[2])
        untraced = statistics.median(plain)
        print(f"tracing overhead: op_s_p50 traced {traced:.6f} s - untraced "
              f"{untraced:.6f} s = {traced - untraced:+.6f} s "
              f"({100 * (traced - untraced) / untraced:+.2f}%) over "
              f"{attempted - len(plain)}+{len(plain)} ops")
        print(f"spans written to {trace_path}")
        metrics = {name: layers[name] for name in tracing.metric_names()}
    else:
        pct, tail = _tail(plain)
        setups = [result["setup_s"] for result in results]
        # Op times on a shared host are bimodal: phases of seconds to a
        # minute run every op 20-40% faster.  A median over a run flips
        # between the two modes with the share of fast time; an upper
        # quartile stays on the common slow mode.  So the throughput is one
        # round's work over one round's time, each point at the upper
        # quartile of its own op times.
        quartiles = [_upper_quartile([r[1] for r in records
                                      if r[0] == idx and not r[2]])
                     for idx in range(len(points))]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s_tail": (tail, "s"),
            "points_per_s": (sum(sizes) / sum(quartiles), "1/s"),
            # The median over children: where freed memory lands depends on
            # the op order, so one child in several may peak some 20% higher.
            "peak_rss_mib": (statistics.median(r["maxrss_kib"]
                                               for r in results) / 1024,
                             "MiB"),
        }
        print(f"op_s_p50 {statistics.median(plain):.6f} s (printed only: "
              f"the median flips between the host's speed phases)")
        print(f"op_s_tail is p{pct} of {len(plain)} ops; setup_s and "
              f"peak_rss_mib are medians over {len(results)} children; "
              f"points_per_s counts {unit} over a round at each point's "
              f"upper-quartile op time")
        for name, (value, unit_) in metrics.items():
            print(f"{name} {value:.6f} {unit_}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_}
                        for name, (value, unit_) in metrics.items()}}


def _print_layers(layers, total):
    """The per-layer table; ``total`` is the traced ops' summed time."""
    print(f"{'layer':26s} {'calls':>7s} {'errors':>6s} {'self_s':>10s} "
          f"{'share':>6s} {'points_out':>11s} {'rss_rise_mib':>12s}")
    covered = 0.0
    for layer in tracing.LAYERS:
        self_s = layers[f"{layer}.self_s"][0]
        covered += self_s
        pts = layers.get(f"{layer}.points_out", ("",))[0]
        print(f"{layer:26s} {layers[f'{layer}.calls'][0]:7d} "
              f"{layers[f'{layer}.errors'][0]:6d} {self_s:10.4f} "
              f"{100 * self_s / total:5.1f}% {pts!s:>11s} "
              f"{layers[f'{layer}.rss_rise_mib'][0]:12.1f}")
    print(f"{'(outside layers)':26s} {'':7s} {'':6s} {total - covered:10.4f} "
          f"{100 * (total - covered) / total:5.1f}%")
    print(f"oracle.scan pairs {layers['oracle.scan.pairs'][0]}  "
          f"yield {layers['oracle.scan.yield'][0]:.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "puregaps" / "__init__.py").is_file():
        print(f"error: no puregaps source under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        plan = _plan(args, run_dir)
        deadline = time.monotonic() + RUN_DEADLINE_S
        results = [_child(dict(plan, child=child), run_dir, deadline)
                   for child in range(CHILDREN)]
        out = _report(args, plan, results)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
