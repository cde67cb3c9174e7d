"""Command line front end.

Subcommands: ``gk``, ``kummer``, ``generic``, ``verify``, ``bench``.
Exit codes: 0 success, 1 consistency or verification failure, 2 usage or
input error; the console script ends by SIGPIPE when its reader closes
stdout.  All emissions are deterministic byte-for-byte except the
wall-clock fields of ``verify`` and ``bench`` output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import assemble_pure_gaps, check_reflection, decompose
from .errors import (
    ConsistencyError,
    InvalidParamsError,
    ValidationError,
)
from .gammafile import dump_pieces, load_gamma
from .harness import (
    FAMILIES,
    bench_family,
    build_verify_points,
    call_family,
    map_points,
    summarize_family,
    summarize_generic,
)


def _emit_summary(report, fmt, out):
    """Print ``report`` and return the exit code: 1 if a verdict failed."""
    if fmt == "json":
        print(json.dumps(report._asdict()), file=out)
        return 0 if report.ok else 1
    print(f"family\t{report.family}", file=out)
    for key, value in report.params.items():
        print(f"{key}\t{value}", file=out)
    print(f"genus\t{report.genus}", file=out)
    print(f"period\t{report.period}", file=out)
    print("row_sizes\t" + ",".join(map(str, report.row_sizes)), file=out)
    print(f"cardinality\t{report.cardinality}", file=out)
    print(f"lower_bound\t{report.lower_bound}", file=out)
    print(f"upper_bound\t{report.upper_bound}", file=out)
    print(f"homma_kim_bound\t{report.homma_kim_bound}", file=out)
    for key, value in report.verdicts.items():
        print(f"verdict.{key}\t{value}", file=out)
    if report.detail:
        print(f"detail\t{report.detail}", file=out)
    return 0 if report.ok else 1


def _family_params(args, family):
    """The family's parameters from the parsed flags, in table order."""
    return {name: getattr(args, name) for name in FAMILIES[family][1]}


def _cmd_family(args):
    family = args.command
    params = _family_params(args, family)
    out = sys.stdout
    if args.emit == "summary":
        return _emit_summary(summarize_family(family, params), args.format,
                             out)
    gamma = call_family(family, "{}_generating_set", params)
    if args.emit == "gamma":
        out.writelines(dump_pieces(gamma, args.format))
    else:
        out.writelines(
            assemble_pure_gaps(decompose(gamma)).pieces(args.format))
    return 0


def _cmd_generic(args):
    out = sys.stdout
    gamma = load_gamma(args.input)
    if args.emit == "summary":
        return _emit_summary(summarize_generic(gamma, args.input),
                             args.format, out)
    if args.emit == "gamma":
        out.writelines(dump_pieces(gamma, args.format))
    else:
        boxed = decompose(gamma)
        if boxed.diagonal:
            check_reflection(boxed)
        out.writelines(assemble_pure_gaps(boxed).pieces(args.format))
    return 0


def _verdict_cell(report):
    return ",".join(f"{k}={v}" for k, v in report.verdicts.items())


def _timing_cell(report):
    return ",".join(f"{k}={v:.6f}" for k, v in report.timings.items())


def _cmd_verify(args):
    points = build_verify_points(
        family=args.family, q_max=args.q_max, mr_max=args.max,
        special=args.special, u_max=args.u_max, r_max=args.r_max)
    if not points:
        # A run that checked nothing must not report success.
        raise InvalidParamsError("the requested verify grid has no "
                                 "parameter points")
    out = sys.stdout
    # Each row is written out as its point finishes, the first failure
    # kept for the footer.
    first = None
    failures = 0
    for rep in map_points(points):
        params = ",".join(f"{k}={v}" for k, v in rep.params.items())
        cells = [rep.family, params, f"genus={rep.genus}",
                 f"g0={rep.cardinality}", _verdict_cell(rep)]
        timing = _timing_cell(rep)
        if timing:
            cells.append(timing)
        print("\t".join(cells), file=out, flush=True)
        if not rep.ok:
            failures += 1
            if first is None:
                first = rep
    print(f"# verified {len(points)} parameter points, "
          f"{failures} failures", file=out)
    if first is not None:
        print(f"# FIRST FAILURE {first.label()}: {first.detail}", file=out)
        return 1
    return 0


def _cmd_bench(args):
    params = _family_params(args, args.family)
    if None in params.values():
        flags = " and ".join(f"--{name}" for name in params)
        print(f"bench --family {args.family} requires {flags}",
              file=sys.stderr)
        return 2
    rows = bench_family(args.family, params)
    out = sys.stdout
    if args.format == "json":
        print(json.dumps([row._asdict() for row in rows]), file=out)
        return 0
    print("family\tparams\tgenus\tmethod\tseconds\tcardinality\toutputs_equal",
          file=out)
    for row in rows:
        params_cell = ",".join(f"{k}={v}" for k, v in row.params.items())
        print(f"{row.family}\t{params_cell}\t{row.genus}\t{row.method}\t"
              f"{row.seconds:.6f}\t{row.cardinality}\t"
              f"{'yes' if row.outputs_equal else 'no'}", file=out)
    return 0


def _add_emit_flags(sub):
    sub.add_argument("--emit", choices=("summary", "gamma", "puregaps"),
                     default="summary")
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="puregaps",
        description="Pure gap sets at two places via period box decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    # One subcommand per closed-form family, a required flag per parameter.
    for family, (_, names) in FAMILIES.items():
        noun = "parameters" if len(names) > 1 else "parameter"
        p_fa = sub.add_parser(
            family, help=f"{family} family at {noun} {', '.join(names)}")
        for name in names:
            p_fa.add_argument(f"--{name}", type=int, required=True)
        _add_emit_flags(p_fa)
        p_fa.set_defaults(func=_cmd_family)

    p_ge = sub.add_parser("generic", help="generating set from a file")
    p_ge.add_argument("--input", required=True,
                      help="path to a generating set file")
    _add_emit_flags(p_ge)
    p_ge.set_defaults(func=_cmd_generic)

    p_ve = sub.add_parser("verify", help="cross-check grids of parameters")
    p_ve.add_argument("--family", choices=(*FAMILIES, "all"),
                      default="all")
    p_ve.add_argument("--q-max", type=int, default=4)
    p_ve.add_argument("--max", type=int, default=15,
                      help="bound for the coprime (m, r) grid")
    p_ve.add_argument("--special", choices=("ur1", "qn"))
    p_ve.add_argument("--u-max", type=int, default=3)
    p_ve.add_argument("--r-max", type=int, default=10)
    p_ve.set_defaults(func=_cmd_verify)

    p_be = sub.add_parser("bench", help="time both methods, assert equality")
    p_be.add_argument("--family", choices=tuple(FAMILIES), required=True)
    # Every family's parameter flags, once each and optional.
    for name in dict.fromkeys(name for _, names in FAMILIES.values()
                              for name in names):
        p_be.add_argument(f"--{name}", type=int)
    p_be.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_be.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    """The console script.  A closed stdout (``puregaps ... | head``) ends
    the process quietly by SIGPIPE, as it does for other filters, where
    the platform has that signal; ``signal`` is imported here, so
    importing this module does not load it."""
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
