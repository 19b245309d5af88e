"""Command-line front end.

Exit codes: 0 success, 2 singular pivot or an inverse with NaN or Inf
entries, 3 I/O, format or argument error, 4 checkpoint mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (
    KINDS,
    METHODS,
    RESIDUAL_BUDGET,
    bench as run_bench,
    fit_slope,
    generate,
    records_to_csv,
    run_method,
    write_csv,
)
from .core import (
    OpCounters,
    gauss_jordan_oracle,
    load_matrix,
    residual_norm,
    save_matrix,
)
from .engine import run_inversion, total_steps
from .errors import (
    AllPivotsSingular,
    BlockInvError,
    CheckpointCorrupt,
    FormatError,
    InvalidOrder,
    NonFiniteResult,
    SchemeMismatch,
    SingularBlock,
    SingularMatrix,
)
from .partition import make_partition, partition_from_sizes
from .recursive import invertor_with_fallback

EXIT_OK = 0
EXIT_SINGULAR = 2
EXIT_IO = 3
EXIT_CHECKPOINT = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the documented argument-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _parse_ints(text):
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers 'a,b,c', got {text!r}") from None


def _parse_orders(text):
    """Either 'a,b,c' or 'lo:hi:step' with step >= 1."""
    if ":" not in text:
        return _parse_ints(text)
    try:
        lo, hi, step = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi:step', got {text!r}") from None
    if step < 1:
        raise argparse.ArgumentTypeError(f"step must be >= 1, got {step}")
    return list(range(lo, hi + 1, step))


def _parse_fit(text):
    """'lo:hi' slope-fit range."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {text!r}") from None
    return lo, hi


def cmd_gen(args):
    m = generate(args.order, seed=args.seed, kind=args.kind)
    save_matrix(m, args.out, binary=args.binary)
    print(f"wrote {args.kind} matrix of order {args.order} to {args.out}")
    return EXIT_OK


def cmd_partition(args):
    scheme = partition_from_sizes(args.sizes) if args.sizes else make_partition(args.order)
    if scheme.m_n != args.order:
        raise InvalidOrder(f"--sizes sum to {scheme.m_n}, not the order {args.order}")
    print(f"order {scheme.m_n}: N_k = {scheme.n_blocks} diagonal blocks, "
          f"{total_steps(scheme.n_blocks)} steps")
    print("sizes " + " ".join(str(s) for s in scheme.sizes))
    return EXIT_OK


def cmd_invert(args):
    m = load_matrix(args.infile, binary=args.binary or None)
    try:
        inv, counters = run_method(
            args.method, m, sizes=args.sizes, checkpoint_dir=args.checkpoint_dir
        )
    except SingularBlock:
        if not args.retry:
            raise
        counters = OpCounters()
        inv, _ = invertor_with_fallback(m, counters)
    res = residual_norm(m, inv)
    if args.out:
        save_matrix(inv, args.out, binary=args.binary)
    print(f"method {args.method}  order {m.shape[0]}")
    print(f"residual {res:.3e}")
    print(f"multiplies {counters.multiplies}  inversions {counters.inversions}  "
          f"reductions {counters.reductions}  peak_scratch {counters.peak_scratch}")
    return EXIT_OK


def cmd_verify(args):
    m = load_matrix(args.infile, binary=args.binary or None)
    if args.inverse:
        inv = load_matrix(args.inverse, binary=args.binary or None)
        res = residual_norm(m, inv)
        print(f"residual {res:.3e}")
        return EXIT_OK
    inv, _ = run_method(args.method, m, sizes=args.sizes)
    oracle = gauss_jordan_oracle(m)
    res = residual_norm(m, inv)
    diff = float(np.max(np.abs(inv - oracle)))
    budget = RESIDUAL_BUDGET * m.shape[0]
    print(f"method {args.method}  residual {res:.3e}  max|diff vs oracle| {diff:.3e}")
    if res > budget or diff > budget:
        print(f"FAIL: exceeds budget {budget:.3e}")
        return EXIT_SINGULAR
    print("OK")
    return EXIT_OK


def cmd_bench(args):
    records = run_bench(
        args.methods.split(","),
        args.orders,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.csv:
        write_csv(records, args.csv)
        print(f"wrote {len(records)} rows to {args.csv}")
    else:
        sys.stdout.write(records_to_csv(records))
    if args.fit:
        lo, hi = args.fit
        for method in args.methods.split(","):
            rows = [r for r in records if r.method == method and r.kind == "sample"]
            fit = fit_slope(rows, lo, hi)
            print(f"{method}: T ~ m^n with n = {fit.exponent:.3f} +- {fit.stderr:.3f} "
                  f"({fit.n_points} points, m in [{lo:g}, {hi:g}])")
    return EXIT_OK


def cmd_resume(args):
    m = load_matrix(args.infile, binary=args.binary or None)
    if not os.path.exists(os.path.join(args.checkpoint_dir, "meta.json")):
        raise CheckpointCorrupt(f"no checkpoint in {args.checkpoint_dir}")
    block = run_inversion(m, sizes=args.sizes, checkpoint_dir=args.checkpoint_dir)
    inv = block.to_dense()
    if args.out:
        save_matrix(inv, args.out, binary=args.binary)
    print(f"resumed run complete; residual {residual_norm(m, inv):.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockinv", description="Blockwise dense-matrix inversion toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test matrix")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=KINDS, default="well-conditioned")
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("partition", help="show the diagonal blocking of an order")
    p.add_argument("order", type=int)
    p.add_argument("--sizes", type=_parse_ints, default=None)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("invert", help="invert a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--method", choices=tuple(METHODS), default="parallel")
    p.add_argument("--sizes", type=_parse_ints, default=None)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--retry", action="store_true",
                   help="on a singular pivot of methods a, inplace and ad, retry "
                        "with per-node pivot fallback")
    p.add_argument("--binary", action="store_true")
    p.set_defaults(fn=cmd_invert, parser=p)

    p = sub.add_parser("verify", help="check an inversion against the oracle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--inverse", default=None, help="verify this inverse file instead")
    p.add_argument("--method", choices=tuple(METHODS), default="parallel")
    p.add_argument("--sizes", type=_parse_ints, default=None)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(fn=cmd_verify, parser=p)

    p = sub.add_parser("bench", help="timing sweep with CSV output")
    p.add_argument("--methods", default="a,inplace,ad")
    p.add_argument("--orders", type=_parse_orders, required=True,
                   help="'a,b,c' or 'lo:hi:step'")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.add_argument("--fit", type=_parse_fit, default=None, help="'lo:hi' slope-fit range")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("resume", help="continue a checkpointed run to completion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--sizes", type=_parse_ints, default=None)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(fn=cmd_resume)

    return parser


# Options only the step engine reads; other methods would silently drop them.
_ENGINE_OPTIONS = (("--sizes", "sizes"), ("--checkpoint-dir", "checkpoint_dir"))
# Methods whose singular pivot --retry hands to invertor_with_fallback.
_RETRY_METHODS = ("a", "inplace", "ad")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    method = getattr(args, "method", "parallel")
    command = getattr(args, "parser", parser)  # usage errors show the subcommand's usage
    for flag, dest in _ENGINE_OPTIONS:
        if method != "parallel" and getattr(args, dest, None) is not None:
            command.error(f"{flag} applies to --method parallel only, not {method}")
    if getattr(args, "retry", False) and method not in _RETRY_METHODS:
        command.error(f"--retry applies to --method {', '.join(_RETRY_METHODS)} only, "
                     f"not {method}")
    try:
        return args.fn(args)
    except (SingularBlock, SingularMatrix, AllPivotsSingular, NonFiniteResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (CheckpointCorrupt, SchemeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (FormatError, InvalidOrder, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BlockInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
