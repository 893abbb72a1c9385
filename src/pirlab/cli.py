"""Command-line front end.

Subcommands: ``capacity``, ``audit``, ``reproduce``. All output
is a single JSON document on stdout (diagnostics go to stderr); identical
seeds and flags produce byte-identical documents. Exit status is 0 exactly
when every requested verdict passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import reproduce as reproduce_mod
from .audit import build_audit_report, fraction_str, jsonify, real_str
from .capacity import PirParameters, mtpir_capacity
from .coding import CodecConfig
from .linear import linear_descriptor, replicated_descriptor
from .multiround import multiround_descriptor

DEFAULT_SEED_ENV = "PIRLAB_SEED"

# Binning flags are bounded before any mask is drawn: the mask table grows with
# n and delta, and a block of n unknown positions decodes in about 3^(n/2) steps.
MAX_BLOCK_LENGTH = 24  # one such block took about 1.7 s and 189 MB on a 2-core VM
MAX_DELTA = 1.0  # bits per symbol; from (1/4) log2 3, about 0.40, a bin has room for every block

# Run sizes are bounded before any message or block is drawn. Each bound admits
# what reproduce --mode full runs (L = 100,000 and 10,000 bin blocks).
MAX_MESSAGE_LENGTH = 1_000_000  # one coded audit at the bound took 4.6 s and 131 MB
MAX_TRIALS = 100
MAX_CODED_POSITIONS = 10_000_000  # -L times --trials; a coded audit at the bound took 14 s and 133 MB
MAX_SW_BLOCKS = 100_000  # one estimate at the bound took 280 s on a 2-core VM


def _default_seed() -> int:
    value = os.environ.get(DEFAULT_SEED_ENV, "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{DEFAULT_SEED_ENV} must be an integer, got {value!r}") from None


def _scheme_from_args(args) -> object:
    try:
        bias = Fraction(args.bias)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--bias must be a fraction such as 3/4, got {args.bias!r}") from None
    if args.scheme == "multiround":
        return multiround_descriptor(bias=bias, storage=args.storage)
    # The other schemes have uniform messages and one storage layout.
    multiround_only = (("--bias", bias, Fraction(1, 2)), ("--storage", args.storage, "split"))
    for flag, given, default in multiround_only:
        if given != default:
            raise ValueError(f"{flag} applies only to --scheme multiround")
    if args.scheme == "linear":
        return linear_descriptor()
    if args.scheme == "replicated":
        return replicated_descriptor()
    raise ValueError(f"unknown scheme {args.scheme!r}")


def _codec_from_args(args) -> CodecConfig:
    if not 1 <= args.block_length <= MAX_BLOCK_LENGTH:
        raise ValueError(f"--block-length must be between 1 and {MAX_BLOCK_LENGTH}, got {args.block_length}")
    if args.delta > MAX_DELTA:  # NaN and non-positive margins are CodecConfig's to refuse
        raise ValueError(f"--delta must be at most {MAX_DELTA} bits per symbol, got {args.delta}")
    return CodecConfig(block_length=args.block_length, rate_margin=args.delta, seed=args.seed)


def _check_run_sizes(args) -> None:
    sizes = (("-L", args.message_length, MAX_MESSAGE_LENGTH), ("--trials", args.trials, MAX_TRIALS),
             ("--sw-blocks", args.sw_blocks, MAX_SW_BLOCKS))
    for flag, value, bound in sizes:
        if value > bound:
            raise ValueError(f"{flag} must be at most {bound}, got {value}")
    # Two negative sizes are the builders' to refuse, not this product's.
    if args.trials > 0 and args.message_length * args.trials > MAX_CODED_POSITIONS:
        raise ValueError(f"-L times --trials must be at most {MAX_CODED_POSITIONS}, "
                         f"got {args.message_length} * {args.trials}")


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def cmd_capacity(args) -> int:
    params = PirParameters(
        num_messages=args.K, num_databases=args.N, collusion=args.T
    )
    too_large = ValueError(
        f"-K {args.K} is too large: at N={args.N}, T={args.T} the exact capacity "
        f"has more than {sys.get_int_max_str_digits()} digits"
    )
    # With T/N = p/q in lowest terms the capacity's numerator is q^(K-1):
    # refuse before computing when that alone is over a digit past the limit.
    limit, q = sys.get_int_max_str_digits(), Fraction(args.T, args.N).denominator
    if limit and (args.K - 1) * math.log10(q) > limit + 1:
        raise too_large
    value = mtpir_capacity(params)
    try:
        capacity = fraction_str(value)
    except ValueError:  # Python prints no integer longer than its digit limit
        raise too_large from None
    _emit(
        {
            "num_messages": args.K,
            "num_databases": args.N,
            "collusion": args.T,
            "capacity": capacity,
            "capacity_real": real_str(float(value)),
        }
    )
    return 0


def cmd_audit(args) -> int:
    _check_run_sizes(args)
    document = build_audit_report(
        _scheme_from_args(args),
        mode=args.mode,
        L=args.message_length,
        trials=args.trials,
        seed=args.seed,
        codec=_codec_from_args(args),
        sw_blocks=args.sw_blocks,
    )
    _emit(document)
    return 0 if document["pass"] else 1


def cmd_reproduce(args) -> int:
    document = reproduce_mod.reproduce_all(mode=args.mode, seed=args.seed, codec=_codec_from_args(args))
    _emit(jsonify(document))
    return 0 if document["pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use. ``--seed`` has no default here: ``main``
    reads ``PIRLAB_SEED`` on every call."""
    parser = argparse.ArgumentParser(
        prog="pirlab",
        description="Two-database private information retrieval laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="evaluate the retrieval capacity formula")
    p_cap.add_argument("-K", type=int, required=True, help="number of messages")
    p_cap.add_argument("-N", type=int, required=True, help="number of databases")
    p_cap.add_argument("-T", type=int, default=1, help="collusion threshold")
    p_cap.set_defaults(func=cmd_capacity)

    p_audit = sub.add_parser("audit", help="full privacy/rate/overhead audit of a scheme")
    p_audit.add_argument(
        "--scheme", choices=("multiround", "linear", "replicated"), default="multiround"
    )
    p_audit.add_argument("--mode", choices=("ideal", "concrete"), default="ideal")
    p_audit.add_argument("-L", "--message-length", type=int, default=2000)
    p_audit.add_argument("--trials", type=int, default=5)
    p_audit.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_audit.add_argument(
        "--bias", default="1/2", help="per-bit probability of 1 in each message, e.g. 3/4"
    )
    p_audit.add_argument(
        "--storage", choices=("split", "replicated"), default="split",
        help="multiround storage layout; 'replicated' is the privacy-breaking variant",
    )
    p_audit.add_argument("--block-length", type=int, default=16, help="binning block length")
    p_audit.add_argument("--delta", type=float, default=0.15, help="binning rate margin, bits/symbol")
    p_audit.add_argument("--sw-blocks", type=int, default=1000, help="blocks for the bin failure estimate")
    p_audit.set_defaults(func=cmd_audit)

    p_rep = sub.add_parser("reproduce", help="run every acceptance measurement")
    p_rep.add_argument("--mode", choices=("ideal", "full"), default="full")
    p_rep.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_rep.add_argument("--block-length", type=int, default=16)
    p_rep.add_argument("--delta", type=float, default=0.15)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        seed = _default_seed()  # a bad value fails every subcommand, capacity too
        args = build_parser().parse_args(argv)
        vars(args).setdefault("seed", seed)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
