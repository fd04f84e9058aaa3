"""Command-line front end: scripted runs, transcript verification, keygen.

Machine-first output (JSON lines on disk, one summary line on stdout);
--pretty adds a human-readable digest. Exit codes: 0 success, 1 failed
verification or unwritable report, 2 usage error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from .crypto import GenerationFailure, int_to_hex, rsa_keygen_with_exponent
from .harness import MODES, RunConfig, run_mode, verify_report
from .transcript import load_report, write_report_lines


def integer(text: str) -> int:
    """Decimal, or hex after a 0x prefix. argparse names the converter in
    its error message: "invalid integer value: '0x'"."""
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsa-cegd",
        description="Certified e-goods delivery simulator and transcript checker.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scripted scenario")
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--bits", type=int, default=RunConfig.bits)
    run.add_argument("--exponent", type=integer, default=RunConfig.exponent)
    run.add_argument("--seed", type=int, default=None,
                     help="falls back to the CEGD_SEED environment variable")
    run.add_argument("--goods-size", type=int, default=RunConfig.goods_size)
    run.add_argument("--out", required=True)
    run.add_argument("--pretty", action="store_true",
                     help="print a human-readable summary")

    verify = sub.add_parser("verify-transcript",
                            help="re-check every signature and congruence in a report")
    verify.add_argument("path")

    keygen = sub.add_parser("keygen", help="print a deterministic keypair record")
    keygen.add_argument("--bits", type=int, default=RunConfig.bits)
    keygen.add_argument("--exponent", type=integer, default=RunConfig.exponent)
    keygen.add_argument("--seed", type=int, default=None)

    return parser


def _resolve_seed(parser: argparse.ArgumentParser, seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("CEGD_SEED")
    if env is None:
        parser.error("--seed not given and CEGD_SEED not set")
    try:
        return int(env)
    except ValueError:
        parser.error(f"CEGD_SEED is not an integer: {env!r}")


def _cmd_run(parser, args) -> int:
    seed = _resolve_seed(parser, args.seed)
    try:
        config = RunConfig(mode=args.mode, bits=args.bits, exponent=args.exponent,
                           seed=seed, goods_size=args.goods_size)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = run_mode(config)
    except GenerationFailure as exc:
        parser.error(str(exc))
    try:
        write_report_lines(report.rows(), args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    verdict = report.verdict.to_record()
    print(f"{args.mode}: verdict {verdict['verdict']} "
          f"({len(report.records)} records) -> {args.out}")
    if args.pretty:
        print("milestones:")
        for label in report.narrative:
            print(f"  - {label}")
        print("evidence:")
        for party, snap in sorted(report.evidence.items()):
            print(f"  {party}: {len(snap['goods'])} goods, "
                  f"{len(snap['receipts'])} receipts, "
                  f"{len(snap['origin_proofs'])} origin proofs")
        print("verdict: " + json.dumps(verdict))
    return 0


def _cmd_verify(args) -> int:
    # The file is read as verify_report takes its rows, so a read error can
    # come from any line; verify_report itself raises nothing.
    rows = load_report(args.path)
    try:
        problems = verify_report(rows)
        for _ in rows:  # the lines after a missing header must read too
            pass
    # ValueError: bad JSON or UTF-8, a repeated key; RecursionError: deep JSON.
    except (OSError, ValueError, RecursionError) as exc:
        print(f"cannot read transcript: {exc}", file=sys.stderr)
        return 1
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        print(f"{len(problems)} problem(s) found")
        return 1
    print("transcript verified: all checks pass, verdict reproducible")
    return 0


def _cmd_keygen(parser, args) -> int:
    seed = _resolve_seed(parser, args.seed)
    try:
        pair = rsa_keygen_with_exponent(args.bits, args.exponent, seed)
    except (ValueError, GenerationFailure) as exc:
        parser.error(str(exc))
    fields = {name: int_to_hex(value) for name, value in asdict(pair).items()}
    print(json.dumps({"bits": args.bits, "seed": seed, **fields}, separators=(",", ":")))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(parser, args)
    if args.command == "verify-transcript":
        return _cmd_verify(args)
    return _cmd_keygen(parser, args)


if __name__ == "__main__":
    sys.exit(main())
