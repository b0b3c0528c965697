"""Command line front end for the quadric hypersurface pipeline."""

import argparse
import sys

from .errors import ParseError
from .pipeline import STAGES, run_pipeline
from .presentation import parse_file


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncquadric",
        description="Analyze a quadric hypersurface inside a quantum "
                    "polynomial algebra: isolated-singularity verdict, "
                    "module decomposition, and pre-resolution data.")
    parser.add_argument("file", help="presentation file (see README for "
                        "the format)")
    parser.add_argument("--degree", type=int, default=6,
                        help="degree bound for all graded checks "
                             "(default 6)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized idempotent search "
                             "(default 0)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("--stage", choices=STAGES, default=None,
                        help="stop after the named stage")
    parser.add_argument("--skip-qp-check", action="store_true",
                        help="demote a failed quantum polynomial "
                             "certificate to a warning")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.degree < 4:
        print("error: --degree must be at least 4", file=sys.stderr)
        return 2
    try:
        parsed = parse_file(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read {args.file}: {reason}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    report = run_pipeline(parsed, degree=args.degree, seed=args.seed,
                          skip_qp_check=args.skip_qp_check,
                          stop_after=args.stage, input_label=args.file)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(), end="")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
