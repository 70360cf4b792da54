"""Command-line entry point: one subcommand per experiment kind plus selftest.

Exit codes: 0 success, 1 selftest failure, 2 configuration error,
3 numerical error (including a config too large to allocate), 4 file I/O error.
"""

import argparse
import sys

import numpy as np

from riskshift.errors import ConfigError, RiskshiftError
from riskshift.harness.config import ALL_KINDS, load_config
from riskshift.harness.runners import run_and_write
from riskshift.harness.selftest import run_all


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="riskshift",
        description="Risk relationships for linear predictors under covariate shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ALL_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override the output CSV path")
    sub.add_parser("selftest", help="run the acceptance checks and report PASS/FAIL")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        results = run_all()
        return 0 if all(r.passed for r in results) else 1
    try:
        config = load_config(args.config, args.command, seed_override=args.seed, out_override=args.out)
        out_path, n_rows = run_and_write(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RiskshiftError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {n_rows} rows to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
