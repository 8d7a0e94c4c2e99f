"""Command-line entry point: ``blocksparse <experiment> [--flags]``.

Exit codes: 0 on success (including sweeps with recorded per-trial
failures), 2 on usage errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .common import ConfigError
from .experiments import EXPERIMENTS, HarnessConfig, UsageError, resolve_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksparse",
        description="Desk-scale experiments for overlapping block-sparsity solvers.")
    subparsers = parser.add_subparsers(dest="experiment", required=True,
                                       metavar="<experiment>")
    for name, sweep in EXPERIMENTS.items():
        # Each experiment takes only the flags it reads.  Unset flags stay out
        # of the namespace, so HarnessConfig supplies every default.
        sub = subparsers.add_parser(name, help=sweep.help, argument_default=argparse.SUPPRESS)
        for f in sweep.flags():
            sub.add_argument(f.metadata["option"], dest=f.name, type=f.metadata["type"],
                             help=f.metadata["help"])
        sub.add_argument("--dump-config", action="store_true", default=False,
                         help="print the fully-resolved configuration and exit")
    return parser


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    name, dump_config = flags.pop("experiment"), flags.pop("dump_config")
    try:
        cfg = HarnessConfig(**flags)
        if dump_config:
            print(json.dumps(resolve_config(name, cfg), indent=2, sort_keys=True))
            return 0
        csv_path = run_experiment(name, cfg)
    except (UsageError, ConfigError) as exc:
        print(f"blocksparse: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"blocksparse: I/O error: {exc}", file=sys.stderr)
        return 3
    print(csv_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
