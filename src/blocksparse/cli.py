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
    # Unset flags stay out of the namespace, so HarnessConfig supplies every default.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--seed", type=int, help="master RNG seed")
    flags.add_argument("--trials", type=int, help="trials per parameter point")
    flags.add_argument("--jobs", type=int, help="trial worker processes")
    flags.add_argument("--out-dir", help="output directory for CSV and images")
    flags.add_argument("--clique-side", type=int,
                       help="clique patch side length (per-experiment default)")
    flags.add_argument("--lambda", dest="lam", type=float,
                       help="regularization weight (per-experiment default)")
    flags.add_argument("--mu", type=float, help="decomposition fidelity weight")
    flags.add_argument("--epsilon", type=float,
                       help="smoothing parameter (default: scale-relative)")
    flags.add_argument("--k-sparsity", type=int, help="planted sparsity K")
    flags.add_argument("--m-over-k", type=float,
                       help="measurement budget as a multiple of K")
    flags.add_argument("--snr-db", type=float,
                       help="measurement SNR (or input PSNR for denoising)")
    flags.add_argument("--dump-config", action="store_true", default=False,
                       help="print the fully-resolved configuration and exit")
    parser = argparse.ArgumentParser(
        prog="blocksparse",
        description="Desk-scale experiments for overlapping block-sparsity solvers.")
    subparsers = parser.add_subparsers(dest="experiment", required=True,
                                       metavar="<experiment>")
    for name, sweep in EXPERIMENTS.items():
        subparsers.add_parser(name, help=sweep.help, parents=[flags])
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
