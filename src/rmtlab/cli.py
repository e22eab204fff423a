"""Command line entry point.

    rmtlab <experiment> --config <path> [--seed <u64>] [--threads <n>] [--out <dir>]

The positional experiment must match the config's "experiment" field when the
config carries one; --seed/--threads/--out override the corresponding config
entries.  Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

import argparse
import sys

from .errors import DegenerateSpectrumError, InfeasibleDecompositionError, NumericalError
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run

# Checked before the invalid-configuration clause: the last two are ValueErrors.
_NUMERICAL = (NumericalError, DegenerateSpectrumError, InfeasibleDecompositionError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rmtlab",
        description="Run one random-matrix experiment from a JSON config.",
        epilog="Artifacts are a function of (config, seed) for one numpy/scipy/OpenBLAS "
               "build and OpenBLAS kernel; --threads and --out never change a byte. GOE "
               "spectra, which are tridiagonal solves, and free-conv runs on the "
               "semicircle, the atom or a sampled GOE base do not depend on the kernel.",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_KINDS)
    parser.add_argument("--config", help="JSON config file; optional for kinds "
                                         "whose defaults suffice (e.g. acceptance)")
    parser.add_argument("--seed", type=int, help="master seed (decimal u64)")
    parser.add_argument("--threads", type=int,
                        help="worker threads for trials (default: every usable CPU)")
    parser.add_argument("--out", help="output directory for artifacts")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = ExperimentConfig.from_json_file(args.config)
            if config.experiment != args.experiment:
                raise ValueError(
                    f"config names experiment {config.experiment!r} but the "
                    f"command line asked for {args.experiment!r}"
                )
        else:
            config = ExperimentConfig(experiment=args.experiment)
        if args.seed is not None:
            config.seed = args.seed
        if args.threads is not None:
            config.threads = args.threads
        if args.out is not None:
            config.out_dir = args.out
        report = run(config)
    except _NUMERICAL as exc:
        # The notes name the trial (rng.trial_map attaches them).
        parts = [str(exc), *getattr(exc, "__notes__", ())]
        if getattr(exc, "residual", None) is not None:
            parts.append(f"residual {exc.residual:.3e}")
        print(f"numerical failure: {'; '.join(parts)}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    print(f"{report.experiment}: config_hash={report.config_hash} "
          f"seed={report.seed} wall={report.wall_clock_s:.2f}s")
    for path in report.artifacts:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
