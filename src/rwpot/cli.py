"""Command-line entry point.

One subcommand per experiment. Configuration comes from a JSON file
(--config); --seed and --out override the config, and --override-assumptions
bypasses the moment hypothesis gates by name. Exit codes: 0 all assertions
passed, 1 some failed, 2 a usage or domain error, 3 a hypothesis refused, 4
a crash (any other exception).
"""

import argparse
import functools
import json
import sys

from .errors import AssumptionError, ParameterError, RwpotError
from .harness import EXPERIMENTS, ExperimentConfig, run

_DEFAULT_SPEC = {"kind": "TwoPoint",
                 "params": {"v_lo": 0.2, "v_hi": 1.0, "p_hi": 0.5}}


def default_config(experiment):
    """The experiment on the default law at seed 1, every other key at its
    default."""
    return ExperimentConfig.from_json({
        "experiment": experiment, "spec": _DEFAULT_SPEC, "sampling": {"seed": 1}})


def _config(args):
    """The run's config: the --config file, or the subcommand's default, with
    the subcommand, --seed and --override-assumptions applied before it is
    validated, so that a flag may supply a key the file leaves out."""
    if args.config:
        with open(args.config) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ParameterError("config: must be a JSON object")
    else:
        obj = default_config(args.experiment).to_json()
    obj = {**obj, "experiment": args.experiment}
    sampling = obj.get("sampling", {})
    if args.seed is not None and isinstance(sampling, dict):
        obj["sampling"] = {**sampling, "seed": args.seed}
    if args.override_assumptions:
        obj["override_assumptions"] = True
    return ExperimentConfig.from_json(obj)


def _add_flags(parser, defaults):
    # accepted both before and after the subcommand; the subparser variant
    # suppresses defaults so it never clobbers a value given up front
    kw = {} if defaults else {"default": argparse.SUPPRESS}
    parser.add_argument("--config", help="JSON experiment config file", **kw)
    parser.add_argument("--seed", type=int, help="overrides config seed", **kw)
    parser.add_argument("--out", help="output directory", **kw)
    parser.add_argument("--override-assumptions", action="store_true",
                        help="bypass moment-hypothesis gates", **kw)


@functools.cache
def build_parser():
    """The argument parser, built once per process: main reuses it on every
    call (parsing keeps no state on the parser)."""
    parser = argparse.ArgumentParser(
        prog="rwpot",
        description="Killed-random-walk experiments in random potentials")
    _add_flags(parser, defaults=True)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _add_flags(sub.add_parser(name, help=f"run the {name} experiment"),
                   defaults=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        manifest = run(_config(args), out_dir=args.out)
    except AssumptionError as exc:
        print(f"refused: ({exc.name}) {exc}", file=sys.stderr)
        return 3
    except (RwpotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash, never read as a failed assertion (1)
        print(f"crash: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 4
    for name, ok in sorted(manifest.assertions.items()):
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    for w in manifest.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0 if manifest.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
