"""Command-line front end: lemma-check, momentum-sim, train-lines, qlen-demo, zeta-table."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiments
from .experiments import ExperimentConfig, _parse_value, load_config_file

_RUNNERS = {
    "lemma-check": experiments.run_lemma_check,
    "momentum-sim": experiments.run_momentum_sim,
    "train-lines": experiments.run_train_lines,
    "qlen-demo": experiments.run_qlen_demo,
    "zeta-table": experiments.run_zeta_table,
}

# config field -> help of its flag, --<field with "-" for "_">, but --alpha for learning_rate
_FLAGS = {
    "learning_rate": "learning rate",
    "beta": "momentum coefficient",
    "rho": "boost clamp constant",
    "capacity": "gradient queue length",
    "k": "cluster count (default: batch_size/optimal_batch)",
    "u": "repeating signal value",
    "C": "rare signal value",
    "N": "sparse period",
    "steps": "number of steps",
    "height": "image height",
    "width": "image width",
    "p": "horizontal-line sample count",
    "q": "vertical-line sample count",
    "noise_std": "pixel noise standard deviation",
    "seed": "master seed",
    "batch_size": "mini-batch size B",
    "optimal_batch": "reference batch size for choose_k",
    "window": "loss window size",
    "min_length": "minimum effective queue length",
    "max_length": "maximum effective queue length",
    "pattern": "qlen-demo loss feed: decreasing|flat|staged|train",
    "eq_q": "rare-group expected gradient (zeta-table)",
    "eq_p": "frequent-group expected gradient (zeta-table)",
    "output": "CSV output path",
}


def _field_type(name: str):
    """argparse type for one config field: the config-file coercion, reported per flag."""

    def parse(raw: str):
        try:
            return _parse_value(name, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    commands = "".join(
        f"\n  {name:<14}{run.__doc__.splitlines()[0].lower()}" for name, run in _RUNNERS.items()
    )
    parser = argparse.ArgumentParser(
        prog="gradqueue",
        description="Queue-driven sparse-gradient boosting: checks and experiments",
        epilog="commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=_RUNNERS, metavar="command", help="listed below")
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for name, help_text in _FLAGS.items():
        flag = "--alpha" if name == "learning_rate" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=_field_type(name), help=help_text)
    for flag, dest, action, help_text in (
        ("--no-boost", "boost_enabled", "store_false", "disable the boost in train-lines"),
        ("--adam", "use_adam", "store_true", "use Adam instead of SGDM"),
    ):
        parser.add_argument(flag, dest=dest, action=action, help=help_text)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file, if any, with every flag given on the command line applied over it."""
    path = getattr(args, "config", None)
    cfg = load_config_file(path) if path else ExperimentConfig()
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return dataclasses.replace(cfg, **flags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        result = _RUNNERS[args.command](cfg)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary)
    if cfg.output:
        print(f"wrote {cfg.output}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
