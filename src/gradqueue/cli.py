"""Command-line front end: lemma-check, momentum-sim, train-lines, qlen-demo, zeta-table."""

from __future__ import annotations

import argparse
import dataclasses
import functools
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

_FIELDS = dataclasses.fields(ExperimentConfig)
# config field -> its flag: --<field> with "-" for "_", unless the field names its own
_OPTIONS = {f.name: f.metadata["flag"] or "--" + f.name.replace("_", "-") for f in _FIELDS}
# value flag -> config field; a bool field is a switch and takes no value
_FLAG_FIELDS = {_OPTIONS[f.name]: f.name for f in _FIELDS if f.type != "bool"}
# every long option of the parser, among which an abbreviation must be unique
_LONG_OPTIONS = ("--help", "--config", *_OPTIONS.values())


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
    for f in _FIELDS:
        if f.type == "bool":  # a switch away from the default
            kind = {"action": "store_false" if f.default else "store_true"}
        else:
            kind = {"type": _field_type(f.name)}
        parser.add_argument(_OPTIONS[f.name], dest=f.name, help=f.metadata["help"], **kind)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``parse_args`` uses, built once per process."""
    return build_parser()


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _value_flag(token: str) -> bool:
    """Whether argparse reads ``token`` as a value flag: its full name or a unique prefix."""
    if token in _FLAG_FIELDS:
        return True
    matches = [o for o in _LONG_OPTIONS if o.startswith(token)] if token.startswith("--") else []
    return len(matches) == 1 and matches[0] in _FLAG_FIELDS


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line; a value flag takes a negative number in any float form.

    argparse reads ``-1`` and ``-1.5`` as values but ``-1e-3`` as an option,
    so a value flag followed by a token that starts with ``-`` and reads as
    a float is first joined to it: ``--alpha -1e-3`` parses as ``--alpha=-1e-3``.
    A value flag is its full name or, as argparse allows, a prefix of exactly
    one long option (``--alp``); an ambiguous prefix is left for argparse to
    reject.
    """
    joined = []
    for token in sys.argv[1:] if argv is None else argv:
        negative = token.startswith("-") and _reads_as_float(token)
        if negative and joined and _value_flag(joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return _parser().parse_args(joined)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file, if any, with every flag given on the command line applied over it."""
    path = getattr(args, "config", None)
    cfg = load_config_file(path) if path else ExperimentConfig()
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return dataclasses.replace(cfg, **flags)


def main(argv=None) -> int:
    args = parse_args(argv)
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
