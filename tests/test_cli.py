import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from gradqueue import cli
from gradqueue.cli import main
from gradqueue.experiments import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# The value flags of the earlier one-subparser-per-command CLI, flag -> (field, type):
# every spelling must keep parsing to the same value and type.
OLD_FLAGS = {
    "--alpha": ("learning_rate", float),
    "--beta": ("beta", float),
    "--rho": ("rho", float),
    "--capacity": ("capacity", int),
    "--k": ("k", int),
    "--u": ("u", float),
    "--C": ("C", float),
    "--N": ("N", int),
    "--steps": ("steps", int),
    "--height": ("height", int),
    "--width": ("width", int),
    "--p": ("p", int),
    "--q": ("q", int),
    "--noise-std": ("noise_std", float),
    "--seed": ("seed", int),
    "--batch-size": ("batch_size", int),
    "--optimal-batch": ("optimal_batch", int),
    "--window": ("window", int),
    "--min-length": ("min_length", int),
    "--max-length": ("max_length", int),
    "--pattern": ("pattern", str),
    "--eq-q": ("eq_q", float),
    "--eq-p": ("eq_p", float),
    "--output": ("output", str),
}
SAMPLES = {
    int: ["7", "-3", " 12"],
    float: ["0.25", "-0.001", "1e-3", "2"],
    str: ["flat", "out/x.csv"],
}
COMMANDS = sorted(cli._RUNNERS)


def parse(argv):
    return cli.config_from_args(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", COMMANDS)
def test_every_old_flag_parses_as_before(command):
    for flag, (field, ftype) in OLD_FLAGS.items():
        for raw in SAMPLES[ftype]:
            cfg = parse([command, flag, raw])
            value = getattr(cfg, field)
            assert type(value) is ftype and value == ftype(raw), (flag, raw)
            assert cfg == dataclasses.replace(ExperimentConfig(), **{field: value})


@pytest.mark.parametrize("command", COMMANDS)
def test_switches(command):
    assert parse([command]) == ExperimentConfig()
    cfg = parse([command, "--no-boost", "--adam"])
    assert cfg.boost_enabled is False and cfg.use_adam is True
    assert cfg == dataclasses.replace(ExperimentConfig(), boost_enabled=False, use_adam=True)


@pytest.mark.parametrize("command", COMMANDS)
def test_flags_override_the_config_file(command, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps=10\nN=5\nboost_enabled=true\nuse_adam=true\n")
    cfg = parse([command, "--config", str(path), "--steps", "15", "--no-boost"])
    assert (cfg.steps, cfg.N, cfg.boost_enabled, cfg.use_adam) == (15, 5, False, True)


def test_options_are_the_old_ones():
    options = {s for a in cli.build_parser()._actions for s in a.option_strings}
    assert options == {*OLD_FLAGS, "--config", "--no-boost", "--adam", "-h", "--help"}


def test_flags_may_come_before_the_command():
    before = parse(["--steps", "15", "--adam", "qlen-demo"])
    assert before == parse(["qlen-demo", "--steps", "15", "--adam"])


def test_none_clears_an_optional_field():
    cfg = parse(["train-lines", "--k", "none", "--eq-q", "None", "--output", " NONE "])
    assert cfg.k is None and cfg.eq_q is None and cfg.output is None
    assert parse(["zeta-table", "--k", "3", "--k", "none"]).k is None


@pytest.mark.parametrize(
    "argv, named",
    [
        (["momentum-sim", "--steps", "abc"], ["--steps", "'abc'"]),
        (["train-lines", "--alpha", "fast"], ["--alpha", "'fast'"]),
        (["zeta-table", "--eq-q", "1,5"], ["--eq-q", "'1,5'"]),
        (["momentum-sim", "--N", "none"], ["--N", "none"]),
    ],
)
def test_bad_flag_value_exits_2_naming_the_flag(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and all(s in err for s in named)


@pytest.mark.parametrize("argv", [["no-such-command"], [], ["--steps", "3"]])
def test_unknown_or_missing_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("steps=10\nno_such_field=1\n", r"run\.cfg:2: unknown config key: no_such_field"),
        ("# header\nsteps=abc\n", r"run\.cfg:2: invalid int value for steps: 'abc'"),
        ("steps=10\nN\n", r"run\.cfg:2: expected key=value"),
        (None, r"No such file or directory"),
    ],
)
def test_bad_config_file_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    assert main(["momentum-sim", "--config", str(path)]) == 2  # 1 means a failed lemma-check
    assert re.search(r"^error: .*" + message, capsys.readouterr().err), message


FLOAT_FLAGS = [flag for flag, (_, ftype) in OLD_FLAGS.items() if ftype is float]
NON_FINITE = ["nan", "inf", "-inf", "1e999"]


@pytest.mark.parametrize("raw", NON_FINITE)
@pytest.mark.parametrize("flag", FLOAT_FLAGS)
@pytest.mark.parametrize("command", ["momentum-sim", "train-lines", "zeta-table"])
def test_non_finite_float_flag_exits_2(command, flag, raw, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [command, flag, raw, "--steps", "12", "--N", "3", "--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and f"must be finite, got '{raw}'" in err
    assert not out.exists()


@pytest.mark.parametrize("raw", NON_FINITE)
def test_non_finite_float_in_config_file_exits_2(raw, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    for flag in FLOAT_FLAGS:
        field = OLD_FLAGS[flag][0]
        path.write_text(f"steps=12\n{field} = {raw}\n")
        assert main(["momentum-sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: {field} must be finite, got '{raw}'"), err


@pytest.mark.parametrize(
    "spaced",
    [
        ["--alpha", "-1e-3"],
        ["--eq-p", "-4e-2"],
        ["--u", "-1"],
        ["--beta", "-2.5E+1"],
        ["--C", "-.5e2", "--eq-q", "-7e0"],
    ],
)
def test_negative_values_in_exponent_form(spaced):
    pairs = list(zip(spaced[::2], spaced[1::2]))
    joined = [f"{flag}={value}" for flag, value in pairs]
    for command in COMMANDS:
        cfg = cli.config_from_args(cli.parse_args([command, *spaced]))
        assert cfg == cli.config_from_args(cli.parse_args([command, *joined]))
        assert cfg == parse([command, *joined])
        assert all(getattr(cfg, OLD_FLAGS[flag][0]) == float(value) for flag, value in pairs)


def test_flags_keep_parsing_after_joins():
    args = ["--alpha", "-1e-3", "--output", "-", "--pattern", "-1e3", "--steps", "-4"]
    cfg = cli.config_from_args(cli.parse_args(["qlen-demo", *args]))
    assert (cfg.learning_rate, cfg.output, cfg.pattern, cfg.steps) == (-1e-3, "-", "-1e3", -4)
    with pytest.raises(SystemExit):  # a value flag still needs its value
        cli.parse_args(["qlen-demo", "--alpha", "--steps", "-1e-3"])


FLOAT_FLAG_PREFIXES = [flag[:n] for flag in FLOAT_FLAGS for n in range(3, len(flag) + 1)]


@pytest.mark.parametrize("command", ["momentum-sim", "zeta-table"])
def test_abbreviated_flags_take_exponent_form_negatives(command):
    # argparse takes a prefix of exactly one long option for that option
    for prefix in FLOAT_FLAG_PREFIXES:
        options = [o for o in cli._LONG_OPTIONS if o.startswith(prefix)]
        if prefix not in OLD_FLAGS and len(options) > 1:
            continue  # ambiguous: test_ambiguous_abbreviation_exits_2
        flag = prefix if prefix in OLD_FLAGS else options[0]
        cfg = cli.config_from_args(cli.parse_args([command, prefix, "-1e-3"]))
        assert cfg == cli.config_from_args(cli.parse_args([command, f"{prefix}=-1e-3"])), prefix
        assert getattr(cfg, OLD_FLAGS[flag][0]) == -1e-3, prefix


@pytest.mark.parametrize(
    "spaced, field, value",
    [
        (["--alp", "-1e-3"], "learning_rate", -1e-3),
        (["--eq-p", "-4e-2"], "eq_p", -4e-2),
        (["--cap", "-3"], "capacity", -3),
        (["--noi", "-2.5E+1", "--r", "-1e0"], "noise_std", -25.0),
    ],
)
def test_named_abbreviations_match_their_equals_forms(spaced, field, value):
    joined = [f"{flag}={raw}" for flag, raw in zip(spaced[::2], spaced[1::2])]
    cfg = cli.config_from_args(cli.parse_args(["momentum-sim", *spaced]))
    assert cfg == cli.config_from_args(cli.parse_args(["momentum-sim", *joined]))
    assert getattr(cfg, field) == value


@pytest.mark.parametrize("prefix", ["--eq-", "--eq", "--c", "--n", "--m", "--b"])
@pytest.mark.parametrize("raw", ["-1e-3", "1"])
def test_ambiguous_abbreviation_exits_2(prefix, raw, capsys):
    # the spaced form is left unjoined, so argparse names the prefix alone
    for argv, named in (([prefix, raw], prefix), ([f"{prefix}={raw}"], f"{prefix}={raw}")):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["momentum-sim", *argv])
        assert exc.value.code == 2
        assert f"error: ambiguous option: {named} could match" in capsys.readouterr().err, argv


def test_long_options_are_the_parsers():
    options = {s for a in cli.build_parser()._actions for s in a.option_strings}
    assert set(cli._LONG_OPTIONS) == {o for o in options if o.startswith("--")}


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_help_matches_a_fresh_parser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):  # the second call reuses the parser
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()


def test_repeated_main_writes_the_same_bytes(tmp_path, capsys):
    runs = [
        ["momentum-sim", "--steps", "200", "--N", "7", "--C", "12.5", "--capacity", "4"],
        ["lemma-check"],
        ["zeta-table"],
        ["qlen-demo", "--pattern", "staged", "--steps", "200"],
    ]
    written = []
    for _ in range(2):
        for argv in runs:
            out = tmp_path / f"{argv[0]}.csv"
            assert main([*argv, "--output", str(out)]) == 0
            written.append(out.read_bytes())
    assert written[: len(runs)] == written[len(runs) :]
    stdout = capsys.readouterr().out
    assert stdout.count("worst rel_err: momentum_closed_form ") == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["zeta-table", "--output", str(tmp_path / "missing-dir" / "z.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SMALL_TRAIN = ["--p", "8", "--q", "2", "--batch-size", "10"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train-lines", "--steps", "0", *SMALL_TRAIN], "steps must be >= 1"),
        (["train-lines", "--steps", "-4", *SMALL_TRAIN], "steps must be >= 1"),
        (["qlen-demo", "--steps", "0"], "steps must be >= 1"),
        (["qlen-demo", "--steps", "-1", "--pattern", "flat"], "steps must be >= 1"),
        (["qlen-demo", "--steps", "0", "--pattern", "train", *SMALL_TRAIN], "steps must be >= 1"),
        (["train-lines", "--steps", "2", "--k", "0", *SMALL_TRAIN], "k must be >= 1, got 0"),
        (["train-lines", "--steps", "2", "--k", "-3", *SMALL_TRAIN], "k must be >= 1, got -3"),
        (
            ["train-lines", "--steps", "2", "--noise-std", "-1", *SMALL_TRAIN],
            "noise_std must be >= 0, got -1.0",
        ),
        *(
            ([*command, "--steps", "2", *SMALL_TRAIN, "--batch-size", size], message)
            for command in (["qlen-demo", "--pattern", "train"], ["train-lines", "--k", "1"])
            for size, message in (
                ("0", "batch_size must be >= 1, got 0"),
                ("-4", "batch_size must be >= 1, got -4"),
            )
        ),
        (["zeta-table", "--eq-q", "1.0"], "eq_q and eq_p must be given together"),
        (["zeta-table", "--eq-p", "-0.5"], "eq_q and eq_p must be given together"),
        (["zeta-table", "--eq-q", "1.0", "--eq-p", "none"], "eq_q and eq_p must be given together"),
    ],
)
def test_refused_settings_exit_2_before_writing(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_k_none_still_chooses_k(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["train-lines", "--steps", "2", "--k", "none", *SMALL_TRAIN, "--output", str(out)]
    assert main(argv) == 0
    assert "k=1," in capsys.readouterr().out  # choose_k(10, 50)
    assert out.exists()


def readme_commands():
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_lists_every_command_once():
    argvs = readme_commands()
    assert all(argv[0] == "gradqueue" for argv in argvs)
    assert sorted(argv[1] for argv in argvs) == COMMANDS


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_example_runs(argv, tmp_path, capsys):
    argv = argv[1:]
    out = tmp_path / f"{argv[0]}.csv"
    if "--output" in argv:
        argv[argv.index("--output") + 1] = str(out)
    else:
        argv += ["--output", str(out)]
    assert main(argv) == 0
    assert out.read_text().startswith("# learning_rate=")
