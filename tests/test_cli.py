import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from gradqueue import cli
from gradqueue.cli import main
from gradqueue.experiments import COMMANDS, TRAINING, ExperimentConfig, takes

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
SWITCHES = {"--no-boost": "boost_enabled", "--adam": "use_adam"}
FIELDS = {**SWITCHES, **{flag: field for flag, (field, _) in OLD_FLAGS.items()}}  # flag -> field


def parse(argv):
    return cli.config_from_args(cli.build_parser().parse_args(argv))


def readers(flag):
    """The commands that take ``flag``, in the order the CLI lists them."""
    return [command for command in COMMANDS if FIELDS[flag] in takes(command)]


def test_each_command_takes_only_what_it_reads():
    settings = {command: run.settings for command, run in COMMANDS.items()}
    assert " ".join(settings) == "lemma-check momentum-sim train-lines qlen-demo zeta-table"
    assert settings["lemma-check"] == ("beta", "N")
    assert settings["momentum-sim"] == ("steps", "N", "C", "u", "beta", "rho", "capacity")
    assert settings["zeta-table"] == ("batch_size", "p", "q", "eq_q", "eq_p")
    shared = ("rho", "capacity", "boost_enabled", "k", "optimal_batch")
    assert settings["train-lines"] == (*TRAINING, *shared)
    assert settings["qlen-demo"] == (*TRAINING, "window", "min_length", "max_length", "pattern")
    # 2 + 7 + 16 + 15 + 5 command-setting pairs, and --output on each command
    assert [len(takes(command)) for command in COMMANDS] == [3, 8, 17, 16, 6]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_old_flag_parses_as_before(command):
    for flag, (field, ftype) in OLD_FLAGS.items():
        if command not in readers(flag):
            continue  # test_unread_option_exits_2
        for raw in SAMPLES[ftype]:
            cfg = parse([command, flag, raw])
            value = getattr(cfg, field)
            assert type(value) is ftype and value == ftype(raw), (flag, raw)
            assert cfg == dataclasses.replace(ExperimentConfig(), **{field: value})


@pytest.mark.parametrize(
    "command, switches, flipped",
    [
        ("train-lines", ["--no-boost", "--adam"], {"boost_enabled": False, "use_adam": True}),
        ("qlen-demo", ["--adam"], {"use_adam": True}),
    ],
)
def test_switches(command, switches, flipped):
    assert parse([command]) == ExperimentConfig()
    assert parse([command, *switches]) == dataclasses.replace(ExperimentConfig(), **flipped)


@pytest.mark.parametrize(
    "command, text, flags, want",
    [
        ("momentum-sim", "steps=10\nN=5\n", ["--steps", "15"], {"steps": 15, "N": 5}),
        (
            "train-lines",
            "steps=10\nboost_enabled=true\nuse_adam=true\n",
            ["--steps", "15", "--no-boost"],
            {"steps": 15, "boost_enabled": False, "use_adam": True},
        ),
        ("lemma-check", "N=5\noutput=a.csv\n", ["--output", "b"], {"N": 5, "output": "b"}),
    ],
)
def test_flags_override_the_config_file(command, text, flags, want, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = parse([command, "--config", str(path), *flags])
    assert cfg == dataclasses.replace(ExperimentConfig(), **want)


UNREAD = [  # every option a command does not take, with a value it would parse
    (command, flag, [] if flag in SWITCHES else [SAMPLES[OLD_FLAGS[flag][1]][0]])
    for command in COMMANDS
    for flag in [*OLD_FLAGS, *SWITCHES]
    if command not in readers(flag)
]


def test_unread_options_are_counted():
    # 130 command-option pairs (5 commands, 26 fields) less the 50 that are taken
    assert len(UNREAD) == 5 * 26 - 50


@pytest.mark.parametrize("command, flag, value", UNREAD)
def test_unread_option_exits_2(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, flag, *value, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {command} does not read {flag}\n"
    assert not out.exists()


def test_unread_options_are_all_named(capsys):
    # a prefix is named by the option it resolves to, and options come in argv order
    assert main(["--u", "2", "train-lines", "--steps", "2", "--eq-p", "1", "--C", "3"]) == 2
    assert capsys.readouterr().err == "error: train-lines does not read --u, --eq-p, --C\n"
    assert main(["lemma-check", "--ste", "9", "--N", "4"]) == 2
    assert capsys.readouterr().err == "error: lemma-check does not read --steps\n"


@pytest.mark.parametrize("command, flag, value", UNREAD)
def test_unread_config_key_exits_2(command, flag, value, tmp_path, capsys):
    field = FIELDS[flag]
    path, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    path.write_text(f"# a comment\n\n{field} = {value[0] if value else 'false'}\n")
    assert main([command, "--config", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: {command} does not read {field}\n"
    assert not out.exists()


def test_help_names_the_commands_that_take_each_option():
    for action in cli.build_parser()._actions:
        if action.dest in cli._OPTIONS:
            names = ", ".join(c for c in COMMANDS if action.dest in takes(c))
            assert action.help.endswith(f" ({names})"), action.option_strings
    helps = {a.option_strings[-1]: a.help for a in cli.build_parser()._actions if a.option_strings}
    assert helps["--N"] == "sparse period (lemma-check, momentum-sim)"
    every = "(lemma-check, momentum-sim, train-lines, qlen-demo, zeta-table)"
    assert helps["--output"].endswith(every)


def test_options_are_the_old_ones():
    options = {s for a in cli.build_parser()._actions for s in a.option_strings}
    assert options == {*OLD_FLAGS, "--config", "--no-boost", "--adam", "-h", "--help"}


def test_flags_may_come_before_the_command():
    before = parse(["--steps", "15", "--adam", "qlen-demo"])
    assert before == parse(["qlen-demo", "--steps", "15", "--adam"])


def test_none_clears_an_optional_field():
    cfg = parse(["train-lines", "--k", "none", "--output", " NONE "])
    assert cfg.k is None and cfg.output is None
    assert parse(["zeta-table", "--eq-q", "None", "--eq-p", "-1"]).eq_q is None
    assert parse(["train-lines", "--k", "3", "--k", "none"]).k is None


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
@pytest.mark.parametrize(
    "command, flag", [(command, flag) for flag in FLOAT_FLAGS for command in readers(flag)]
)
def test_non_finite_float_flag_exits_2(command, flag, raw, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [command, flag, raw, "--output", str(out)]
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
        path.write_text(f"output=unwritten.csv\n{field} = {raw}\n")
        assert main([readers(flag)[0], "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: {field} must be finite, got '{raw}'"), err


@pytest.mark.parametrize(
    "spaced",
    [
        ["--alpha", "-1e-3"],
        ["--eq-p", "-4e-2"],
        ["--u", "-1"],
        ["--beta", "-2.5E+1"],
        ["--C", "-.5e2", "--u", "-7e0"],
        ["--eq-q", "-7e0", "--eq-p", "-.5e2"],
    ],
)
def test_negative_values_in_exponent_form(spaced):
    pairs = list(zip(spaced[::2], spaced[1::2]))
    joined = [f"{flag}={value}" for flag, value in pairs]
    commands = [c for c in COMMANDS if all(c in readers(flag) for flag, _ in pairs)]
    assert commands
    for command in commands:
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


@pytest.mark.parametrize("reader", [0, -1])
def test_abbreviated_flags_take_exponent_form_negatives(reader):
    # argparse takes a prefix of exactly one long option for that option, on the first and
    # the last command that takes it
    actions = cli.build_parser()._actions
    long_options = [o for a in actions for o in a.option_strings if o.startswith("--")]
    for prefix in FLOAT_FLAG_PREFIXES:
        options = [o for o in long_options if o.startswith(prefix)]
        if prefix not in OLD_FLAGS and len(options) > 1:
            continue  # ambiguous: test_ambiguous_abbreviation_exits_2
        flag = prefix if prefix in OLD_FLAGS else options[0]
        command = readers(flag)[reader]
        cfg = cli.config_from_args(cli.parse_args([command, prefix, "-1e-3"]))
        assert cfg == cli.config_from_args(cli.parse_args([command, f"{prefix}=-1e-3"])), prefix
        assert getattr(cfg, OLD_FLAGS[flag][0]) == -1e-3, prefix


@pytest.mark.parametrize(
    "command, spaced, field, value",
    [
        ("train-lines", ["--alp", "-1e-3"], "learning_rate", -1e-3),
        ("zeta-table", ["--eq-p", "-4e-2"], "eq_p", -4e-2),
        ("momentum-sim", ["--cap", "-3"], "capacity", -3),
        ("train-lines", ["--noi", "-2.5E+1", "--r", "-1e0"], "noise_std", -25.0),
    ],
)
def test_named_abbreviations_match_their_equals_forms(command, spaced, field, value):
    joined = [f"{flag}={raw}" for flag, raw in zip(spaced[::2], spaced[1::2])]
    cfg = cli.config_from_args(cli.parse_args([command, *spaced]))
    assert cfg == cli.config_from_args(cli.parse_args([command, *joined]))
    assert getattr(cfg, field) == value


@pytest.mark.parametrize(
    "command, prefix",
    [
        ("zeta-table", "--eq-"),
        ("zeta-table", "--eq"),
        ("momentum-sim", "--c"),
        ("train-lines", "--n"),
        ("qlen-demo", "--m"),
        ("train-lines", "--b"),
    ],
)
@pytest.mark.parametrize("raw", ["-1e-3", "1"])
def test_ambiguous_abbreviation_exits_2(command, prefix, raw, capsys):
    # a negative number is joined to the prefix before it, so argparse names the joined
    # token; any other value stays a token of its own, and argparse names the prefix alone
    spaced = f"{prefix}={raw}" if raw.startswith("-") else prefix
    for argv, named in (([prefix, raw], spaced), ([f"{prefix}={raw}"], f"{prefix}={raw}")):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([command, *argv])
        assert exc.value.code == 2
        assert f"error: ambiguous option: {named} could match" in capsys.readouterr().err, argv


@pytest.mark.parametrize("switch", ["--adam", "--no-boost", "--help", "--ad", "--no-", "--hel"])
@pytest.mark.parametrize("raw", ["-1e-3", "-2.5E+1"])
def test_switch_given_a_negative_number_exits_2(switch, raw, capsys):
    # the number is joined to the switch before it, and argparse refuses a switch given a value
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["train-lines", switch, raw])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"ignored explicit argument '{raw}'" in err


@pytest.mark.parametrize("flag", ["--config", "--conf"])
def test_config_path_may_read_as_a_negative_number(flag, tmp_path, monkeypatch):
    # --config is a value flag like any other, so a path such as -1e-3 is joined to it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-1e-3").write_text("steps=15\n")
    args = cli.parse_args(["momentum-sim", flag, "-1e-3"])
    assert args.config == "-1e-3"
    assert cli.config_from_args(args).steps == 15


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


RERUNS = [
    ["lemma-check"],
    ["momentum-sim", "--steps", "40"],
    ["train-lines", "--steps", "3", "--p", "8", "--q", "2", "--batch-size", "10"],
    ["qlen-demo", "--steps", "30"],
    ["zeta-table"],
]


@pytest.mark.parametrize("argv", RERUNS, ids=lambda argv: argv[0])
def test_reruns_to_different_paths_write_the_same_bytes(argv, tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "elsewhere" / "b.csv"]
    paths[1].parent.mkdir()
    for path in paths:
        assert main([*argv, "--output", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert b"output" not in paths[0].read_bytes()


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["zeta-table", "--output", str(tmp_path / "missing-dir" / "z.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SMALL_TRAIN = ["--p", "8", "--q", "2", "--batch-size", "10"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train-lines", "--steps", "0", *SMALL_TRAIN], "steps must be >= 1, got 0"),
        (["train-lines", "--steps", "-4", *SMALL_TRAIN], "steps must be >= 1, got -4"),
        (["qlen-demo", "--steps", "0"], "steps must be >= 1, got 0"),
        (["momentum-sim", "--capacity", "0"], "capacity must be >= 1, got 0"),
        (["lemma-check", "--N", "2"], "N must be >= 3, got 2"),
        (["qlen-demo", "--steps", "-1", "--pattern", "flat"], "steps must be >= 1, got -1"),
        (
            ["qlen-demo", "--steps", "0", "--pattern", "train", *SMALL_TRAIN],
            "steps must be >= 1, got 0",
        ),
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
        (["train-lines", "--seed", "-1", *SMALL_TRAIN], "seed must be >= 0, got -1"),
        (
            ["qlen-demo", "--pattern", "train", "--seed", "-1", *SMALL_TRAIN],
            "seed must be >= 0, got -1",
        ),
        (["zeta-table", "--eq-q", "1.0"], "eq_q and eq_p must be given together"),
        (["zeta-table", "--eq-p", "-0.5"], "eq_q and eq_p must be given together"),
        (["zeta-table", "--eq-q", "1.0", "--eq-p", "none"], "eq_q and eq_p must be given together"),
        (
            ["zeta-table", "--eq-q", "1", "--eq-p", "-1", "--p", str(10**400), "--q", "1"]
            + ["--batch-size", str(10**400 + 1)],
            f"B must be <= 2**53, got {10**400 + 1}",
        ),
        (  # e_k = 1.8e308; the unscaled forms wrote -inf, inf and nan
            ["zeta-table", "--eq-q", "1e308", "--eq-p", "-1e308", "--p", "9", "--q", "1"]
            + ["--batch-size", "10"],
            "batch_error_case: out of the float range",
        ),
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
    assert sorted(argv[1] for argv in argvs) == sorted(COMMANDS)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_example_runs(argv, tmp_path, capsys):
    argv = argv[1:]
    out = tmp_path / f"{argv[0]}.csv"
    if "--output" in argv:
        argv[argv.index("--output") + 1] = str(out)
    else:
        argv += ["--output", str(out)]
    assert main(argv) == 0
    # the header: the settings the command reads, in field order, and no output path
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    settings = COMMANDS[argv[0]].settings
    reads = [f"# {f.name}" for f in dataclasses.fields(ExperimentConfig) if f.name in settings]
    assert [line.partition("=")[0] for line in header] == reads
