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


@pytest.mark.parametrize("command", ["momentum-sim", "train-lines"])
def test_nan_rho_exits_2(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [command, "--rho", "nan", "--steps", "12", "--N", "3", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: rho must be >= 1, got nan")
    assert not out.exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["zeta-table", "--output", str(tmp_path / "missing-dir" / "z.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
