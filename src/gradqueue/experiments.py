"""Experiment runners behind the command-line interface.

Each runner returns a RunResult with CSV-ready rows, a human-readable
summary and an exit code (nonzero when a built-in check failed). Each is
registered in ``COMMANDS`` with the settings it reads: its only CLI options
but ``--output``, and its CSV's ``# key=value`` header, so every run can be
redone from its own file, which has the same bytes wherever it is written.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    BatchCompositionCase,
    LemmaParams,
    SparseSignalSpec,
    _check_regime,
    batch_error_case,
    lemma1_closed,
    lemma2_phi,
    lemma3_closed,
    simulate_gq_momentum,
    simulate_lemma3_momentum,
    simulate_momentum,
    sparse_signal,
    threshold_plain,
    zeta,
)
from . import optimizers
from .clustering import aggregate, choose_k, kmeans
from .core import BoostConfig, GradQueue, QueueLengthController, _at_least, delta_rho
from .nn import LineDetectorModel, Windows, generate_lines, per_sample_grads, template_alignment
# bound here although unused: perfbench/tracing.py wraps it by name
from .nn import batch_loss  # noqa: F401
from .optimizers import AdamState, OptimizerConfig, SgdmState

__all__ = [
    "COMMANDS",
    "ExperimentConfig",
    "RunResult",
    "expand_seeds",
    "load_config_file",
    "write_csv",
    "run_lemma_check",
    "run_momentum_sim",
    "run_train_lines",
    "run_qlen_demo",
    "run_zeta_table",
    "takes",
]

LEMMA_TOL = 1e-10


def _option(default, help_text: str, flag: str | None = None):
    """A config field that is also a CLI option: its help, and its flag if not --<field>."""
    return field(default=default, metadata={"help": help_text, "flag": flag})


@dataclass
class ExperimentConfig:
    """Every runner's settings; each field is the CLI option ``cli`` builds from it."""

    # optimizer
    learning_rate: float = _option(0.05, "learning rate", flag="--alpha")
    beta: float = _option(0.9, "momentum coefficient")
    rho: float = _option(3.0, "boost clamp constant")
    capacity: int = _option(3, "gradient queue length")
    boost_enabled: bool = _option(True, "disable the boost", flag="--no-boost")
    use_adam: bool = _option(False, "use Adam instead of SGDM", flag="--adam")
    k: int | None = _option(None, "cluster count (default: batch_size/optimal_batch)")
    # periodic test signal
    u: float = _option(-1.0, "repeating signal value")
    C: float = _option(5.0, "rare signal value")
    N: int = _option(9, "sparse period")
    steps: int = _option(200, "number of steps")
    # synthetic dataset
    height: int = _option(8, "image height")
    width: int = _option(8, "image width")
    p: int = _option(95, "horizontal-line sample count")
    q: int = _option(5, "vertical-line sample count")
    noise_std: float = _option(0.0, "pixel noise standard deviation")
    seed: int = _option(0, "master seed")
    batch_size: int = _option(100, "mini-batch size B")
    optimal_batch: int = _option(50, "reference batch size for choose_k")
    # queue-length controller
    window: int = _option(2, "loss window size")
    min_length: int = _option(3, "minimum effective queue length")
    max_length: int = _option(5, "maximum effective queue length")
    pattern: str = _option("staged", "loss feed: decreasing|flat|staged|train")
    # custom batch composition for the zeta table
    eq_q: float | None = _option(None, "rare-group expected gradient")
    eq_p: float | None = _option(None, "frequent-group expected gradient")
    output: str | None = _option(None, "CSV output path")


@dataclass
class RunResult:
    columns: list[str]
    rows: list[list]
    summary: str
    exit_code: int = 0
    extras: dict = field(default_factory=dict)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(name: str, raw: str):
    """Coerce a config-file or flag value to its field's type; ``none`` clears an optional field.

    A float must be finite: ``nan``, ``inf`` and values that overflow to inf are refused.
    """
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key: {name}")
    raw, kind = raw.strip(), _FIELD_TYPES[name]
    if raw.lower() == "none" and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    try:
        if kind == "bool":
            return _BOOL_STRINGS[raw.lower()]
        value = {"int": int, "float": float}.get(kind, str)(raw)
    except (KeyError, ValueError):
        raise ValueError(f"invalid {kind} value for {name}: {raw!r}") from None
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    return value


def load_config_file(path, command: str | None = None) -> ExperimentConfig:
    """Read flat key=value lines into an ExperimentConfig; errors name ``path:lineno``.

    Given a ``command``, a key it does not take (``takes``) is refused.
    """
    settings = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            try:
                if not sep:
                    raise ValueError(f"expected key=value, got {line!r}")
                settings[key] = _parse_value(key, value)
                if command and key not in takes(command):
                    raise ValueError(f"{command} does not read {key}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return ExperimentConfig(**settings)


def expand_seeds(master: int) -> dict[str, int]:
    """Deterministically derive dataset/init/clustering seeds from one master seed."""
    children = np.random.SeedSequence(_at_least("seed", master, 0)).spawn(3)
    names = ("dataset", "init", "clustering")
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# cell type -> its text, for a column whose cells all have exactly that type;
# each equals _fmt on the type (np.float64 subclasses float)
_COLUMN_FORMATS = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__}


def _format_column(cells: tuple) -> list[str] | tuple:
    """The text of each cell of one column, as ``_fmt`` gives it.

    A column of one cell type found in ``_COLUMN_FORMATS`` is formatted
    with that type's own ``__repr__``, and a column of ``str`` is used as
    it is; any other column, mixed types included, goes through ``_fmt``.
    """
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return cells
    return list(map(_COLUMN_FORMATS.get(kind, _fmt), cells))


def write_csv(path, result: RunResult, cfg: ExperimentConfig, settings) -> None:
    """Write the provenance header, the column names and the rows.

    The header holds one ``# key=value`` line per field of ``cfg`` named
    in ``settings``, in field order. Cells are formatted a column at a
    time (``_format_column``). A row whose width differs from
    ``result.columns`` raises ``ValueError`` before the file is opened.
    """
    width, rows = len(result.columns), result.rows
    if not set(map(len, rows)) <= {width}:
        raise ValueError(f"every row must have {width} cells, one per column")
    names = [f.name for f in dataclasses.fields(cfg) if f.name in settings]
    lines = [f"# {name}={getattr(cfg, name)}" for name in names]
    lines.append(",".join(result.columns))
    if width:
        lines += map(",".join, zip(*map(_format_column, zip(*rows))))
    else:
        lines += [""] * len(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


COMMANDS = {}  # command name -> its runner, in the order the CLI lists them
# the settings that train-lines and qlen-demo --pattern train both read
TRAINING = ("learning_rate", "beta", "use_adam", "steps", "seed", "height", "width", "p", "q")
TRAINING += ("noise_std", "batch_size")


def _command(name: str, *settings: str):
    """Register a runner as command ``name`` that reads exactly the fields ``settings``.

    The registered runner keeps them as ``.settings`` and writes its CSV to
    ``cfg.output``, if that is set, with them as the header.
    """

    def register(run):
        @functools.wraps(run)
        def run_and_write(cfg: ExperimentConfig) -> RunResult:
            result = run(cfg)
            if cfg.output:
                write_csv(cfg.output, result, cfg, settings)
            return result

        run_and_write.settings = settings
        COMMANDS[name] = run_and_write
        return run_and_write

    return register


def takes(command: str) -> tuple[str, ...]:
    """The fields whose options ``command`` takes: those it reads, and ``output``."""
    return (*COMMANDS[command].settings, "output")


# ---------------------------------------------------------------------------
# lemma-check


@_command("lemma-check", "beta", "N")
def run_lemma_check(cfg: ExperimentConfig) -> RunResult:
    """Verify every closed form against its independent simulator.

    Grid cells outside a closed form's validity regime are reported as
    skipped, not failed. The exit code is nonzero when any cell fails.
    The closed forms are looked up in this module at call time, so a test
    that replaces ``lemma1_closed`` or ``lemma3_closed`` here sees the
    harness catch the corrupted form.
    """
    rows = []
    rel_errs: dict[str, list[float]] = {}  # check family -> rel_err of each evaluated cell

    def check(name, params, closed, simulated):
        """Add one evaluated cell's row; its rel_err goes to rel_errs[name]."""
        abs_err = abs(closed - simulated)
        denom = max(abs(closed), abs(simulated))
        rel_err = abs_err / denom if denom > 0 else 0.0
        status = "pass" if rel_err <= LEMMA_TOL else "fail"
        rel_errs.setdefault(name, []).append(rel_err)
        rows.append([name, params, *map(_fmt, (closed, simulated, abs_err, rel_err)), status])

    # plain momentum closed form vs direct recurrence
    for beta in (0.5, 0.9, 0.99):
        for N in (3, 5, 9, 20):
            for u, C in ((-1.0, 5.0), (-1.0, 50.0), (1.0, -10.0)):
                spec = SparseSignalSpec(C=C, u=u, N=N)
                sim = simulate_momentum(spec, beta, steps=10 * N)
                for k in range(1, 11):
                    cell = f"beta={beta} N={N} k={k} u={u} C={C}"
                    closed = lemma1_closed(spec, beta, k)
                    check("momentum_closed_form", cell, closed, sim[k * N - 1])

    # saturated-queue damping factor vs the real boost operator
    for L in (4, 5, 8, 17):
        for rho in (2.0, 3.0):
            u, C = -1.0, 7.0
            queue = GradQueue(capacity=L)
            for _ in range(L - 1):
                queue.push([u])
            queue.push([C])
            boosted = delta_rho(np.array([u]), queue.stats(), BoostConfig(rho=rho))
            check("saturated_queue_damping", f"L={L} rho={rho}", lemma2_phi(L, rho), boosted[0] / u)

    # boosted momentum closed form vs the substitution-rule simulator
    for L in (3, 4):
        for N in (5, 9, 20):
            for rho in (2.0, 3.0, 5.0):
                params_nk = f"L={L} N={N} rho={rho}"
                try:
                    _check_regime(L, N)
                except ValueError:
                    for k in range(1, 6):
                        skip = ["", "", "", "", "skip: regime requires L < N-1"]
                        rows.append(["boosted_momentum_closed_form", f"{params_nk} k={k}", *skip])
                    continue
                spec = SparseSignalSpec(C=50.0, u=-1.0, N=N)
                params = LemmaParams(beta=cfg.beta, rho=rho, L=L)
                # one run serves every k, read at t = kN
                sim = simulate_lemma3_momentum(spec, params, steps=5 * N)
                for k in range(1, 6):
                    cell, closed = f"{params_nk} k={k}", lemma3_closed(spec, params, k)
                    check("boosted_momentum_closed_form", cell, closed, sim[k * N - 1])

    n_pass = sum(1 for r in rows if r[-1] == "pass")
    n_fail = sum(1 for r in rows if r[-1] == "fail")
    n_skip = len(rows) - n_pass - n_fail
    bound_note = (
        f"plain |C/u| bound at beta={cfg.beta}, N={cfg.N}: "
        f"{threshold_plain(cfg.N, cfg.beta):.6g} "
        f"(one-step-extended variant {threshold_plain(cfg.N + 1, cfg.beta):.6g})"
    )
    worst = ", ".join(f"{name} {np.max(errs):.3g}" for name, errs in rel_errs.items())
    summary = (
        f"lemma-check: {n_pass} pass, {n_fail} fail, {n_skip} skipped\n"
        f"worst rel_err: {worst}\n{bound_note}"
    )
    return RunResult(
        columns=["check", "params", "closed", "simulated", "abs_err", "rel_err", "status"],
        rows=rows,
        summary=summary,
        exit_code=1 if n_fail else 0,
        extras={"n_pass": n_pass, "n_fail": n_fail, "n_skip": n_skip},
    )


# ---------------------------------------------------------------------------
# momentum-sim


@_command("momentum-sim", "steps", "N", "C", "u", "beta", "rho", "capacity")
def run_momentum_sim(cfg: ExperimentConfig) -> RunResult:
    """Plain vs boosted momentum trajectories on the periodic test signal."""
    spec = SparseSignalSpec(C=cfg.C, u=cfg.u, N=cfg.N)
    _at_least("steps", cfg.steps, spec.N)
    params = LemmaParams(beta=cfg.beta, rho=cfg.rho, L=cfg.capacity)
    plain = simulate_momentum(spec, cfg.beta, cfg.steps)
    boosted = simulate_gq_momentum(spec, params, cfg.steps)
    rows = [
        [t, sparse_signal(t, spec), m_plain, m_boosted]
        for t, m_plain, m_boosted in zip(
            range(1, cfg.steps + 1), plain.tolist(), boosted.tolist()
        )
    ]
    last_period = cfg.steps - (cfg.steps % cfg.N) or cfg.N
    summary = (
        f"momentum-sim: {cfg.steps} steps, N={cfg.N}, rho={cfg.rho}, "
        f"qlen={cfg.capacity}; at t={last_period}: "
        f"plain={plain[last_period - 1]:.6g}, boosted={boosted[last_period - 1]:.6g}"
    )
    return RunResult(columns=["t", "g_t", "m_plain", "m_boosted"], rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# train-lines


def _batch_schedule(n: int, batch_size: int, steps: int, rng: np.random.Generator):
    """Per-step sample indices, drawn once and shared by paired runs.

    A batch smaller than the dataset takes the next ``batch_size`` indices of
    back-to-back permutations, as few as the steps use up.
    """
    if batch_size >= n:
        idx = np.arange(n)
        return [idx] * steps
    order = np.concatenate([rng.permutation(n) for _ in range(-(-steps * batch_size // n))])
    return order[: steps * batch_size].reshape(steps, batch_size)


@np.errstate(over="ignore", invalid="ignore")
def _train_single(model: LineDetectorModel, dataset, groups, schedule, cfg: ExperimentConfig, runs):
    """Training runs in lockstep (SGDM or Adam); each run's per-step (loss, align_f1, align_f2).

    Each run is ``(boost, k, cluster_seed)`` and starts from ``model``
    with its own optimizer state. Its step is one
    ``optimizers.sgdm_step``/``adam_step`` (looked up at call time) on its
    batch-mean gradient. With ``k > 1`` it gets a ``boost`` hook: a step
    that boosts clusters the batch by its features (``kmeans``) and
    aggregates the boosted cluster means (``aggregate``). That step is a
    run's only work of its own: one mean of the stacked gradients gives
    the batch means, one ``template_alignment`` call the live runs' scores.

    ``groups`` is ``(distinct, inverse)`` from ``_train_setup``: the index
    of one sample of each distinct (image bytes, label) group, and each
    sample's group. The distinct pairs' images are indexed once, into the
    ``nn.Windows`` that every forward of the call takes, and the runs'
    parameters sit on a leading run axis (see ``nn``). So the loop makes
    one ``per_sample_grads`` call over the distinct pairs at the initial
    parameters, then one per step at those the step produced. The step's
    eval loss is the mean of its losses gathered at ``inverse``, and the
    next step's batch gathers its gradients and features at rows
    ``inverse[idx]``. Each run gets the bytes it gets alone, those of a
    fresh ``per_sample_grads`` of each batch and of the whole dataset, as
    every per-sample value is row-local (see ``nn``).

    A run fails when its step or hook raises or its eval loss is not
    finite, and cuts the stack at itself: runs ``0 .. live-1`` go on.
    Steps run in index order up to the first that raises, and the eval
    cuts at the first non-finite loss. The lowest-index failure is raised
    once no run is left, or at the end; a later run can never supply it,
    and no history is returned, so the cut changes no result. Of runs
    (plain, boosted), the plain one's error is raised, as when they ran
    one after the other. A divergence error names rho only for a run that
    boosts, and is all a diverging run reports: overflow and invalid-value
    warnings are off for the call.
    """
    boost_cfg = BoostConfig(rho=cfg.rho)
    opt_cfgs = [OptimizerConfig(cfg.learning_rate, cfg.beta, boost_cfg, b) for b, _, _ in runs]
    state_cls = AdamState if cfg.use_adam else SgdmState
    states = [state_cls.init(model.to_vector(), cfg.capacity) for _ in runs]
    step_fn = getattr(optimizers, "adam_step" if cfg.use_adam else "sgdm_step")
    distinct, inverse = groups
    images, labels = Windows(dataset.images[distinct]), dataset.labels[distinct]
    histories = [[] for _ in runs]
    live, error = len(runs), None  # runs 0 .. live-1 stay stacked; what the first cut run raised
    m = LineDetectorModel.from_vector([s.params for s in states])
    _, grads, feats = per_sample_grads(m, images, labels)
    for step, idx in enumerate(schedule):
        # the batch's rows of the distinct pairs' results
        grads, feats = (np.take(a, inverse[idx], axis=-2) for a in (grads, feats))
        for r, (run_grads, run_feats, g) in enumerate(zip(grads, feats, grads.mean(axis=-2))):
            _, k, cluster_seed = runs[r]

            def cluster_boost(stats):  # called, if at all, within this step
                assignment = kmeans(run_feats, k, seed=cluster_seed + step)
                return aggregate(run_grads, assignment, stats, boost_cfg)

            hook = cluster_boost if k > 1 else None
            try:
                step_fn(states[r], g, opt_cfgs[r], boost=hook)
            except Exception as exc:
                live, error = r, exc
                break
        if not live:
            break

        m = LineDetectorModel.from_vector([s.params for s in states[:live]])
        losses, grads, feats = per_sample_grads(m, images, labels)
        losses = np.mean(np.take(losses, inverse, axis=-1), axis=-1).tolist()
        for r, loss in enumerate(losses):
            if not np.isfinite(loss):
                boost = f"rho={cfg.rho}, boost=True" if runs[r][0] else "boost=False"
                live, error = r, RuntimeError(
                    f"divergence: non-finite loss at step {step + 1} "
                    f"(lr={cfg.learning_rate}, {boost})"
                )
                break
        if not live:
            break
        if live < len(losses):  # the cut runs' rows leave the stack
            m = LineDetectorModel.from_vector([s.params for s in states[:live]])
            grads, feats = grads[:live], feats[:live]
        for history, loss, align in zip(histories, losses, template_alignment(m)):
            history.append((loss, align[0], align[1]))
    if error is not None:
        raise error
    return histories


def _train_setup(cfg: ExperimentConfig):
    """Seeds, dataset, sample groups, initial model, batch size and batch schedule of a run.

    The groups are ``(distinct, inverse)``: samples are grouped by their
    image's bytes and their label, ``distinct`` holds the index of each
    group's first sample and ``inverse`` each sample's group. Grouping by
    bytes keeps an image with a ``-0.0`` pixel apart from one with ``0.0``
    there; grouping by label keeps equal images with different labels
    apart, as their losses and gradients differ.
    """
    _at_least("batch_size", cfg.batch_size, 1)
    seeds = expand_seeds(cfg.seed)
    dataset = generate_lines(
        cfg.height, cfg.width, cfg.p, cfg.q, cfg.noise_std, seeds["dataset"]
    )
    pairs = np.column_stack([dataset.images.reshape(len(dataset), -1), dataset.labels])
    keys = pairs.view(np.dtype((np.void, pairs.itemsize * pairs.shape[1])))[:, 0]
    _, distinct, inverse = np.unique(keys, return_index=True, return_inverse=True)
    model = LineDetectorModel.init_random(seeds["init"])
    batch_size = min(cfg.batch_size, len(dataset))
    schedule_rng = np.random.default_rng(seeds["dataset"] + 1)
    schedule = _batch_schedule(len(dataset), batch_size, cfg.steps, schedule_rng)
    return seeds, dataset, (distinct, inverse), model, batch_size, schedule


@_command("train-lines", *TRAINING, "rho", "capacity", "boost_enabled", "k", "optimal_batch")
def run_train_lines(cfg: ExperimentConfig) -> RunResult:
    """Paired training runs (plain SGDM vs boosted) from one initialization.

    Dataset, initial weights and batch order are shared; only the boost
    differs. Both runs advance together in one ``_train_single`` loop.
    Emits per-step loss and filter-template alignment for both.
    """
    _at_least("steps", cfg.steps, 1)
    if cfg.k is not None:
        _at_least("k", cfg.k, 1)
    seeds, dataset, groups, model, batch_size, schedule = _train_setup(cfg)
    k = cfg.k if cfg.k is not None else choose_k(batch_size, cfg.optimal_batch)
    if k > batch_size:
        raise ValueError(f"k={k} exceeds the batch size {batch_size}")

    runs = [(False, 1, 0), (cfg.boost_enabled, k, seeds["clustering"])]
    plain, boosted = _train_single(model, dataset, groups, schedule, cfg, runs)
    rows = [
        [step + 1, pl[0], bo[0], pl[1], bo[1], pl[2], bo[2]]
        for step, (pl, bo) in enumerate(zip(plain, boosted))
    ]
    summary = (
        f"train-lines: {cfg.steps} steps, batch={batch_size}, k={k}, rho={cfg.rho}\n"
        f"final loss: sgdm={plain[-1][0]:.6g} gq={boosted[-1][0]:.6g}\n"
        f"final vertical-filter alignment: sgdm={plain[-1][2]:.4f} gq={boosted[-1][2]:.4f}"
    )
    return RunResult(
        columns=["step", "loss_sgdm", "loss_gq", "align_f1_sgdm", "align_f1_gq",
                 "align_f2_sgdm", "align_f2_gq"],
        rows=rows,
        summary=summary,
        extras={"final_plain": plain[-1], "final_boosted": boosted[-1], "k": k},
    )


# ---------------------------------------------------------------------------
# qlen-demo


def _loss_feed(cfg: ExperimentConfig) -> list[float]:
    n = cfg.steps
    if cfg.pattern == "decreasing":
        return [5.0 - 0.04 * i for i in range(n)]
    if cfg.pattern == "flat":
        return [3.0] * n
    if cfg.pattern == "staged":
        half = n // 2
        down = [5.0 - 0.05 * i for i in range(half)]
        floor = down[-1] if down else 5.0
        return down + [floor] * (n - half)
    if cfg.pattern == "train":
        _, dataset, groups, model, _, schedule = _train_setup(cfg)
        (history,) = _train_single(model, dataset, groups, schedule, cfg, [(False, 1, 0)])
        return [h[0] for h in history]
    raise ValueError(f"unknown pattern {cfg.pattern!r}")


@_command("qlen-demo", *TRAINING, "window", "min_length", "max_length", "pattern")
def run_qlen_demo(cfg: ExperimentConfig) -> RunResult:
    """Feed a loss sequence to the queue-length controller and log its output.

    Only ``pattern="train"`` reads the training block beyond ``steps``.
    """
    _at_least("steps", cfg.steps, 1)
    controller = QueueLengthController(
        window=cfg.window, min_length=cfg.min_length, max_length=cfg.max_length
    )
    rows = []
    for step, loss in enumerate(_loss_feed(cfg), start=1):
        controller.observe(loss)
        rows.append([step, loss, controller.effective_length()])
    lengths = [r[2] for r in rows]
    summary = (
        f"qlen-demo: pattern={cfg.pattern}, window={cfg.window}, "
        f"range=[{cfg.min_length}, {cfg.max_length}]; "
        f"observed lengths {min(lengths)}..{max(lengths)}"
    )
    return RunResult(columns=["step", "loss", "effective_qlen"], rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# zeta-table


_DEFAULT_COMPOSITIONS = [
    (100, 95, 5, 1.0, -0.04),
    (100, 95, 5, 1.0, -1.0 / 19.0),
    (100, 95, 5, 0.5, -1.0),
    (100, 95, 5, 1.0, 0.02),
    (100, 95, 5, 1.0, 0.0),
    (100, 0, 100, 1.0, 0.0),
    (100, 95, 5, 0.1, 2.0),
]


@_command("zeta-table", "batch_size", "p", "q", "eq_q", "eq_p")
def run_zeta_table(cfg: ExperimentConfig) -> RunResult:
    """Batch-composition error cases and the recovery boost magnitude."""
    if (cfg.eq_q is None) != (cfg.eq_p is None):
        raise ValueError("eq_q and eq_p must be given together")
    if cfg.eq_q is not None:
        comps = [(cfg.batch_size, cfg.p, cfg.q, cfg.eq_q, cfg.eq_p)]
    else:
        comps = _DEFAULT_COMPOSITIONS
    rows = []
    notes = []
    for B, p, q, eq_q, eq_p in comps:
        case = BatchCompositionCase(B=B, p=p, q=q, eq_q=eq_q, eq_p=eq_p)
        e_gb, e_k, label = batch_error_case(case)
        try:
            z_out = zeta(case)
        except ValueError as exc:
            z_out = ""
            notes.append(f"B={B} p={p} q={q} eq_q={eq_q} eq_p={eq_p}: zeta blank ({exc})")
        rows.append([B, p, q, eq_q, eq_p, e_gb, e_k, label, z_out])
    summary = f"zeta-table: {len(rows)} compositions"
    if notes:
        summary += "\n" + "\n".join(notes)
    return RunResult(
        columns=["B", "p", "q", "E(g^q)", "E(g^p)", "E(g^b)", "e_k", "case", "zeta"],
        rows=rows,
        summary=summary,
    )
