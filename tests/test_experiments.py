import dataclasses
import enum
import math
from itertools import product

import numpy as np
import pytest

from gradqueue import (
    BoostConfig,
    GradQueue,
    LemmaParams,
    SparseSignalSpec,
    aggregate,
    delta_rho,
    experiments,
    kmeans,
    lemma1_closed,
    nn,
    simulate_gq_momentum,
    simulate_lemma3_momentum,
    simulate_momentum,
)
from gradqueue.cli import main
from gradqueue.experiments import (
    ExperimentConfig,
    expand_seeds,
    load_config_file,
    run_lemma_check,
    run_momentum_sim,
    run_qlen_demo,
    run_train_lines,
    run_zeta_table,
    write_csv,
)


def read_csv(path):
    provenance, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            provenance[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return provenance, header, rows


def worst_rel_errs(result):
    """The summary's "worst rel_err: <family> <value>, ..." line as a dict."""
    line = next(x for x in result.summary.splitlines() if x.startswith("worst rel_err: "))
    pairs = line.removeprefix("worst rel_err: ").split(", ")
    return {name: float(value) for name, value in (p.split(" ") for p in pairs)}


class TestSeedsAndConfig:
    def test_seed_expansion_deterministic(self):
        assert expand_seeds(7) == expand_seeds(7)
        assert expand_seeds(7) != expand_seeds(8)
        assert set(expand_seeds(0)) == {"dataset", "init", "clustering"}

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nlearning_rate=0.25\nsteps=42\nboost_enabled=false\nk=3\n"
        )
        cfg = load_config_file(path)
        assert cfg.learning_rate == 0.25
        assert cfg.steps == 42
        assert cfg.boost_enabled is False
        assert cfg.k == 3

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_field=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(path)

    def test_provenance_in_output_header(self, tmp_path):
        out = tmp_path / "sim.csv"
        cfg = ExperimentConfig(steps=12, N=3, output=str(out))
        run_momentum_sim(cfg)
        provenance, header, rows = read_csv(out)
        assert provenance["steps"] == "12"
        assert provenance["rho"] == "3.0"
        assert header == ["t", "g_t", "m_plain", "m_boosted"]
        assert len(rows) == 12


class TestLemmaCheck:
    def test_default_grid_passes(self):
        result = run_lemma_check(ExperimentConfig())
        assert result.exit_code == 0
        assert result.extras["n_fail"] == 0
        assert result.extras["n_pass"] > 300

    def test_regime_cells_skipped(self):
        result = run_lemma_check(ExperimentConfig())
        skips = [r for r in result.rows if r[-1].startswith("skip")]
        assert skips, "expected out-of-regime cells to be reported as skipped"
        assert all("regime" in r[-1] for r in skips)

    def test_corrupted_closed_form_fails(self, monkeypatch):
        def corrupted(spec, beta, k):
            return lemma1_closed(spec, beta, k) + 0.01

        monkeypatch.setattr(experiments, "lemma1_closed", corrupted)
        result = run_lemma_check(ExperimentConfig())
        assert result.exit_code == 1
        assert result.extras["n_fail"] > 0
        assert worst_rel_errs(result)["momentum_closed_form"] > 1e-4

    def test_summary_reports_worst_rel_err_of_each_family(self):
        result = run_lemma_check(ExperimentConfig())
        worst = worst_rel_errs(result)
        assert list(worst) == [
            "momentum_closed_form", "saturated_queue_damping", "boosted_momentum_closed_form",
        ]
        for family, reported in worst.items():
            errs = [float(r[5]) for r in result.rows if r[0] == family and r[5] != ""]
            assert reported == float(f"{max(errs):.3g}")
            assert reported <= 1e-10

    def test_each_boosted_cell_simulated_once(self, monkeypatch):
        calls = []
        simulate = experiments.simulate_lemma3_momentum

        def counting(spec, params, steps):
            calls.append((spec.N, steps))
            return simulate(spec, params, steps)

        monkeypatch.setattr(experiments, "simulate_lemma3_momentum", counting)
        run_lemma_check(ExperimentConfig())
        assert len(calls) == 15  # (L, N, rho) cells with L < N - 1
        assert all(steps == 5 * N for N, steps in calls)

    @pytest.mark.parametrize("L, N", [(3, 5), (3, 9), (3, 20), (4, 9), (4, 20)])
    @pytest.mark.parametrize("rho", [2.0, 3.0, 5.0])
    def test_long_run_read_at_kN_is_the_short_run(self, L, N, rho):
        # a run of 5N steps holds every shorter run's value at its end
        spec, params = SparseSignalSpec(C=50.0, u=-1.0, N=N), LemmaParams(beta=0.9, rho=rho, L=L)
        full = simulate_lemma3_momentum(spec, params, 5 * N)
        for k in range(1, 6):
            short = simulate_lemma3_momentum(spec, params, k * N)
            assert short[-1].tobytes() == full[k * N - 1].tobytes()

    def test_csv_report(self, tmp_path):
        out = tmp_path / "check.csv"
        run_lemma_check(ExperimentConfig(output=str(out)))
        _, header, rows = read_csv(out)
        assert header == [
            "check", "params", "closed", "simulated", "abs_err", "rel_err", "status",
        ]
        assert all(r[-1].split(":")[0] in ("pass", "fail", "skip") for r in rows)


class TestMomentumSim:
    def test_rho_one_columns_equal(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_momentum_sim(ExperimentConfig(rho=1.0, steps=30, N=3, output=str(out)))
        _, header, rows = read_csv(out)
        plain = [r[header.index("m_plain")] for r in rows]
        boosted = [r[header.index("m_boosted")] for r in rows]
        assert plain == boosted

    def test_known_row_value(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_momentum_sim(
            ExperimentConfig(u=-1.0, C=5.0, N=3, beta=0.9, steps=9, output=str(out))
        )
        _, header, rows = read_csv(out)
        t3 = rows[2]
        assert float(t3[header.index("m_plain")]) == pytest.approx(3.29, rel=1e-12)

    def test_band_separates_signs(self):
        # |C/u| between the boosted and plain bounds: boosted momentum
        # follows C at period ends while plain follows u
        cfg = ExperimentConfig(u=-1.0, C=2.0, N=9, beta=0.9, rho=3.0, capacity=3, steps=90)
        result = run_momentum_sim(cfg)
        for t, _, m_plain, m_boosted in result.rows:
            if t % 9 == 0 and t >= 18:
                assert m_plain < 0
                assert m_boosted > 0

    def test_steps_validated(self):
        with pytest.raises(ValueError, match="steps"):
            run_momentum_sim(ExperimentConfig(steps=5, N=9))

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "a.csv"
        run_momentum_sim(ExperimentConfig(steps=40, output=str(out)))
        first = out.read_bytes()
        run_momentum_sim(ExperimentConfig(steps=40, output=str(out)))
        assert out.read_bytes() == first


def lazy_batch_schedule(n, batch_size, steps, rng):
    """The batch schedule drawn one permutation at a time, as a step runs short."""
    if batch_size >= n:
        return [np.arange(n)] * steps
    schedule = []
    order = np.array([], dtype=int)
    for _ in range(steps):
        while order.size < batch_size:
            order = np.concatenate([order, rng.permutation(n)])
        schedule.append(order[:batch_size])
        order = order[batch_size:]
    return schedule


class TestTrainLines:
    def test_degenerate_pair_identical(self, tmp_path):
        out = tmp_path / "train.csv"
        cfg = ExperimentConfig(rho=1.0, k=1, steps=12, p=12, q=4, batch_size=16, output=str(out))
        run_train_lines(cfg)
        _, header, rows = read_csv(out)
        for row in rows:
            assert row[header.index("loss_sgdm")] == row[header.index("loss_gq")]
            assert row[header.index("align_f2_sgdm")] == row[header.index("align_f2_gq")]

    def test_column_contract(self, tmp_path):
        out = tmp_path / "train.csv"
        run_train_lines(
            ExperimentConfig(steps=5, p=8, q=2, batch_size=10, output=str(out))
        )
        _, header, rows = read_csv(out)
        assert header == [
            "step",
            "loss_sgdm",
            "loss_gq",
            "align_f1_sgdm",
            "align_f1_gq",
            "align_f2_sgdm",
            "align_f2_gq",
        ]
        assert len(rows) == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        cfg = ExperimentConfig(learning_rate=50.0, steps=400, p=12, q=4, batch_size=16)
        with pytest.raises(RuntimeError, match="divergence"):
            run_train_lines(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "learning_rate, message",
        [
            # both arms diverge, the boosted one first (at step 83): the plain arm's error
            (50.0, "divergence: non-finite loss at step 106 (lr=50.0, rho=3.0, boost=False)"),
            # only the boosted arm diverges
            (5.0, "divergence: non-finite loss at step 172 (lr=5.0, rho=3.0, boost=True)"),
        ],
        ids=["both-arms", "boosted-arm-only"],
    )
    def test_divergence_message(self, learning_rate, message):
        cfg = ExperimentConfig(learning_rate=learning_rate, steps=400, p=12, q=4, batch_size=16)
        with pytest.raises(RuntimeError) as exc:
            run_train_lines(cfg)
        assert str(exc.value) == message

    def test_minibatch_schedule_shared(self):
        # smaller batch than dataset still runs deterministically
        cfg = ExperimentConfig(steps=8, p=20, q=5, batch_size=10, k=1)
        r1 = run_train_lines(cfg)
        r2 = run_train_lines(cfg)
        assert r1.rows == r2.rows

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 100, 200])
    def test_batch_schedule_draws_as_the_lazy_loop(self, n):
        for batch_size, steps in product((1, 3, 7, 19, 20, 40, 99), (1, 2, 5, 33, 200)):
            ours, oracle = np.random.default_rng(n + steps), np.random.default_rng(n + steps)
            got = experiments._batch_schedule(n, batch_size, steps, ours)
            want = lazy_batch_schedule(n, batch_size, steps, oracle)
            assert len(got) == steps
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert ours.bit_generator.state == oracle.bit_generator.state

    def test_adam_variant(self):
        cfg = ExperimentConfig(
            steps=10, p=12, q=4, batch_size=16, use_adam=True, learning_rate=0.01
        )
        result = run_train_lines(cfg)
        assert len(result.rows) == 10
        # rho=1, k=1 degeneracy holds for the Adam pair too
        cfg_deg = ExperimentConfig(
            steps=10, p=12, q=4, batch_size=16, use_adam=True, rho=1.0, k=1
        )
        for row in run_train_lines(cfg_deg).rows:
            assert row[1] == row[2]


def distinct_pairs(dataset):
    """The number of distinct (image bytes, label) pairs of a dataset."""
    return len({(image.tobytes(), label) for image, label in zip(dataset.images, dataset.labels)})


class TestEvalReuse:
    """One ``per_sample_grads`` call over the distinct pairs serves a step's eval and next batch."""

    # criterion-8 configuration (batch = dataset = 100, k = 2), fewer steps
    B100 = dict(steps=50, p=95, q=5, batch_size=100, optimal_batch=50)
    # paired-train-minibatch shape (12x12, n = 200, B = 20, k = 1), fewer steps
    MINIBATCH = dict(steps=30, height=12, width=12, p=190, q=10, batch_size=20, k=1)
    # 3x3 images of pixels clipped to 0 or 1, half of each label
    MIXED = dict(height=3, width=3, p=50, q=50, noise_std=1e6)

    def count_forwards(self, monkeypatch):
        calls = []
        forward = nn.batch_forward

        def counting(model, images):
            calls.append(len(images))
            return forward(model, images)

        monkeypatch.setattr(nn, "batch_forward", counting)
        return calls

    @pytest.mark.parametrize("shape", ["B100", "MINIBATCH"])
    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    def test_one_forward_per_step_over_the_distinct_images(self, monkeypatch, shape, noise_std):
        cfg = ExperimentConfig(seed=3, noise_std=noise_std, **getattr(self, shape))
        calls = self.count_forwards(monkeypatch)
        run_train_lines(cfg)
        # of both arms at once: one forward at the initial parameters, then one per step
        assert len(calls) == 1 + cfg.steps
        distinct = distinct_pairs(experiments._train_setup(cfg)[1])
        assert set(calls) == {distinct}
        n = cfg.p + cfg.q
        assert distinct == n if noise_std else distinct < n

    @pytest.mark.parametrize("shape", ["B100", "MINIBATCH"])
    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    def test_one_per_sample_grads_call_per_forward(self, monkeypatch, shape, noise_std):
        cfg = ExperimentConfig(seed=4, noise_std=noise_std, **getattr(self, shape))
        calls = count_per_sample_grads(monkeypatch)
        rows = run_train_lines(cfg).rows
        # one call at the initial parameters and one per step, each over the distinct pairs
        assert calls == [distinct_pairs(experiments._train_setup(cfg)[1])] * (1 + cfg.steps)
        # the bytes of a fresh forward of each batch and of the whole dataset
        monkeypatch.setattr(experiments, "_train_single", oracle_train_runs)
        assert repr(rows) == repr(run_train_lines(cfg).rows)

    def count_windows(self, monkeypatch):
        shapes = []
        init = nn.Windows.__init__

        def counting(windows, images):
            shapes.append(np.shape(images))
            init(windows, images)

        monkeypatch.setattr(nn.Windows, "__init__", counting)
        return shapes

    @pytest.mark.parametrize(
        "shape, noise_std", [("B100", 0.0), ("MINIBATCH", 0.0), ("MINIBATCH", 0.1)]
    )
    def test_each_run_indexes_its_stack_once(self, monkeypatch, shape, noise_std):
        # one nn.Windows of the distinct pairs' images per training call, whatever its steps
        settings = dict(seed=2, noise_std=noise_std, **getattr(self, shape))
        cfg = ExperimentConfig(**settings)
        stack = (distinct_pairs(experiments._train_setup(cfg)[1]), cfg.height, cfg.width)
        shapes = self.count_windows(monkeypatch)
        run_train_lines(cfg)
        assert shapes == [stack]
        shapes.clear()
        run_qlen_demo(ExperimentConfig(pattern="train", **settings))
        assert shapes == [stack]

    def test_batch_of_every_image_out_of_order_is_gathered(self):
        # n rows but not the dataset's order: each batch is gathered in its own order
        cfg = ExperimentConfig(seed=5, k=2, **dict(self.B100, steps=12))
        seeds, dataset, groups, model, _, schedule = experiments._train_setup(cfg)
        rng = np.random.default_rng(5)
        schedule = [idx if step % 3 else rng.permutation(idx) for step, idx in enumerate(schedule)]
        args = (model, dataset, groups, schedule, cfg, [(False, 1, 0), (True, 2, seeds["clustering"])])
        assert repr(experiments._train_single(*args)) == repr(oracle_train_runs(*args))

    @pytest.mark.parametrize("settings", [MINIBATCH, MIXED])
    def test_groups_are_the_distinct_pairs(self, settings):
        cfg = ExperimentConfig(seed=1, **settings)
        _, dataset, (distinct, inverse), *_ = experiments._train_setup(cfg)
        images, labels = dataset.images, dataset.labels
        assert images[distinct][inverse].tobytes() == images.tobytes()
        assert labels[distinct][inverse].tobytes() == labels.tobytes()
        assert len({(images[i].tobytes(), labels[i]) for i in distinct}) == len(distinct)

    def test_signed_zeros_are_kept_apart(self, monkeypatch):
        # equal under ==, different bytes: a forward may treat the two differently; each
        # byte group's labels agree, so only the bytes can keep the first four apart
        images = np.zeros((6, 5, 5))
        images[1, 2, 2] = images[3, 2, 2] = -0.0
        images[4:, 2] = 1.0
        dataset = nn.LineDataset(images=images, labels=np.array([0, 0, 0, 0, 1, 1]))
        monkeypatch.setattr(experiments, "generate_lines", lambda *args: dataset)
        cfg = ExperimentConfig(steps=1, height=5, width=5, p=4, q=2, batch_size=6)
        _, _, (distinct, inverse), *_ = experiments._train_setup(cfg)
        assert len(distinct) == 3
        assert inverse[0] == inverse[2] != inverse[1] == inverse[3]
        assert inverse[4] == inverse[5] not in (inverse[0], inverse[1])

    def test_equal_images_with_different_labels_are_kept_apart(self, monkeypatch):
        # 3x3 pixels clipped to 0 or 1: some images occur under both labels
        cfg = ExperimentConfig(steps=20, batch_size=10, k=1, **self.MIXED)
        dataset = experiments._train_setup(cfg)[1]
        labels_of = {}
        for image, label in zip(dataset.images, dataset.labels):
            labels_of.setdefault(image.tobytes(), set()).add(label)
        assert {0, 1} in labels_of.values()
        rows = run_train_lines(cfg).rows
        # the bytes of a fresh forward of each batch and of the whole dataset
        monkeypatch.setattr(experiments, "_train_single", oracle_train_runs)
        assert repr(rows) == repr(run_train_lines(cfg).rows)


def count_per_sample_grads(monkeypatch):
    """The number of samples of each ``per_sample_grads`` call the train loop makes."""
    calls = []
    per_sample_grads = experiments.per_sample_grads

    def counting(model, images, labels):
        calls.append(len(images))
        return per_sample_grads(model, images, labels)

    monkeypatch.setattr(experiments, "per_sample_grads", counting)
    return calls


def oracle_train_single(model, dataset, groups, schedule, cfg, boost, k, cluster_seed):
    """The training loop with its own inline SGDM/Adam update and boost branch.

    This is how ``_train_single`` ran before it called the library
    optimizers, with a fresh forward of each batch and of the whole
    dataset, each indexed into its own ``nn.Windows``; it ignores
    ``groups``. The library path must give the same bytes.
    """
    theta = model.to_vector()
    momentum = np.zeros_like(theta)
    second = np.zeros_like(theta)
    adam_beta2, adam_eps = 0.999, 1e-8
    queue = GradQueue(capacity=cfg.capacity)
    boost_cfg = BoostConfig(rho=cfg.rho)
    history = []
    for step, idx in enumerate(schedule):
        images, labels = dataset.images[idx], dataset.labels[idx]
        m = nn.LineDetectorModel.from_vector(theta)
        _, grads, feats = nn.per_sample_grads(m, nn.Windows(images), labels)
        raw = grads.mean(axis=0)
        if boost and queue.warmed_up:
            stats = queue.stats()
            if k > 1:
                assignment = kmeans(feats, k, seed=cluster_seed + step)
                b = aggregate(grads, assignment, stats, boost_cfg)
            else:
                b = delta_rho(raw, stats, boost_cfg)
        else:
            b = raw
        if cfg.use_adam:
            t = step + 1
            momentum = cfg.beta * momentum + (1.0 - cfg.beta) * b
            second = adam_beta2 * second + (1.0 - adam_beta2) * b * b
            m_hat = momentum / (1.0 - cfg.beta**t)
            v_hat = second / (1.0 - adam_beta2**t)
            theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
        else:
            momentum = cfg.beta * momentum + b
            theta = theta - cfg.learning_rate * momentum
        queue.push(raw)

        m = nn.LineDetectorModel.from_vector(theta)
        loss = nn.batch_loss(m, nn.Windows(dataset.images), dataset.labels)
        align = nn.template_alignment(m)
        history.append((loss, align[0], align[1]))
    return history


def oracle_train_runs(model, dataset, groups, schedule, cfg, runs):
    """``oracle_train_single`` of each ``(boost, k, cluster_seed)`` run, one after the other."""
    return [oracle_train_single(model, dataset, groups, schedule, cfg, *run) for run in runs]


class TestLibraryStepPipeline:
    """train-lines runs through ``optimizers.sgdm_step``/``adam_step``."""

    SMALL = dict(steps=25, p=20, q=5, noise_std=0.1)

    @pytest.mark.parametrize("noise_std", [0.1, 0.0])  # every image distinct; duplicates
    @pytest.mark.parametrize("use_adam", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [25, 10])  # whole dataset, minibatch
    @pytest.mark.parametrize("boost", [True, False])
    def test_rows_match_the_inline_oracle(
        self, monkeypatch, noise_std, use_adam, k, batch_size, boost
    ):
        cfg = ExperimentConfig(
            seed=k + batch_size, k=k, batch_size=batch_size, boost_enabled=boost,
            use_adam=use_adam, learning_rate=0.02 if use_adam else 0.05,
            **dict(self.SMALL, noise_std=noise_std),
        )
        library = run_train_lines(cfg)
        monkeypatch.setattr(experiments, "_train_single", oracle_train_runs)
        oracle = run_train_lines(cfg)
        assert repr(library.rows) == repr(oracle.rows)

    def count_kmeans(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(experiments, "kmeans", counting)
        return calls

    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_kmeans_runs_on_warmed_up_boosted_steps_only(self, monkeypatch, capacity):
        calls = self.count_kmeans(monkeypatch)
        cfg = ExperimentConfig(
            seed=1, k=2, batch_size=25, capacity=capacity, **self.SMALL
        )
        run_train_lines(cfg)
        # warm-up needs min(3, capacity) queued gradients; the plain run never clusters
        warmup = min(3, capacity)
        assert len(calls) == cfg.steps - warmup
        cluster_seed = expand_seeds(1)["clustering"]
        assert calls == [cluster_seed + step for step in range(warmup, cfg.steps)]

    def test_no_kmeans_without_boost(self, monkeypatch):
        calls = self.count_kmeans(monkeypatch)
        run_train_lines(ExperimentConfig(k=2, boost_enabled=False, **self.SMALL))
        assert calls == []

    @pytest.mark.parametrize(
        "field, flag, value",
        [
            ("learning_rate", "--alpha", 0.0),
            ("learning_rate", "--alpha", -0.1),
            ("beta", "--beta", 1.0),
            ("beta", "--beta", -0.1),
        ],
    )
    def test_optimizer_settings_validated(self, field, flag, value, capsys):
        # train-lines builds an OptimizerConfig, so it rejects what that rejects
        with pytest.raises(ValueError):
            run_train_lines(ExperimentConfig(**{field: value}, **self.SMALL))
        assert main(["train-lines", "--steps", "3", flag, str(value)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_learning_rate_refused_up_front(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            run_train_lines(ExperimentConfig(learning_rate=value, **self.SMALL))

    def test_k_above_the_batch_size_refused(self):
        # SMALL has 25 samples; k < 1 and steps < 1 are pinned through the CLI in test_cli.py
        with pytest.raises(ValueError) as exc:
            run_train_lines(ExperimentConfig(k=26, batch_size=25, **self.SMALL))
        assert str(exc.value) == "k=26 exceeds the batch size 25"

    @pytest.mark.parametrize(
        "field, value", [("steps", 2.5), ("batch_size", 2.5), ("k", 2.5), ("steps", 3.0), ("k", math.nan)]
    )
    def test_non_integer_settings_refused_on_entry(self, field, value, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiments, "_train_single", no_training)
        with pytest.raises(ValueError) as exc:
            run_train_lines(ExperimentConfig(**{**self.SMALL, field: value}))
        assert str(exc.value) == f"{field} must be an integer, got {value}"


class TestQlenDemo:
    def test_decreasing_feed_hits_max(self):
        result = run_qlen_demo(ExperimentConfig(pattern="decreasing", steps=40))
        lengths = [r[2] for r in result.rows]
        assert lengths[-1] == 5
        assert max(lengths) == 5

    def test_flat_feed_stays_at_min(self):
        result = run_qlen_demo(ExperimentConfig(pattern="flat", steps=30))
        assert {r[2] for r in result.rows} == {3}

    def test_staged_feed_rises_then_falls(self):
        result = run_qlen_demo(ExperimentConfig(pattern="staged", steps=60))
        lengths = [r[2] for r in result.rows]
        assert all(3 <= length <= 5 for length in lengths)
        assert max(lengths[:30]) == 5
        assert lengths[-1] == 3

    def test_training_feed(self):
        result = run_qlen_demo(
            ExperimentConfig(pattern="train", steps=25, p=12, q=4, batch_size=16)
        )
        assert len(result.rows) == 25
        assert all(3 <= r[2] <= 5 for r in result.rows)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            run_qlen_demo(ExperimentConfig(pattern="zigzag"))

    @pytest.mark.parametrize(
        "pattern, field", [("staged", "steps"), ("train", "steps"), ("train", "batch_size")]
    )
    def test_non_integer_settings_refused(self, pattern, field):
        cfg = ExperimentConfig(pattern=pattern, steps=25, p=12, q=4, batch_size=16)
        with pytest.raises(ValueError) as exc:
            run_qlen_demo(dataclasses.replace(cfg, **{field: 2.5}))
        assert str(exc.value) == f"{field} must be an integer, got 2.5"


class TestZetaTable:
    def test_default_table(self, tmp_path):
        out = tmp_path / "zeta.csv"
        run_zeta_table(ExperimentConfig(output=str(out)))
        _, header, rows = read_csv(out)
        assert header == ["B", "p", "q", "E(g^q)", "E(g^p)", "E(g^b)", "e_k", "case", "zeta"]
        by_case = {r[header.index("case")] for r in rows}
        assert by_case == {"1", "2", "3"}

    def test_worked_composition(self):
        result = run_zeta_table(
            ExperimentConfig(batch_size=100, p=95, q=5, eq_q=1.0, eq_p=-0.04)
        )
        assert len(result.rows) == 1
        assert result.rows[0][-1] == pytest.approx(20.0379, abs=1e-4)

    def test_cancellation_row_zero_mean(self):
        result = run_zeta_table(ExperimentConfig())
        case2 = [r for r in result.rows if r[7] == 2]
        assert case2 and all(r[5] == 0.0 for r in case2)

    def test_all_rare_row(self):
        result = run_zeta_table(ExperimentConfig())
        row = next(r for r in result.rows if r[2] == 100)
        assert row[6] == pytest.approx(0.0, abs=1e-15)  # e_k
        assert row[8] == pytest.approx(1.0)  # zeta

    def test_negative_discriminant_blank(self):
        result = run_zeta_table(ExperimentConfig())
        blanks = [r for r in result.rows if r[-1] == ""]
        assert len(blanks) == 1
        assert "zeta blank" in result.summary


class TestCli:
    def test_lemma_check_exit_zero(self, capsys):
        assert main(["lemma-check"]) == 0
        assert "lemma-check:" in capsys.readouterr().out

    def test_momentum_sim_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["momentum-sim", "--steps", "20", "--N", "5", "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("steps=10\nN=5\n")
        out = tmp_path / "m.csv"
        code = main(
            ["momentum-sim", "--config", str(cfg_file), "--steps", "15", "--output", str(out)]
        )
        assert code == 0
        provenance, _, rows = read_csv(out)
        assert provenance["steps"] == "15"
        assert provenance["N"] == "5"
        assert len(rows) == 15

    def test_invalid_config_exits_nonzero(self, capsys):
        code = main(["momentum-sim", "--steps", "2", "--N", "9"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_qlen_demo_runs(self, capsys):
        assert main(["qlen-demo", "--pattern", "staged", "--steps", "40"]) == 0

    def test_zeta_table_runs(self, capsys):
        assert main(["zeta-table"]) == 0

    def test_train_lines_small_run(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            [
                "train-lines",
                "--steps", "6",
                "--p", "8",
                "--q", "2",
                "--batch-size", "10",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_write_csv_float_formatting(self, tmp_path):
        from gradqueue.experiments import RunResult

        out = tmp_path / "f.csv"
        result = RunResult(columns=["x"], rows=[[0.1 + 0.2]], summary="")
        write_csv(out, result, ExperimentConfig())
        _, _, rows = read_csv(out)
        assert float(rows[0][0]) == 0.1 + 0.2  # repr round-trips exactly


def reference_csv(path, result, cfg):
    """The per-cell writer ``write_csv`` replaced: ``_fmt`` on each cell of each row."""
    lines = [f"# {k}={v}" for k, v in cfg.provenance().items()]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(experiments._fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class Tag(str):
    def __str__(self):
        return "tag:" + self


class Level(enum.IntEnum):
    LOW = 1


ODD_CELLS = [
    0.1 + 0.2, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 123456789.0,
    np.float64(0.1 + 0.2), np.float64(-0.0), np.float64(math.nan), np.float64(1e16),
    np.float32(0.1), np.float16(1.5), np.int64(-7), np.int32(3), np.bool_(True),
    7, -12, 0, 10**20, True, False, None, "", "a b", Tag("x"), Level.LOW,
]


class TestWriteCsv:
    def assert_same_bytes(self, tmp_path, columns, rows, cfg=None):
        cfg = cfg or ExperimentConfig()
        result = experiments.RunResult(columns=columns, rows=rows, summary="")
        write_csv(tmp_path / "got.csv", result, cfg)
        reference_csv(tmp_path / "want.csv", result, cfg)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        return got

    @pytest.mark.parametrize("cell", ODD_CELLS, ids=repr)
    def test_one_type_column_matches_the_cell_writer(self, cell, tmp_path):
        # a column of one type, one beside floats and one beside ints
        rows = [[cell, cell, cell], [cell, 2.5, 3], [cell, cell, cell]]
        self.assert_same_bytes(tmp_path, ["a", "b", "c"], rows)

    def test_mixed_columns_match_the_cell_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [f"c{j}" for j in range(6)]
        rows = [[ODD_CELLS[i] for i in rng.integers(len(ODD_CELLS), size=6)] for _ in range(50)]
        self.assert_same_bytes(tmp_path, columns, rows)

    def test_float_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=300) * 10.0 ** rng.integers(-320, 300, size=300)
        rows = [[float(v), v, 1.0 / 3.0] for v in values]
        text = self.assert_same_bytes(tmp_path, ["py", "np", "third"], rows).decode()
        body = [line.split(",") for line in text.splitlines()[-300:]]
        assert [float(r[0]) for r in body] == values.tolist()  # repr round-trips exactly

    @pytest.mark.parametrize("columns, rows", [(["a", "b"], []), ([], []), ([], [[], []])])
    def test_no_cells(self, columns, rows, tmp_path):
        self.assert_same_bytes(tmp_path, columns, rows)

    @pytest.mark.parametrize(
        "rows", [[[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1]], [[1, 2], []]], ids=str
    )
    def test_ragged_row_raises_before_opening(self, rows, tmp_path):
        out = tmp_path / "ragged.csv"
        result = experiments.RunResult(columns=["a", "b"], rows=rows, summary="")
        with pytest.raises(ValueError, match="every row must have 2 cells"):
            write_csv(out, result, ExperimentConfig())
        assert not out.exists()

    @pytest.mark.parametrize(
        "run, settings",
        [
            (run_lemma_check, {}),
            (run_lemma_check, {"beta": 0.5}),
            (run_momentum_sim, {"steps": 2000, "N": 9, "C": 20.0, "capacity": 4}),
            (run_momentum_sim, {"steps": 60, "N": 5, "rho": 1.0, "capacity": 1}),
            (run_momentum_sim, {"steps": 37}),
            (run_qlen_demo, {"pattern": "decreasing", "steps": 300}),
            (run_qlen_demo, {"pattern": "flat", "steps": 50, "window": 1, "min_length": 1}),
            (run_qlen_demo, {"pattern": "staged", "steps": 2000, "window": 3, "max_length": 7}),
            (run_zeta_table, {}),
            (run_zeta_table, {"eq_q": 1.0, "eq_p": -0.5}),
            (run_zeta_table, {"eq_q": 1.0, "eq_p": 0.0}),
            (run_train_lines, {"steps": 4, "p": 8, "q": 2, "batch_size": 10}),
        ],
    )
    def test_runner_csvs_match_the_cell_writer(self, run, settings, tmp_path):
        cfg = ExperimentConfig(**settings)
        result = run(cfg)
        self.assert_same_bytes(tmp_path, result.columns, result.rows, cfg)

    def test_momentum_rows_are_the_trajectories(self):
        cfg = ExperimentConfig(steps=90, N=9, C=2.0)
        spec = SparseSignalSpec(C=cfg.C, u=cfg.u, N=cfg.N)
        params = LemmaParams(beta=cfg.beta, rho=cfg.rho, L=cfg.capacity)
        rows = run_momentum_sim(cfg).rows
        assert [type(c) for c in rows[0]] == [int, float, float, float]
        assert [r[2] for r in rows] == simulate_momentum(spec, cfg.beta, cfg.steps).tolist()
        assert [r[3] for r in rows] == simulate_gq_momentum(spec, params, cfg.steps).tolist()


class TestLockstep:
    """``_train_single`` over R runs gives each run the bytes it has when trained alone."""

    SMALL = dict(steps=20, p=20, q=5)

    @staticmethod
    def setup(cfg):
        seeds, dataset, groups, model, _, schedule = experiments._train_setup(cfg)
        return seeds["clustering"], (model, dataset, groups, schedule, cfg)

    @pytest.mark.parametrize("noise_std", [0.0, 0.1])  # duplicates; every image distinct
    @pytest.mark.parametrize("use_adam", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [25, 10])  # whole dataset, minibatch
    def test_each_run_is_its_solo_run(self, noise_std, use_adam, k, batch_size):
        cfg = ExperimentConfig(
            seed=k + batch_size, k=k, batch_size=batch_size, noise_std=noise_std,
            use_adam=use_adam, learning_rate=0.02 if use_adam else 0.05, **self.SMALL,
        )
        seed, args = self.setup(cfg)
        runs = [(True, k, seed), (False, 1, 0), (True, k, seed + 7), (True, 1, 0)]
        together = experiments._train_single(*args, runs)
        assert len(together) == len(runs)
        for run, history in zip(runs, together):
            (alone,) = experiments._train_single(*args, [run])
            assert len(alone) == cfg.steps
            assert repr(history) == repr(alone)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lowest_index_failure_is_raised(self):
        # alone, the boosted run diverges at step 83 and the plain run at step 106
        cfg = ExperimentConfig(learning_rate=50.0, steps=400, p=12, q=4, batch_size=16)
        seed, args = self.setup(cfg)
        plain, boosted = (False, 1, 0), (True, 1, seed)  # k = 1 at B = 16, as in train-lines
        for runs, step in (([plain, boosted], 106), ([boosted, plain], 83)):
            with pytest.raises(RuntimeError, match=f"at step {step} "):
                experiments._train_single(*args, runs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_leaves_the_stack(self, monkeypatch):
        # alone, the boosted run diverges at step 172 and the plain run trains on to step 400
        cfg = ExperimentConfig(learning_rate=5.0, steps=400, p=12, q=4, batch_size=16)
        seed, args = self.setup(cfg)
        aligned = []

        def recording_alignment(model):  # one row per run of the stacked model
            aligned.extend(row.tobytes() for row in model.to_vector())
            return nn.template_alignment(model)

        monkeypatch.setattr(experiments, "template_alignment", recording_alignment)
        calls = count_per_sample_grads(monkeypatch)
        experiments._train_single(*args, [(False, 1, 0)])
        solo = aligned.copy()
        aligned.clear()
        calls.clear()
        with pytest.raises(RuntimeError, match="at step 172 "):
            experiments._train_single(*args, [(False, 1, 0), (True, 1, seed), (False, 1, 0)])
        # one call over the distinct pairs at the start and one per step, cut or not
        assert calls == [distinct_pairs(args[1])] * (1 + cfg.steps)
        # per step, the runs align in order: all three for 171 steps; the diverged run cuts the
        # stack at itself, so from then on only the first plain run aligns, with its solo
        # parameters to the end
        assert len(solo) == cfg.steps and len(aligned) == 3 * 171 + (cfg.steps - 171)
        three, one = aligned[: 3 * 171], aligned[3 * 171 :]
        assert three[0::3] == three[2::3] == solo[:171]
        assert one == solo[171:]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "fails",  # run index: the 0-based step at which its hook raises, or "diverges"
        [{0: 50}, {2: "diverges"}, {3: 100}, {1: "diverges", 2: 171}, {1: 171, 2: "diverges"},
         {1: 80, 2: 80}, {1: "diverges", 3: "diverges"}],
        ids=["first-hook", "middle-diverges", "last-hook", "diverges-and-later-hook",
             "hook-and-later-diverges", "two-hooks", "two-diverge"],
    )
    def test_failure_cuts_the_stack(self, monkeypatch, fails):
        # alone, a boosted k = 1 run diverges at step 172 (0-based 171); plain runs and boosted
        # k = 2 runs train on. Healthy runs alternate plain and k = 2, to keep k-means cheap.
        cfg = ExperimentConfig(learning_rate=5.0, steps=180, p=12, q=4, batch_size=16)
        _, args = self.setup(cfg)
        runs = [
            (True, 1, 0) if fails.get(r) == "diverges"
            else (True, 2, 1000 * r) if r in fails or r % 2 else (False, 1, 0)
            for r in range(4)
        ]
        aligned = []

        def kmeans_failing(*a, seed, **kw):  # run r clusters with seed 1000 * r + step
            r, step = divmod(seed, 1000)
            if fails.get(r) == step:
                raise ValueError(f"the hook of run {r} raised at step {step}")
            return kmeans(*a, seed=seed, **kw)

        def recording_alignment(model):  # one row per run of the stacked model
            aligned.extend(row.tobytes() for row in model.to_vector())
            return nn.template_alignment(model)

        def train(runs):  # the aligned rows, and what the call raised
            aligned.clear()
            try:
                experiments._train_single(*args, runs)
            except (ValueError, RuntimeError) as exc:
                return aligned.copy(), exc
            return aligned.copy(), None

        monkeypatch.setattr(experiments, "kmeans", kmeans_failing)
        monkeypatch.setattr(experiments, "template_alignment", recording_alignment)
        alone = [train([run]) for run in runs]
        stops = [171 if fails.get(r) == "diverges" else fails.get(r, cfg.steps) for r in range(4)]
        assert [len(rows) for rows, _ in alone] == stops
        together, error = train(runs)
        # the lowest-index failure is raised
        first = alone[min(fails)][1]
        assert (type(error), str(error)) == (type(first), str(first))
        # run j aligns, with its solo bytes, until the first failure at or before its index:
        # runs before the cut train to the end, the others leave at the failing step
        ends = np.minimum.accumulate(stops)
        assert list(ends[: min(fails)]) == [cfg.steps] * min(fails)
        assert together == [
            rows[t] for t in range(cfg.steps) for (rows, _), end in zip(alone, ends) if t < end
        ]

    def test_failed_run_leaves_and_others_go_on(self, monkeypatch):
        cfg = ExperimentConfig(seed=2, k=2, batch_size=25, **self.SMALL)
        seed, args = self.setup(cfg)

        def kmeans_failing(*a, **kw):
            calls.append(kw["seed"])
            if len(calls) == 3:
                raise ValueError("k-means failed")
            return kmeans(*a, **kw)

        def counting_alignment(model):  # one row per run of the stacked model
            aligned.extend(model.to_vector())
            return nn.template_alignment(model)

        calls, aligned = [], []
        monkeypatch.setattr(experiments, "kmeans", kmeans_failing)
        monkeypatch.setattr(experiments, "template_alignment", counting_alignment)
        with pytest.raises(ValueError, match="k-means failed"):
            experiments._train_single(*args, [(False, 1, 0), (True, 2, seed)])
        # the boosted run clusters from step 3 (warm-up) and fails on its third clustering
        # step, 5; the plain run trains on to the end
        assert calls == [seed + 3, seed + 4, seed + 5]
        assert len(aligned) == cfg.steps + 5
