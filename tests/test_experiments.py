import numpy as np
import pytest

from gradqueue import experiments, lemma1_closed, nn
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

    def test_corrupted_closed_form_fails(self):
        def corrupted(spec, beta, k):
            return lemma1_closed(spec, beta, k) + 0.01

        result = run_lemma_check(ExperimentConfig(), lemma1_fn=corrupted)
        assert result.exit_code == 1
        assert result.extras["n_fail"] > 0

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

    def test_minibatch_schedule_shared(self):
        # smaller batch than dataset still runs deterministically
        cfg = ExperimentConfig(steps=8, p=20, q=5, batch_size=10, k=1)
        r1 = run_train_lines(cfg)
        r2 = run_train_lines(cfg)
        assert r1.rows == r2.rows

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


class TestEvalReuse:
    """A whole-dataset batch takes its forward from the previous step's eval."""

    # criterion-8 configuration (batch = dataset = 100, k = 2), fewer steps
    B100 = dict(steps=50, p=95, q=5, batch_size=100, optimal_batch=50)

    def count_forwards(self, monkeypatch):
        calls = []
        forward = nn.batch_forward

        def counting(model, images):
            calls.append(len(images))
            return forward(model, images)

        monkeypatch.setattr(nn, "batch_forward", counting)
        return calls

    def test_same_rows_as_a_fresh_forward(self, monkeypatch):
        cfg = ExperimentConfig(seed=0, **self.B100)
        reused = run_train_lines(cfg)
        monkeypatch.setattr(experiments, "_whole_dataset", lambda idx, n: False)
        fresh = run_train_lines(cfg)
        assert repr(reused.rows) == repr(fresh.rows)

    def test_one_forward_per_step_on_the_whole_dataset(self, monkeypatch):
        calls = self.count_forwards(monkeypatch)
        run_train_lines(ExperimentConfig(seed=3, **self.B100))
        # per run: the first step's forward, then one eval forward per step
        assert len(calls) == 2 * (1 + 50)
        assert set(calls) == {100}

    def test_minibatches_keep_their_own_forward(self, monkeypatch):
        calls = self.count_forwards(monkeypatch)
        run_train_lines(ExperimentConfig(seed=3, steps=50, p=95, q=5, batch_size=50, k=1))
        assert len(calls) == 2 * (50 + 50)
        assert sorted(set(calls)) == [50, 100]

    def test_whole_dataset_rule(self):
        assert experiments._whole_dataset(np.arange(5), 5)
        assert not experiments._whole_dataset(np.array([0, 1, 2, 4, 3]), 5)
        assert not experiments._whole_dataset(np.arange(4), 5)


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
