"""The benchmark's workloads: closed loops over gradqueue's public API.

Each workload builds its inputs from the workload seed when it is
constructed, gets a fresh state from ``start``, and then runs one
operation at a time: the next starts only when the previous returns.
``check`` raises ``OpFailed`` when an operation's output is wrong and
otherwise returns the buffers that the run's output digest covers.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from collections import defaultdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# CSV outputs go to a fixed path relative to the checkout root: the CSV
# header records its own path, so a fixed path keeps the bytes comparable
# between runs and between checkouts.
OUT_DIR = ".perfbench_out"
CSV_DIR = os.path.join(OUT_DIR, "csv")
MAX_SEEDS = 100_000
WIN_OPS = 10  # paired runs the win shares cover


class OpFailed(Exception):
    """An operation returned, but its output failed a check."""


class Workload:
    units_per_op = 1
    unit = "op"  # what one unit of work is, for the report
    names = ("ops_per_s", "op")  # throughput name and latency prefix in the report
    # the reference kernel's median time on the 2-vCPU Xeon host the bounds
    # were set on; set-up times are reported at this reference speed
    reference_nominal_s: float

    def __init__(self, gq, seed: int):
        self.gq = gq
        self.seed = seed

    def start(self) -> None:
        """Fresh state for one measured phase; a phase replays the same inputs."""

    def reference(self) -> None:
        """A fixed kernel, timed before every operation to track the host's speed.

        It uses no gradqueue code, so no change to the program moves it, and
        it stresses what the workload's operations stress (interpreter,
        small-array numpy or memory bandwidth), so it slows down with them
        when the host does.
        """
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        raise NotImplementedError

    def array_bytes(self) -> dict[str, int]:
        raise NotImplementedError

    def report(self) -> list[tuple[str, float, str]]:
        """Workload-specific (name, value, unit) lines for the current phase."""
        return []

    def win_fracs(self) -> tuple[float, float, int]:
        """Shares of paired runs where the boost wins on alignment and on loss, and the runs."""
        return 0.0, 0.0, 0


# criterion-8 configuration of the acceptance suite: batch = dataset = 100, k = 2
B100 = dict(
    learning_rate=0.05, beta=0.9, rho=3.0, capacity=3, steps=200, height=8, width=8,
    p=95, q=5, noise_std=0.0, batch_size=100, optimal_batch=50,
)
# mini-batches of a 200-image 12x12 set (p:q = 19:1), B = n/10 and k = 1
MINIBATCH = dict(B100, height=12, width=12, p=190, q=10, batch_size=20, optimal_batch=20)


class PairedTrain(Workload):
    """One operation is one paired ``run_train_lines`` call on a derived seed."""

    unit = "paired train step"
    names = ("train_steps_per_s", "seed_run")

    def __init__(self, gq, seed: int, config: dict, reference_nominal_s: float):
        super().__init__(gq, seed)
        self.config = config
        self.reference_nominal_s = reference_nominal_s
        self.units_per_op = config["steps"]
        rng = np.random.default_rng(seed)
        self.seeds = rng.integers(0, 2**31 - 1, size=MAX_SEEDS)
        self.csv_path = os.path.join(CSV_DIR, "train-lines.csv")
        n = config["p"] + config["q"]
        self._ref_images = rng.random((n, config["height"], config["width"]))
        self._ref_reps = max(1, 3000 // n)
        self._ref_filters = rng.normal(size=(2, 3, 3))
        self._ref_points = rng.normal(size=(config["batch_size"], 2))
        self.wins: dict[int, tuple[bool, bool]] = {}  # op index: (alignment, loss) won

    def reference(self):
        # conv-like contractions over a dataset-sized batch (the evals are the
        # largest forwards), then Lloyd-like updates on 2-D points
        for _ in range(self._ref_reps):
            windows = sliding_window_view(self._ref_images, (3, 3), axis=(1, 2))
            resp = np.einsum("bijxy,fxy->bfij", windows, self._ref_filters)
            resp.reshape(len(resp), 2, -1).argmax(axis=2)
        points = self._ref_points
        centroids = points[:2].copy()
        for _ in range(200):
            labels = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
            centroids = np.stack([points[labels == j].mean(axis=0) for j in range(2)])

    def op(self, i):
        ex = self.gq.experiments
        cfg = ex.ExperimentConfig(
            seed=int(self.seeds[i % MAX_SEEDS]), output=self.csv_path, **self.config
        )
        return ex.run_train_lines(cfg)

    def check(self, i, result):
        if result.exit_code != 0:
            raise OpFailed(f"train-lines exit code {result.exit_code}")
        losses = np.array([row[1:3] for row in result.rows], dtype=float)
        if not np.isfinite(losses).all():
            raise OpFailed("non-finite loss")
        plain, boosted = result.extras["final_plain"], result.extras["final_boosted"]
        self.wins[i] = (bool(boosted[2] > plain[2]), bool(boosted[0] < plain[0]))
        with open(self.csv_path, "rb") as fh:
            return [fh.read()]

    def win_fracs(self) -> tuple[float, float, int]:
        """Win shares over the first WIN_OPS operations, whatever the time budget.

        Runs, unmeasured, those of them that the measured phases did not reach.
        """
        for i in range(WIN_OPS):
            if i not in self.wins:
                self.check(i, self.op(i))
        wins = [self.wins[i] for i in range(WIN_OPS)]
        return (
            sum(align for align, _ in wins) / WIN_OPS,
            sum(loss for _, loss in wins) / WIN_OPS,
            WIN_OPS,
        )

    def array_bytes(self):
        c = self.config
        n, b = c["p"] + c["q"], c["batch_size"]
        responses = 2 * (c["height"] - 2) * (c["width"] - 2) * 8
        return {
            "dataset_images": n * c["height"] * c["width"] * 8,
            "train_conv_responses": b * responses,
            "eval_conv_responses": n * responses,
            "per_sample_grads": b * 23 * 8,
        }


class BoostStream(Workload):
    """Boosted SGDM and Adam steps over 1e6-dimensional gradients.

    One operation is one ``sgdm_step`` followed by one ``adam_step``. One
    queue of capacity 5 feeds both optimizers, so the stream holds a single
    40 MB window. Gradients cycle through a pool made at set-up: a dense
    component that repeats (the boost damps it) plus rare sparse spikes
    (the boost amplifies them).
    """

    DIM = 1_000_000
    CAPACITY = 5
    POOL = 8
    reference_nominal_s = 0.0113
    units_per_op = 2
    unit = "boosted step"
    names = ("boost_steps_per_s", "boost_step_pair")

    def __init__(self, gq, seed: int):
        super().__init__(gq, seed)
        rng = np.random.default_rng(seed)
        repeating = rng.normal(0.0, 1.0, self.DIM)
        self.pool = np.empty((self.POOL, self.DIM))
        for g in self.pool:
            g[:] = repeating + rng.normal(0.0, 0.1, self.DIM)
            rare = rng.integers(0, self.DIM, size=self.DIM // 200)
            g[rare] += rng.normal(0.0, 10.0, rare.size)
        self.init_params = rng.normal(0.0, 1.0, self.DIM)
        self.cfg = gq.optimizers.OptimizerConfig(learning_rate=1e-3)
        self._ref_out = np.ones(self.DIM)  # written, so the reference pays no page faults
        self.start()

    def start(self):
        opt, dim = self.gq.optimizers, self.DIM
        self.sgdm = self.adam = None  # release the previous phase's state first
        queue = self.gq.core.GradQueue(self.CAPACITY)
        for g in self.pool[-self.CAPACITY:]:
            queue.push(g)
        self.sgdm = opt.SgdmState(
            params=self.init_params.copy(), momentum=np.zeros(dim), queue=queue
        )
        self.adam = opt.AdamState(
            params=self.init_params.copy(),
            first_moment=np.zeros(dim),
            second_moment=np.zeros(dim),
            queue=queue,
        )

    def reference(self):
        # streams over the pool like the queue statistics do, in place
        for g in self.pool[:4]:
            np.multiply(g, 1.0001, out=self._ref_out)
            np.add(self._ref_out, self.init_params, out=self._ref_out)

    def op(self, i):
        opt = self.gq.optimizers
        opt.sgdm_step(self.sgdm, self.pool[(2 * i) % self.POOL], self.cfg)
        opt.adam_step(self.adam, self.pool[(2 * i + 1) % self.POOL], self.cfg)

    def check(self, i, result):
        if not (np.isfinite(self.sgdm.params).all() and np.isfinite(self.adam.params).all()):
            raise OpFailed("non-finite boosted step")
        if i == 0 and not np.allclose(
            self.sgdm.params, self._reference_first_sgdm(), rtol=1e-9, atol=1e-12
        ):
            raise OpFailed("first boosted SGDM step disagrees with the reference")
        return [memoryview(self.sgdm.params), memoryview(self.adam.params)]

    def _reference_first_sgdm(self) -> np.ndarray:
        """Parameters after the first SGDM step, recomputed directly.

        The window is the prefilled queue; every coordinate of it has
        positive variance, so the boost is the clamped z-score scale.
        """
        window = self.pool[-self.CAPACITY:]
        g = self.pool[0]
        z = np.abs(g - window.mean(axis=0)) / window.std(axis=0)
        rho = self.cfg.boost.rho
        momentum = np.clip(z, 1.0 / rho, rho) * g
        return self.init_params - self.cfg.learning_rate * momentum

    def array_bytes(self):
        vec = self.DIM * 8
        return {
            "gradient_pool": self.POOL * vec,
            "queue": self.CAPACITY * vec,
            "stats_window": self.CAPACITY * vec,
            "optimizer_state": 5 * vec,
        }


COMMANDS = ("lemma-check", "momentum-sim", "zeta-table", "qlen-demo")


class OracleCli(Workload):
    """In-process ``gradqueue.cli.main`` over the four oracle subcommands.

    One operation is two cycles of lemma-check, momentum-sim (2000 steps),
    zeta-table and qlen-demo (staged, 2000 steps), each writing its CSV.
    The seed draws the momentum-sim and qlen-demo arguments of 64 cycle
    variants; lemma-check and zeta-table use their built-in grids. Two
    cycles per operation keep the operation's cost from depending on one
    variant's arguments.
    """

    VARIANTS = 64
    reference_nominal_s = 0.0147
    STEPS = 2000
    CYCLES_PER_OP = 2
    units_per_op = CYCLES_PER_OP * len(COMMANDS)
    unit = "CLI command"
    names = ("cli_cmds_per_s", "cli_op")

    def __init__(self, gq, seed: int):
        super().__init__(gq, seed)
        rng = np.random.default_rng(seed)
        self.paths = [  # one set of CSVs per cycle of an operation, so that all are checked
            {c: os.path.join(CSV_DIR, f"{c}-{j}.csv") for c in COMMANDS}
            for j in range(self.CYCLES_PER_OP)
        ]
        steps = str(self.STEPS)
        self.cycles = []
        for _ in range(self.VARIANTS):
            min_length = int(rng.integers(1, 4))
            sim = [
                "momentum-sim", "--steps", steps,
                "--N", str(rng.integers(5, 21)),
                "--C", f"{rng.uniform(2.0, 50.0):.3f}",
                "--rho", str(rng.choice([2.0, 3.0, 5.0])),
                "--capacity", str(rng.integers(3, 6)),
            ]
            qlen = [
                "qlen-demo", "--pattern", "staged", "--steps", steps,
                "--window", str(rng.integers(1, 3)),
                "--min-length", str(min_length),
                "--max-length", str(min_length + int(rng.integers(2, 5))),
            ]
            self.cycles.append([["lemma-check"], sim, ["zeta-table"], qlen])
        self.start()

    def start(self):
        self.command_s: dict[str, list[float]] = defaultdict(list)

    def reference(self):
        # interpreter-bound arithmetic on one-element arrays, like the simulators
        one, half = np.array([1.5]), np.array([0.5])
        acc = 0.0
        for i in range(4500):
            x = one * 0.9 + half
            acc += float(np.abs(x - one)[0]) + i * 0.5

    def op(self, i):
        main, clock = self.gq.cli.main, time.perf_counter
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for j, paths in enumerate(self.paths):
                for argv in self.cycles[(self.CYCLES_PER_OP * i + j) % self.VARIANTS]:
                    command = argv[0]
                    t0 = clock()
                    try:
                        code = main(argv + ["--output", paths[command]])
                    except SystemExit as exc:  # argparse rejected the arguments
                        code = exc.code
                    self.command_s[command].append(clock() - t0)
                    codes.append((command, code))
        return codes, sink.getvalue()

    def check(self, i, result):
        codes, output = result
        for command, code in codes:
            if code != 0:
                raise OpFailed(f"{command} exited {code}: {output.strip()[-200:]}")
        contents = []
        for paths in self.paths:
            for command in COMMANDS:
                with open(paths[command], "rb") as fh:
                    contents.append(fh.read())
                if command == "lemma-check":
                    failed_checks = sum(line.endswith(b",fail") for line in contents[-1].splitlines())
                    if failed_checks:
                        raise OpFailed(f"lemma-check reports {failed_checks} failed checks")
        return contents

    def report(self):
        return [
            (f"{command}_ms_p50", float(np.median(times)) * 1e3, "ms")
            for command, times in self.command_s.items()
        ]

    def array_bytes(self):
        return {"momentum_sim_trajectories": 2 * self.STEPS * 8, "qlen_rows": self.STEPS * 3 * 8}


WORKLOADS = {
    "paired-train-b100": lambda gq, seed: PairedTrain(gq, seed, B100, 0.0270),
    "paired-train-minibatch": lambda gq, seed: PairedTrain(gq, seed, MINIBATCH, 0.0397),
    "boost-stream-1m": BoostStream,
    "oracle-cli": OracleCli,
}
