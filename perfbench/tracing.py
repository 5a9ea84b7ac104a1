"""In-memory span tracing of gradqueue's public functions.

A traced run replaces each wrapped function where its callers look it up
(the module that binds the name, or the class for the ``GradQueue``
methods) with a wrapper that records a span: name, start, end and the
index of the enclosing span. Spans stay in memory until ``write`` dumps
them after the run. A span's self time is its duration minus the time its
child spans cover. The wrappers also count work at the same boundaries
(images forwarded, k-means restarts, bytes stacked by the queue, CSV bytes);
the counting runs in ``trace.hooks`` spans, so it adds to no layer's self
time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

SIMULATORS = ("simulate_momentum", "simulate_gq_momentum", "simulate_lemma3_momentum")
CLOSED_FORMS = ("lemma1_closed", "lemma2_phi", "lemma3_closed")

# span names whose self time is reported per operation
SELF_TIMED = (
    "nn.batch_forward",
    "nn.per_sample_grads",
    "nn.batch_loss",
    "nn.template_alignment",
    "clustering.kmeans",
    "clustering.aggregate",
    "core.GradQueue.stats",
    "core.GradQueue.push",
    "core.delta_rho",
    "optimizers.sgdm_step",
    "optimizers.adam_step",
    "experiments.run_train_lines",
    "experiments.write_csv",
    "analysis.simulate",
    "analysis.closed_form",
    "cli.main",
)
# span names whose call count is reported per operation
CALL_COUNTED = ("nn.batch_forward", "clustering.kmeans", "core.GradQueue.stats", "core.delta_rho")
# work counters reported per operation; conv MACs and stacked bytes are computed from shapes
WORK_COUNTED = (
    ("nn.images_forwarded", "count"),
    ("nn.conv_macs", "count"),
    ("clustering.kmeans.restarts", "count"),
    ("clustering.kmeans.lloyd_iters", "count"),
    ("core.stats_bytes_stacked", "B"),
    ("experiments.csv_bytes", "B"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original value)
        self._last_eval = None  # (parameters, images) of the latest batch_loss call

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def hook(fn, args, kwargs):
            # a span of its own, so that the counting is no layer's self time
            record = ["trace.hooks", clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            try:
                fn(*args, **kwargs)
            finally:
                record[2] = clock()

        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                hook(after, (result, *args), kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrapped = self._wrap(name, original, **hooks)
        setattr(owner, attr, wrapped)
        return original, wrapped

    def install(self, gq) -> None:
        ex, nn = gq.experiments, gq.nn
        self._patch(nn, "batch_forward", "nn.batch_forward", before=self._count_forward)
        self._patch(ex, "per_sample_grads", "nn.per_sample_grads", before=self._check_reuse)
        self._patch(ex, "batch_loss", "nn.batch_loss", after=self._remember_eval)
        self._patch(ex, "template_alignment", "nn.template_alignment")
        kmeans_sig = inspect.signature(ex.kmeans)
        self._patch(
            ex, "kmeans", "clustering.kmeans",
            after=lambda result, *a, **k: self._count_kmeans(kmeans_sig, result, a, k),
        )
        self._patch(ex, "aggregate", "clustering.aggregate")
        for module in (ex, gq.clustering, gq.optimizers, gq.analysis):
            self._patch(module, "delta_rho", "core.delta_rho")
        self._patch(gq.core.GradQueue, "stats", "core.GradQueue.stats", before=self._count_stats)
        self._patch(gq.core.GradQueue, "push", "core.GradQueue.push")
        self._patch(gq.optimizers, "sgdm_step", "optimizers.sgdm_step")
        self._patch(gq.optimizers, "adam_step", "optimizers.adam_step")
        self._patch(ex, "run_train_lines", "experiments.run_train_lines")
        self._patch(ex, "write_csv", "experiments.write_csv", after=self._count_csv)
        for attr in SIMULATORS:
            self._patch(ex, attr, "analysis.simulate")
        wrapped = dict(self._patch(ex, attr, "analysis.closed_form") for attr in CLOSED_FORMS)
        # run_lemma_check bound the closed forms as default arguments when it was defined
        runner = ex.run_lemma_check
        self._patches.append((runner, "__defaults__", runner.__defaults__))
        runner.__defaults__ = tuple(wrapped.get(d, d) for d in runner.__defaults__ or ())
        self._patch(gq.cli, "main", "cli.main")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, gq):
        try:
            self.install(gq)
            yield self
        finally:
            self.restore()

    def begin_op(self) -> None:
        self._last_eval = None

    # -- counters ---------------------------------------------------------

    def _count_forward(self, model, images):
        shape = np.shape(images)
        b, h, w = (1, *shape) if len(shape) == 2 else shape
        self.counts["nn.images_forwarded"] += b
        self.counts["nn.conv_macs"] += b * (h - 2) * (w - 2) * model.conv_filters.size

    def _remember_eval(self, loss, model, images, labels):
        self._last_eval = (model.to_vector(), images)

    def _check_reuse(self, model, images, labels):
        last, self._last_eval = self._last_eval, None
        if (
            last is not None
            and np.array_equal(last[0], model.to_vector())
            and np.array_equal(last[1], images)
        ):
            self.counts["nn.eval_reusable"] += 1

    def _count_kmeans(self, signature, result, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        args = bound.arguments
        restarts = 1 if args["init_centroids"] is not None else max(1, args["n_init"])
        self.counts["clustering.kmeans.restarts"] += restarts
        self.counts["clustering.kmeans.lloyd_iters"] += len(result.objective_history)

    def _count_stats(self, queue):
        rows = min(queue.effective_length, len(queue))
        self.counts["core.stats_bytes_stacked"] += rows * (queue.dim or 0) * 8  # float64

    def _count_csv(self, _returned, path, *args, **kwargs):
        self.counts["experiments.csv_bytes"] += os.path.getsize(path)

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), cover in zip(self.spans, covered):
            totals[name] += end - start - cover
            calls[name] += 1
        return totals, calls

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as {name: (value, unit)}."""
        totals, calls = self.self_times()
        out = {}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = (calls[name] / n_ops, "count")
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = (totals[name] / n_ops, "s")
        for name, unit in WORK_COUNTED:
            out[name] = (self.counts[name] / n_ops, unit)
        forwards = calls["nn.batch_forward"]
        reusable = self.counts["nn.eval_reusable"] / forwards if forwards else 0.0
        out["nn.eval_reusable_frac"] = (reusable, "ratio")
        return out

    def self_time_sum(self) -> float:
        return sum(self.self_times()[0].values())

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
