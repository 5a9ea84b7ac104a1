"""gradqueue benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop in this one process
for S seconds, checks every operation's output and prints one JSON object
as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. Before each operation the run times the workload's reference
kernel, a fixed piece of numpy work that uses no gradqueue code. Operation
times are reported as costs, multiples of the reference time around each
operation, so that the host's changes of speed cancel; the raw times are
printed above the result line. ``setup_s`` is corrected the same way: the
median of SETUP_REPEATS set-ups, each over the reference time around it,
times the reference kernel's nominal time, so it reads in seconds at the
host speed the bounds were set at.

With ``--trace 1`` the run measures the workload untraced for half the
time, then replays the same operations with every wrapped gradqueue
function recording spans (tracing.py). It reports per-operation layer
metrics from the traced replay and the traced/untraced cost ratio as the
tracing overhead. The replay must reproduce the untraced output digests.
Spans are written to ``.perfbench_out/spans-<workload>.json``.

Numpy and BLAS are pinned to one thread. The run reads and writes only
inside the checkout that holds this file, and exits with code 2 without
a result when the gradqueue sources are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
NO_BYTECODE_CACHE = ROOT / ".perfbench_out" / "no-bytecode-cache"  # never created
DIGEST_OPS = 4  # the output digest covers the first operations of a phase
REFERENCE_L3_MIB = 105  # L3 of the 2-vCPU Xeon host the bounds were set on
TAIL_BEYOND = 10
SLOW_FACTOR = 5  # an operation this many times the median cost counts as slow in the report


def pin_threads() -> None:
    """Pin numpy's BLAS/OpenMP pools to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_gradqueue():
    """Import gradqueue afresh from this checkout's sources.

    The import compiles every module from source, as on a fresh checkout:
    bytecode caches are looked up under a directory that never exists, so
    caches left by other tools in the checkout cannot change the time.
    """
    for name in [n for n in sys.modules if n == "gradqueue" or n.startswith("gradqueue.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = str(NO_BYTECODE_CACHE), True
    try:
        gq = importlib.import_module("gradqueue")
        importlib.import_module("gradqueue.experiments")
        importlib.import_module("gradqueue.cli")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if not Path(gq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"gradqueue was imported from {gq.__file__}, not from {SRC}")
    return gq


def costs(times: list[float], reference_s: list[float], indices) -> list[float]:
    """Each time over the mean of the reference times just before and after it.

    ``indices[k]`` is the position of ``times[k]`` in the sequence of timed
    steps; ``reference_s`` holds one time before each step and one after the last.
    """
    r = reference_s
    return [t / ((r[i] + r[i + 1]) / 2) for i, t in zip(indices, times)]


class Setup:
    """Set-up times, each bracketed by the workload's reference kernel."""

    def __init__(self):
        self.times: list[float] = []
        self.reference_s: list[float] = []  # one before each set-up and one after the last

    def costs(self) -> list[float]:
        return costs(self.times, self.reference_s, range(len(self.times)))

    def seconds(self, w) -> float:
        """Median set-up time in seconds at the workload's nominal reference time.

        The median cost (set-up time over the reference time around it)
        times the reference kernel's nominal time: a set-up time corrected
        for the host's speed, which changes by up to 2x between runs.
        """
        return statistics.median(self.costs()) * w.reference_nominal_s


def setup(workload: str, seed: int):
    """Import gradqueue and build the workload's inputs, once untimed, then SETUP_REPEATS times.

    The untimed set-up loads numpy and the standard modules gradqueue uses.
    Returns the last workload and the timed set-ups.
    """
    from workloads import WORKLOADS

    def build():
        return WORKLOADS[workload](import_gradqueue(), seed)

    def time_reference(w):
        t0 = time.perf_counter()
        w.reference()
        times.reference_s.append(time.perf_counter() - t0)

    times = Setup()
    w = build()
    time_reference(w)
    for _ in range(SETUP_REPEATS):
        w = None  # free the previous inputs before building new ones
        gc.collect()
        t0 = time.perf_counter()
        w = build()
        times.times.append(time.perf_counter() - t0)
        time_reference(w)
    return w, times


class Phase:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.durations: list[float] = []  # seconds per successful operation
        # reference kernel times: one before each operation and one after the last
        self.reference_s: list[float] = []
        self.succeeded: list[int] = []  # indices of the successful operations
        self.failures: list[str] = []
        self.attempted = 0
        self.digest = hashlib.sha256()

    def costs(self) -> list[float]:
        return costs(self.durations, self.reference_s, self.succeeded)


def measure(w, seconds: float | None = None, n_ops: int | None = None, tracer=None) -> Phase:
    """Run operations one after another until `seconds` pass or `n_ops` are done.

    The workload must be freshly started: constructed, or reset with ``start``.
    """
    phase = Phase()
    clock = time.perf_counter
    deadline = clock() + (seconds or 0.0)
    i = 0

    def time_reference():
        t0 = clock()
        w.reference()
        phase.reference_s.append(clock() - t0)

    while (i < n_ops) if n_ops is not None else (i == 0 or clock() < deadline):
        time_reference()
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            result = w.op(i)
            dt = clock() - t0
            buffers = w.check(i, result)
        except Exception as exc:  # each operation is a boundary: count it as failed, go on
            phase.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            phase.durations.append(dt)
            phase.succeeded.append(i)
            if i < DIGEST_OPS:
                for buf in buffers:
                    phase.digest.update(buf)
        i += 1
    time_reference()
    phase.attempted = i
    return phase


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns the value, its percentile and the samples beyond it. With fewer
    than 2 * TAIL_BEYOND samples that percentile would fall below the
    median, so the tail then keeps half the samples beyond it instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 2)
    rank = n - beyond  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, beyond


def end_to_end(w, phase: Phase, setups: Setup) -> dict:
    """The bounded end-to-end metrics as {name: (value, unit)}.

    Operation times are given as costs, in units of the reference kernel's
    time measured just before and just after each operation: the host this
    runs on changes speed by up to 2x for seconds to minutes at a time, and
    the ratio cancels most of that while still scaling with the program's
    own work.
    """
    costs = phase.costs() or [float("nan")]
    return {
        "op_cost_p50": (statistics.median(costs), "ref"),
        "op_cost_tail": (tail(costs)[0], "ref"),
        "setup_s": (setups.seconds(w), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def report_lines(w, phase: Phase, setups: Setup, label: str) -> list[str]:
    """Every end-to-end figure, raw times under the workload's own names, with sample counts."""
    e2e = end_to_end(w, phase, setups)
    throughput_name, prefix = w.names
    d = phase.durations or [float("nan")]
    n = len(phase.durations)
    tail_s, pct, beyond = tail(d)
    costs = phase.costs()
    slow = sum(c > SLOW_FACTOR * statistics.median(costs) for c in costs) if costs else 0
    rows = [
        (throughput_name, w.units_per_op * n / sum(d), "1/s", f"{w.unit}s per second"),
        (f"{prefix}_ms_p50", statistics.median(d) * 1e3, "ms", f"n={n}"),
        (f"{prefix}_ms_tail", tail_s * 1e3, "ms", f"p{pct:.0f}, n={n}, {beyond} samples beyond"),
        ("reference_ms_p50", statistics.median(phase.reference_s) * 1e3, "ms", ""),
        ("op_cost_p50", *e2e["op_cost_p50"], "operation time over the reference time around it"),
        ("op_cost_tail", *e2e["op_cost_tail"], f"p{pct:.0f}"),
        ("setup_s", *e2e["setup_s"], f"median of {len(setups.times)} set-ups, corrected to a "
         f"{w.reference_nominal_s * 1e3:g} ms reference"),
        ("setup_s_raw", statistics.median(setups.times), "s", "uncorrected median"),
        ("peak_rss_mb", *e2e["peak_rss_mb"], ""),
        ("slow_ops", slow, "count", f"of {n} cost over {SLOW_FACTOR}x their median"),
        ("error_rate", len(phase.failures) / max(1, phase.attempted), "ratio",
         f"{len(phase.failures)} of {phase.attempted} failed"),
    ] + [(name, value, unit, "") for name, value, unit in w.report()]
    lines = [f"# {label}"]
    for name, value, unit, note in rows:
        lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    lines.append(f"output_sha256 = {phase.digest.hexdigest()}  (first {DIGEST_OPS} operations)")
    return lines


def read_git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(w, settings: dict) -> dict:
    import numpy as np

    src_digest = hashlib.sha256()
    for path in sorted((SRC / "gradqueue").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    arrays = w.array_bytes()
    return {
        "git_revision": read_git_revision(),
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gradqueue": w.gq.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pinning": {v: os.environ.get(v) for v in THREAD_VARS},
        **settings,
        "array_bytes": arrays,
        "working_set_mib": sum(arrays.values()) / 2**20,
        "reference_l3_mib": REFERENCE_L3_MIB,
    }


def metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_untraced(w, seconds, setups):
    phase = measure(w, seconds=seconds)
    lines = report_lines(w, phase, setups, "end-to-end, untraced")
    return lines, phase, metric_json(end_to_end(w, phase, setups))


def run_traced(w, seconds, setups, spans_path=None):
    """Untraced for half the time, then the same operations traced."""
    from tracing import Tracer

    untraced = measure(w, seconds=seconds / 2)
    untraced_lines = report_lines(w, untraced, setups, "end-to-end, untraced half")
    w.start()  # outside the tracer: re-filling the boost queue is set-up, not an operation
    tracer = Tracer()
    with tracer.installed(w.gq):
        traced = measure(w, n_ops=untraced.attempted, tracer=tracer)
    lines = untraced_lines + report_lines(w, traced, setups, "traced replay")
    n = max(1, len(traced.durations))
    traced_op_s = sum(traced.durations) / n
    untraced_op_s = sum(untraced.durations) / max(1, len(untraced.durations))
    self_sum = tracer.self_time_sum() / n
    hooks_s = tracer.self_times()[0]["trace.hooks"] / n
    lines += [
        f"trace_op_s = {traced_op_s:.6g} s  (mean traced operation)",
        f"untraced_op_s = {untraced_op_s:.6g} s  (mean untraced operation)",
        f"trace_self_s_sum = {self_sum:.6g} s  (self times per operation, "
        f"{hooks_s:.6g} s of them in the tracer's counting hooks)",
    ]
    metrics = tracer.layer_metrics(n)
    try:
        align, loss, n_wins = w.win_fracs()  # over a fixed number of operations, untraced
        if n_wins:
            lines.append(f"win fractions over the first {n_wins} operations")
    except Exception as exc:  # an operation failed while the fractions were completed
        traced.failures.append(f"win fractions: {type(exc).__name__}: {exc}")
        align = loss = float("nan")
    metrics.update(
        {
            "experiments.align_win_frac": (align, "ratio"),
            "experiments.loss_win_frac": (loss, "ratio"),
            "trace.unaccounted_frac": (
                1.0 - self_sum / traced_op_s if traced_op_s else 0.0,
                "ratio",
            ),
            # costs, not seconds, so that a change of host speed between the halves cancels
            "trace.overhead_frac": (
                sum(traced.costs()) / sum(untraced.costs()) - 1.0 if untraced.durations else 0.0,
                "ratio",
            ),
        }
    )
    same = untraced.digest.hexdigest() == traced.digest.hexdigest()
    lines.append(f"trace_digest_match = {same}")
    if spans_path:
        tracer.write(spans_path)
        lines.append(f"spans = {spans_path} ({len(tracer.spans)} spans)")
    return lines, (untraced, traced), metric_json(metrics), same


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path=None):
    """Set up and measure one workload; returns (report lines, result object)."""
    from workloads import CSV_DIR

    w, setups = setup(workload, seed)
    os.makedirs(CSV_DIR, exist_ok=True)
    try:
        if trace:
            lines, phases, metrics, digests_match = run_traced(w, seconds, setups, spans_path)
        else:
            lines, phase, metrics = run_untraced(w, seconds, setups)
            phases, digests_match = (phase,), True
    finally:
        shutil.rmtree(CSV_DIR, ignore_errors=True)
    failures = [f for p in phases for f in p.failures]
    lines += [f"failure: {f}" for f in failures[:5]]
    settings = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    lines.append("provenance = " + json.dumps(provenance(w, settings), sort_keys=True))
    result = {
        "correct": not failures and digests_match,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(failures),
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_threads()
    if not (SRC / "gradqueue" / "__init__.py").is_file():
        print(f"perfbench: no gradqueue sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json") if args.trace else None
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave no caches in the checkout
    sys.exit(main())
