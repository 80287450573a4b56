"""Benchmark of the dqc1 toolkit: three sweep workloads, each gated on
correctness, with end-to-end metrics and a separate traced run that reports
per-layer call counts and self times.

Run from anywhere; the program is imported from the ``src`` directory next
to this file's parent:

    python3 benchmarks/run.py --workload readout-n9 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
ones.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every gated point passed, 1 when one
failed, and 2 when the program cannot be found or the arguments are wrong.

All workloads are closed loop: one process issues the next sweep after the
previous one returns, and no sweep uses more than two worker processes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# BLAS threads are pinned before numpy loads, here and (by inheritance) in
# every child, so that two pool workers do not oversubscribe two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKERS = 2  # never more than the 2 cores the benchmark is sized for
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120

DEFAULT_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


@dataclass(frozen=True)
class Workload:
    why: str
    payload: dict  # the generated config, less its seed
    reference: str  # the key in REFERENCES of the host reference that matches its work
    via_cli: bool = False


WORKLOADS = {
    "readout-n9": Workload(
        why="dense n=9 readout dominates a trace-vs-shots sweep; entpower is idle",
        payload={
            "experiment": "trace-vs-shots",
            "n": 9,
            "unitary": "haar",
            "alpha": 0.8,
            "shots": [10, 100, 1000, 10**4, 10**5, 10**6],
            "workers": 1,
        },
        reference="blas",
    ),
    "entpower-n5": Workload(
        why="pooled brute-force entangling-power search at n=5 dominates; readout is idle",
        payload={
            "experiment": "entpower-vs-alpha",
            "n": 5,
            "unitary": "haar",
            "alphas": DEFAULT_ALPHAS,
            "samples": 50,
            "workers": WORKERS,
        },
        reference="fork-pool",
    ),
    "verify-cli": Workload(
        why="dqc1 run subprocess over 2001 tiny points: start-up, dispatch and writing dominate",
        payload={
            "experiment": "verify-theorem1",
            "n": 2,
            "unitary": "haar",
            "samples": 2000,
            "workers": WORKERS,
            "format": "csv",
        },
        reference="fresh-pool",
        via_cli=True,
    ),
}

# (name, unit) of every metric, in print order.  BENCHMARK.json lists the
# same names and units; the self-test checks that they agree.
END_TO_END = (
    ("sweep_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics that come straight from a span's call count or self time.
SPAN_METRICS = (
    "circuit.general_final_control.calls",
    "circuit.general_final_control.self_s",
    "circuit.Dqc1Instance.calls",
    "circuit.Dqc1Instance.self_s",
    "linalg.is_unitary.calls",
    "linalg.is_unitary.self_s",
    "circuit.unitary_from_spec.self_s",
    "linalg.haar_unitary.self_s",
    "linalg.partial_trace.self_s",
    "measurement.estimate_trace.calls",
    "measurement.estimate_trace.self_s",
    "entpower.brute_force_entpower.self_s",
    "entpower.decompose_from_T.calls",
    "entpower.decompose_from_T.self_s",
    "linalg.eig_hermitian.calls",
    "linalg.eig_hermitian.self_s",
    "entpower.ensemble_average.calls",
    "entpower.ensemble_average.self_s",
    "entpower.analytic_min_T.self_s",
    "entpower.fourier_ensemble.self_s",
    "linalg.eig_unitary.self_s",
    "experiments.run_experiment.self_s",
    "experiments.point.self_s",
    "experiments.write_results.self_s",
)
PER_LAYER = (
    *((m, "count" if m.endswith(".calls") else "s") for m in SPAN_METRICS),
    ("linalg.kron.bytes", "bytes"),
    ("entpower.ensemble_average.members", "count"),
    ("experiments.points", "count"),
    ("experiments.pool_speedup", "ratio"),
    ("cli.main_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.overhead", "ratio"),
)


# --- correctness gates --------------------------------------------------------
#
# Each gate takes the generated config, the rows a sweep produced as
# (param_name, param_value, measured) triples or None when the sweep raised
# or exited nonzero, and the reference t = Tr U / 2^n computed here from the
# public API.  It returns (points attempted, points failed).  No gate looks
# at the order of random draws, only at closed-form bounds.


def gate_trace_vs_shots(payload, rows, t):
    shots_grid = payload["shots"]
    if rows is None:
        return len(shots_grid), len(shots_grid)
    failed = 0
    for shots in shots_grid:
        got = {name: m for name, value, m in rows if value == shots}
        tol = 6.0 / (payload["alpha"] * math.sqrt(shots))
        ok = (
            set(got) == {"shots_re", "shots_im"}
            and abs(got["shots_re"] - t.real) <= tol
            and abs(got["shots_im"] - t.imag) <= tol
        )
        failed += not ok
    return len(shots_grid), failed


def gate_entpower_vs_alpha(payload, rows, t):
    alphas = payload["alphas"]
    if rows is None:
        return len(alphas), len(alphas)
    closed = math.sqrt(max(0.0, 1.0 - abs(t) ** 2))
    failed = 0
    for a in alphas:
        got = [m for name, value, m in rows if name == "alpha" and value == a]
        failed += not (len(got) == 1 and abs(got[0] - a * closed) <= 1e-9)
    return len(alphas), failed


def gate_verify_theorem1(payload, rows, t):
    points = payload["samples"] + 1
    if rows is None:
        return points, points
    closed = math.sqrt(max(0.0, 1.0 - abs(t) ** 2))
    fourier = [m for name, _, m in rows if name == "fourier"]
    sampled = [m for name, _, m in rows if name == "sample"]
    failed = int(len(fourier) != 1 or abs(fourier[0] - closed) > 1e-9)
    failed += sum(m > closed + 1e-9 for m in sampled)
    failed += abs(len(rows) - points)  # missing or extra rows
    return points, min(points, failed)


GATES = {
    "trace-vs-shots": gate_trace_vs_shots,
    "entpower-vs-alpha": gate_entpower_vs_alpha,
    "verify-theorem1": gate_verify_theorem1,
}


def reference_trace(payload) -> complex:
    """Tr U / 2^n for the unitary the sweep's set-up draws (stream 0)."""
    import numpy as np
    from dqc1 import SeededRng, unitary_from_spec

    u = unitary_from_spec(payload["unitary"], payload["n"], SeededRng(payload["seed"], 0))
    return complex(np.trace(u)) / 2 ** payload["n"]


# --- running one sweep ----------------------------------------------------------


class Case:
    """One workload at one seed: its config files and its gate."""

    def __init__(self, name: str, workload: Workload, seed: int):
        self.name = name
        self.workload = workload
        self.payload = {**workload.payload, "seed": seed}
        self.gate = GATES[self.payload["experiment"]]
        self.reference = reference_trace(self.payload)
        self.attempted = 0
        self.failed = 0
        self.csv_path = RUN_DIR / f"{name}.csv"
        RUN_DIR.mkdir(exist_ok=True)
        self.config_paths = {}
        for workers in (None, 1, WORKERS):
            path = RUN_DIR / f"{name}-{'w' + str(workers) if workers else 'config'}.json"
            payload = dict(self.payload, out=str(self.csv_path))
            if workers is not None:
                payload["workers"] = workers
            path.write_text(json.dumps(payload))
            self.config_paths[workers] = path

    def check(self, rows) -> None:
        attempted, failed = self.gate(self.payload, rows, self.reference)
        self.attempted += attempted
        self.failed += failed

    def sweep(self, workers: int | None = None) -> float:
        """One gated in-process sweep: ``run_experiment`` for API workloads,
        ``cli.main`` for the CLI workload.  Returns its wall time."""
        from dqc1 import cli, experiments

        if self.workload.via_cli:
            self.csv_path.unlink(missing_ok=True)
            argv = ["run", str(self.config_paths[workers])]
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            took = time.perf_counter() - start
            self.check(read_csv(self.csv_path) if code == 0 else None)
            return took
        cfg = experiments.load_config(self.config_paths[workers])
        start = time.perf_counter()
        try:
            rows = experiments.run_experiment(cfg)
        except Exception:  # a raised error counts as failed points
            rows = None
        took = time.perf_counter() - start
        self.check(
            None if rows is None else [(r.param_name, r.param_value, r.measured) for r in rows]
        )
        return took

    def cli_subprocess(self) -> float:
        """One gated ``dqc1 run`` in a fresh interpreter.  Returns its wall time."""
        self.csv_path.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "dqc1.cli", "run", str(self.config_paths[None])]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        took = time.perf_counter() - start
        self.check(read_csv(self.csv_path) if proc.returncode == 0 else None)
        return took

    def main_sweep(self) -> float:
        """The timed unit of the workload, with the workload's own config."""
        return self.cli_subprocess() if self.workload.via_cli else self.sweep()

    def setup_probe(self) -> float:
        """Set-up time measured in a fresh interpreter: import, config load
        and validation, unitary construction, one instance."""
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(self.config_paths[None])],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])


# Host references: fixed work of the same kind a workload does, without
# dqc1.  A reference does not change when the program does, so a sweep's
# time divided by the time of the reference runs just before and after it
# cancels the drift of the shared host's speed and keeps the program's.
# Each workload uses the reference whose work is most like its own:
#
#   blas        dense complex products in this process (the n=9 readout);
#   fork-pool   a two-worker pool forked from this process over small
#               hermitian eigenproblems (the pooled entpower sweep);
#   fresh-pool  a fresh interpreter that imports numpy and runs a two-worker
#               pool over tiny numpy tasks (the `dqc1 run` subprocess).


def blas_reference() -> float:
    import numpy as np

    a = np.random.default_rng(0).standard_normal((512, 512)) * (1 + 1j)
    start = time.perf_counter()
    for _ in range(4):
        a @ a
    return time.perf_counter() - start


def _fork_pool_task(seed: int) -> float:
    import numpy as np

    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(40):
        h = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        total += float(np.linalg.eigvalsh(h + h.conj().T)[0])
    return total


def fork_pool_reference() -> float:
    from concurrent.futures import ProcessPoolExecutor

    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        list(pool.map(_fork_pool_task, range(20)))
    return time.perf_counter() - start


_FRESH_POOL = """
from concurrent.futures import ProcessPoolExecutor
import numpy as np

def task(seed):
    h = np.random.default_rng(seed).standard_normal((8, 8))
    return float(np.linalg.eigvalsh(h + h.T)[0])

if __name__ == "__main__":
    with ProcessPoolExecutor(max_workers=2) as pool:
        list(pool.map(task, range(300)))
"""


def fresh_pool_reference() -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _FRESH_POOL],
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return time.perf_counter() - start


REFERENCES = {
    "blas": blas_reference,
    "fork-pool": fork_pool_reference,
    "fresh-pool": fresh_pool_reference,
}


_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import dqc1
cfg = dqc1.load_config(sys.argv[1])
u = dqc1.unitary_from_spec(cfg.unitary, cfg.n, dqc1.SeededRng(cfg.seed, 0))
dqc1.Dqc1Instance(n=cfg.n, unitary=u, control=dqc1.ControlQubit.from_alpha(cfg.alpha))
print(repr(time.perf_counter() - start))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_csv(path: Path):
    """(param_name, param_value, measured) triples of a results CSV, read
    without the program's own reader; None when the file is missing or
    malformed, which fails every point of the sweep."""
    try:
        with path.open(newline="") as handle:
            records = list(csv.reader(handle))
        return [(rec[1], float(rec[2]), float(rec[3])) for rec in records[1:]]
    except (OSError, IndexError, ValueError):
        return None


# --- measuring ------------------------------------------------------------------


def tail_line(name: str, values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"{name}: median {statistics.median(ordered):.6g} s over {n} samples"
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        line += f", p{pct} {ordered[n - 11]:.6g} s"
    else:
        line += ", no percentile has ten samples beyond it"
    return line


def measure_end_to_end(case: Case, seconds: float, report) -> dict:
    case.main_sweep()  # warm-up: lazy imports, page cache, first fork
    case.setup_probe()
    # Children's peak is read before the first reference run, which would
    # otherwise count; every sweep repeats the warm-up sweep's allocations.
    children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reference = REFERENCES[case.workload.reference]
    reference()
    times, refs, setup = [], [reference()], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(case.main_sweep())
        refs.append(reference())
        setup.append(case.setup_probe())  # spread over the window, like the sweeps
    while len(setup) < SETUP_PROBES:
        setup.append(case.setup_probe())
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children_peak_kb)
    # Each sweep is divided by the mean of the references just before and
    # just after it.
    rel = [2 * t / (before + after) for t, before, after in zip(times, refs, refs[1:])]
    report(tail_line("sweep_s", times))
    report(tail_line(f"{case.workload.reference} reference", refs))
    report(tail_line("setup_s", setup))
    return {
        "sweep_rel": statistics.median(rel),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def layer_metrics(summary: dict, counters: dict) -> dict:
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = summary.get(span, {}).get(field, 0)
    for metric in ("linalg.kron.bytes", "entpower.ensemble_average.members"):
        out[metric] = counters.get(metric, 0)
    out["experiments.points"] = summary.get("experiments.point", {}).get("calls", 0)
    return out


def measure_layers(case: Case, seconds: float, report) -> dict:
    from tracer import Tracer

    case.sweep(WORKERS)  # warm-up
    traced, serial, pooled, spawned, per_sweep, spans = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        with Tracer() as tracer:
            traced.append(case.sweep(1))
        per_sweep.append(layer_metrics(tracer.summary(), tracer.counters))
        spans.append(tracer.spans)
        serial.append(case.sweep(1))
        pooled.append(case.sweep(WORKERS))
        if case.workload.via_cli:
            spawned.append(case.cli_subprocess())

    (RUN_DIR / f"{case.name}-spans.json").write_text(
        json.dumps({"fields": ["name", "parent", "start", "end"], "sweeps": spans})
    )
    metrics = {m: statistics.median(s[m] for s in per_sweep) for m in per_sweep[0]}
    metrics["experiments.pool_speedup"] = statistics.median(serial) / statistics.median(pooled)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(serial)
    if case.workload.via_cli:
        metrics["cli.main_s"] = statistics.median(pooled)
        metrics["cli.startup_s"] = statistics.median(spawned) - metrics["cli.main_s"]
    else:
        metrics["cli.main_s"] = metrics["cli.startup_s"] = 0.0

    report(tail_line("traced serial sweep", traced))
    report(tail_line("untraced serial sweep", serial))
    report(tail_line(f"untraced pooled sweep ({WORKERS} workers)", pooled))
    ranked = sorted(per_sweep[-1].items(), key=lambda kv: -kv[1])
    sweep = traced[-1]
    report(f"self time of the last traced sweep ({sweep:.4g} s):")
    for metric, value in ranked:
        if metric.endswith(".self_s") and value > 0.01 * sweep:
            report(f"  {metric:44s} {value:10.4g} s  {100 * value / sweep:5.1f}%")
    return metrics


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "dqc1").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workloads=WORKLOADS):
    """Measure one workload; returns the result object printed last."""
    import dqc1

    if not Path(dqc1.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"dqc1 was imported from {dqc1.__file__}, not from {SRC}")

    def report(line: str) -> None:
        print(f"# {workload}: {line}", flush=True)

    report("env " + json.dumps(environment(seed), sort_keys=True))
    case = Case(workload, workloads[workload], seed)
    if trace:
        values, units = measure_layers(case, seconds, report), dict(PER_LAYER)
    else:
        values, units = measure_end_to_end(case, seconds, report), dict(END_TO_END)
    report(
        f"check_fail_frac {case.failed / case.attempted:.6g} "
        f"({case.failed} of {case.attempted} points failed their check)"
    )
    for name, unit in units.items():
        report(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": case.failed == 0,
        "attempted": case.attempted,
        "failed": case.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dqc1" / "__init__.py").is_file():
        print(f"error: the dqc1 sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
