"""Tests for the experiment runner: config validation, sweep determinism,
result I/O, and the command-line front end."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dqc1.circuit
import dqc1.cli
import dqc1.entpower
import dqc1.experiments
import dqc1.linalg
from dqc1.circuit import MAX_QUBITS, ControlQubit, Dqc1Instance, unitary_from_spec
from dqc1.cli import main
from dqc1.entpower import (
    _DrawScorer,
    _draw_entries,
    ensemble_average,
    entpower_bounds,
    entpower_standard,
    fourier_ensemble,
)
from dqc1.experiments import (
    DEFAULT_ALPHAS,
    EXPERIMENTS,
    MAX_SAMPLES,
    MAX_STACK_ENTRIES,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    load_config,
    parse_config,
    run_experiment,
    write_results,
)
from dqc1.linalg import (
    SIGMA_X,
    SeededRng,
    matrix_to_json,
    random_density,
    random_right_unitary,
    save_matrix,
)
from dqc1.measurement import MAX_SHOTS
from support import read_results

MINIMAL = {"experiment": "verify-theorem2", "n": 1}


def test_config_minimal_defaults():
    cfg = config_from_dict(dict(MINIMAL))
    assert cfg.seed == 0
    assert cfg.format == "csv"
    assert cfg.alpha == 1.0
    assert cfg.rho == "maximally-mixed"
    assert cfg.alphas == DEFAULT_ALPHAS
    assert cfg.workers is None


@pytest.mark.parametrize(
    "patch,needle",
    [
        ({"foo": 1}, "foo"),
        ({"experiment": "verify-theorem9"}, "experiment"),
        ({"n": 11}, "n"),
        ({"n": 0}, "n"),
        ({"n": 2.0}, "n"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.5}, "alpha"),
        ({"n": True}, "n"),
        ({"alpha": math.nan}, "alpha"),
        ({"unitary": ""}, "unitary"),
        ({"rho": "thermal"}, "rho"),
        ({"shots": [100, -5]}, "shots"),
        ({"alphas": []}, "alphas"),
        ({"alphas": [0.5, 2.0]}, "alphas"),
        ({"samples": 0}, "samples"),
        ({"seed": -1}, "seed"),
        ({"format": "parquet"}, "format"),
        ({"workers": 0}, "workers"),
        ({"out": 7}, "out"),
        ({"rho": 7}, "rho"),
        ({"alphas": [0.5, math.nan]}, "alphas"),
        ({"workers": True}, "workers"),
        ({"rho": "random"}, "rho"),
    ],
)
def test_config_rejects_and_names_field(patch, needle):
    payload = dict(MINIMAL)
    payload.update(patch)
    with pytest.raises(ConfigError, match=needle):
        config_from_dict(payload)


_ONE_OF = (
    "is not one of trace-vs-shots, entpower-vs-alpha, complexity-curve, "
    "verify-theorem1, verify-theorem2, verify-theorem3"
)


@pytest.mark.parametrize(
    "payload,text",
    [
        ([1], "config root must be a JSON object"),
        (dict(MINIMAL, foo=1, bar=2), "unknown config key(s): 'bar', 'foo'"),
        ({"n": 1}, "missing required field 'experiment'"),
        ({"experiment": 7, "n": 1}, f"field 'experiment': 7 {_ONE_OF}"),
        ({"experiment": "bogus"}, f"field 'experiment': 'bogus' {_ONE_OF}"),
        ({"experiment": "verify-theorem2"}, "missing required field 'n'"),
        (dict(MINIMAL, n=2.0), "field 'n': expected an integer, got 2.0"),
        (dict(MINIMAL, n=11), "field 'n': 11 outside the supported range [1, 10]"),
        (dict(MINIMAL, alpha=1.5), "field 'alpha': expected a number in (0, 1], got 1.5"),
        (dict(MINIMAL, unitary=""), "field 'unitary': expected a spec string, got ''"),
        (
            dict(MINIMAL, rho="thermal"),
            "field 'rho': expected 'maximally-mixed', 'random', 'random:<rank>' "
            "or 'file:<path>', got 'thermal'",
        ),
        (
            dict(MINIMAL, shots=[100, -5]),
            "field 'shots': expected a list of integers in [1, 1000000000000000], got [100, -5]",
        ),
        (
            dict(MINIMAL, alphas=[]),
            "field 'alphas': expected a nonempty list of numbers in (0, 1], got []",
        ),
        (dict(MINIMAL, samples=0), "field 'samples': expected an integer in [1, 1000000], got 0"),
        (dict(MINIMAL, seed=-1), "field 'seed': expected a non-negative integer, got -1"),
        (dict(MINIMAL, out=7), "field 'out': expected a path string, got 7"),
        (
            dict(MINIMAL, format="parquet"),
            "field 'format': expected 'csv' or 'json', got 'parquet'",
        ),
        (dict(MINIMAL, workers=0), "field 'workers': expected a positive integer, got 0"),
        (
            dict(MINIMAL, rho="random"),
            "field 'rho': only verify-theorem3 reads a register state, "
            "verify-theorem2 runs on the maximally mixed one; got 'random'",
        ),
        (
            {"experiment": "verify-theorem3", "n": 1, "rho": "random:9"},
            "field 'rho': rank in 'random:9' outside [1, 2] for n=1",
        ),
        (
            {"experiment": "trace-vs-shots", "n": 1},
            "field 'shots': required and nonempty for trace-vs-shots",
        ),
    ],
    ids=[
        "root", "unknown-keys", "missing-experiment", "invalid-experiment",
        "bogus-experiment-without-n", "missing-n", "n-type", "n-range", "alpha", "unitary",
        "rho", "shots", "alphas", "samples", "seed", "out", "format", "workers", "rho-unread",
        "rho-rank", "shots-required",
    ],
)
def test_config_error_text(payload, text):
    # one case per way config_from_dict rejects a payload, text pinned whole
    with pytest.raises(ConfigError) as info:
        config_from_dict(payload)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "base,fields,name",
    [
        # ran 0 rows without an error
        ("verify-theorem1", {"samples": -5}, "samples"),
        # raised a bare KeyError
        ("verify-theorem1", {"experiment": "x"}, "experiment"),
        # failed inside point 0
        ("verify-theorem2", {"alphas": (2.0,)}, "alphas"),
    ],
)
def test_an_invalid_config_cannot_be_constructed(base, fields, name):
    with pytest.raises(ConfigError, match=f"^field '{name}': "):
        ExperimentConfig(**{"experiment": base, "n": 2, **fields})
    with pytest.raises(ConfigError, match=f"^field '{name}': "):
        replace(ExperimentConfig(base, 2), **fields)


def test_every_config_field_is_checked():
    fields = ("experiment", *dqc1.experiments._FIELDS)
    assert fields == tuple(ExperimentConfig.__dataclass_fields__)


def test_config_keeps_numbers_as_floats_and_grids_as_tuples():
    cfg = ExperimentConfig("trace-vs-shots", 1, alpha=1, shots=[10, 20], alphas=[1, 0.5])
    assert (cfg.alpha, cfg.shots, cfg.alphas) == (1.0, (10, 20), (1.0, 0.5))
    assert type(cfg.alpha) is float and all(type(a) is float for a in cfg.alphas)
    assert ExperimentConfig("trace-vs-shots", 1, shots=(10, 20), alphas=(1, 0.5)) == cfg


def test_config_accepts_the_fields_each_experiment_reads():
    for experiment in EXPERIMENTS:
        config_from_dict(
            {"experiment": experiment, "n": 1, "shots": [10], "rho": "maximally-mixed"}
        )


def test_config_missing_required_fields():
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({"n": 1})
    with pytest.raises(ConfigError, match="'n'"):
        config_from_dict({"experiment": "verify-theorem2"})


def test_config_shots_required_for_shot_experiments():
    for experiment in ("trace-vs-shots", "complexity-curve"):
        with pytest.raises(ConfigError, match="shots"):
            config_from_dict({"experiment": experiment, "n": 1})


def test_parse_config_bad_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="object"):
        parse_config("[1, 2]")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, seed=9)))
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.experiment == "verify-theorem2"


# --- sweeps ------------------------------------------------------------------


def trace_config(**overrides):
    payload = {
        "experiment": "trace-vs-shots",
        "n": 2,
        "shots": [100, 1000],
        "seed": 5,
    }
    payload.update(overrides)
    return config_from_dict(payload)


def test_run_trace_vs_shots_shape_and_determinism():
    cfg = trace_config(workers=1)
    rows = run_experiment(cfg)
    assert len(rows) == 4  # two shot counts, real and imaginary row each
    assert [r.param_name for r in rows] == ["shots_re", "shots_im"] * 2
    assert all(r.seed == 5 for r in rows)
    assert all(r.deviation == abs(r.measured - r.reference) for r in rows)
    again = run_experiment(cfg)
    assert rows == again


def test_run_identity_unitary_estimates_one():
    cfg = trace_config(unitary="identity", shots=[400])
    rows = run_experiment(cfg)
    re_row = next(r for r in rows if r.param_name == "shots_re")
    assert re_row.reference == 1.0
    assert re_row.deviation < 0.25  # 5 sigma at 400 shots


def test_run_trace_vs_shots_validates_the_unitary_once(monkeypatch):
    # every unitarity check runs through linalg._check_unitary's one call
    calls = []
    real = dqc1.linalg.is_unitary

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dqc1.linalg, "is_unitary", counting)
    rows = run_experiment(trace_config(shots=[10, 100, 1000, 10000], workers=1))
    assert len(rows) == 8
    assert len(calls) == 1


def test_run_workers_do_not_change_results():
    cfg = trace_config()
    serial = run_experiment(replace(cfg, workers=1))
    pooled = run_experiment(replace(cfg, workers=2))
    assert serial == pooled


def test_run_verify_theorem1_validates_the_unitary_once(monkeypatch):
    # the instance checks U; the reference and the Fourier row trust it
    calls = []
    real = dqc1.linalg.is_unitary

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dqc1.linalg, "is_unitary", counting)
    cfg = config_from_dict(
        {"experiment": "verify-theorem1", "n": 2, "samples": 10, "seed": 7, "workers": 1}
    )
    assert len(run_experiment(cfg)) == 11
    assert len(calls) == 1


def test_run_chunked_pool_does_not_change_results():
    # 61 points on 2 workers go out in ranges of 7
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 2, "samples": 60, "seed": 3})
    assert run_experiment(replace(cfg, workers=1)) == run_experiment(replace(cfg, workers=2))


def theorem1_config(**overrides):
    payload = {"experiment": "verify-theorem1", "n": 2, "samples": 30, "seed": 3}
    payload.update(overrides)
    return config_from_dict(payload)


def per_point_theorem1_rows(cfg):
    """verify-theorem1 one point at a time, each with its own draw scored
    as a one-member stack: the oracle for the stacked ranges."""
    u = unitary_from_spec(cfg.unitary, cfg.n, SeededRng(cfg.seed, 0))
    inst = Dqc1Instance(n=cfg.n, unitary=u, control=ControlQubit.from_alpha(1.0))
    reference = entpower_standard(u)
    fourier = ensemble_average(inst, fourier_ensemble(u))
    rows = [ResultRow.build(cfg.experiment, "fourier", 0, fourier, reference, cfg.seed)]
    score = _DrawScorer(inst)
    for idx in range(1, cfg.samples + 1):
        t_mat = random_right_unitary(inst.dim, 2 * inst.dim, SeededRng(cfg.seed, idx))
        measured = score(t_mat[None], 1.0)[0]  # a fully polarized control's lambda gap
        rows.append(ResultRow.build(cfg.experiment, "sample", idx, measured, reference, cfg.seed))
    return rows


@pytest.mark.parametrize("seed", [1, 5, 13])
@pytest.mark.parametrize("unitary", ["haar", "identity"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_verify_theorem1_stacked_ranges_match_per_point_oracle(n, unitary, seed):
    # 71 or 41 points go out in ranges of 17 or 10, and of 8 at n=5
    cfg = theorem1_config(n=n, unitary=unitary, seed=seed, samples=70 if n <= 3 else 40, workers=1)
    assert run_experiment(cfg) == per_point_theorem1_rows(cfg)


def test_run_verify_theorem1_full_ranges_match_per_point_oracle():
    cfg = theorem1_config(samples=2000, seed=42, workers=1)  # ranges of 500 points
    assert run_experiment(cfg) == per_point_theorem1_rows(cfg)


@pytest.mark.parametrize("samples", [1, 2, 7, 61, 2000])
def test_run_verify_theorem1_uneven_ranges_do_not_change_results(samples):
    serial = run_experiment(theorem1_config(samples=samples, workers=1))
    assert len(serial) == samples + 1
    for workers in (2, 3):
        assert run_experiment(theorem1_config(samples=samples, workers=workers)) == serial


@pytest.mark.parametrize(
    "n,step", [(1, 500), (2, 500), (3, 128), (4, 32), (5, 8), (6, 2), (7, 1), (MAX_QUBITS, 1)]
)
def test_ranges_bound_the_entries_a_range_stacks(n, step):
    # a point stacks d x 2d arrays, d = 2**n; from n=3 on the entry bound,
    # not the quarter share of the points, sets the range length
    ranges = dqc1.experiments._ranges(2001, 1, n)
    assert {hi - lo for lo, hi in ranges[:-1]} == {step}
    assert [lo for lo, _ in ranges] == list(range(0, 2001, step)) and ranges[-1][1] == 2001
    assert _draw_entries(2**n) == 2 * 4**n
    assert step == 1 or step * _draw_entries(2**n) <= MAX_STACK_ENTRIES


def test_run_verify_theorem1_stacks_two_points_per_range_at_n6(monkeypatch):
    # 14 serial points would make ranges of 3; two n=6 draws fill the bound,
    # and the Fourier row takes the first range's other slot
    stacked = []
    real = dqc1.experiments.random_right_unitary

    def recording(rows, cols, streams):
        stacked.append(len(streams))
        return real(rows, cols, streams)

    monkeypatch.setattr(dqc1.experiments, "random_right_unitary", recording)
    cfg = theorem1_config(n=6, samples=13, workers=1)
    assert run_experiment(cfg) == per_point_theorem1_rows(cfg)
    assert stacked == [1] + [2] * 6


@pytest.mark.parametrize("samples,ranges", [(60, 5), (2000, -(-2001 // 500))])
def test_run_verify_theorem1_decomposes_once_per_range(monkeypatch, samples, ranges):
    # 61 points serially make ranges of 15 (five of them), 2001 points at
    # n=2 ranges of 500; the draws are scored once per range, and the
    # register is eigensolved once per sweep, in the sweep's set-up
    import dqc1.entpower

    calls = {"eig_hermitian": 0, "score": 0}
    real_eig = dqc1.entpower.eig_hermitian

    def counting_eig(*args):
        calls["eig_hermitian"] += 1
        return real_eig(*args)

    class CountingScorer(_DrawScorer):
        def __call__(self, t_stack, mix):
            calls["score"] += 1
            return super().__call__(t_stack, mix)

    monkeypatch.setattr(dqc1.entpower, "eig_hermitian", counting_eig)
    monkeypatch.setattr(dqc1.experiments, "_DrawScorer", CountingScorer)
    assert len(run_experiment(theorem1_config(samples=samples, workers=1))) == samples + 1
    assert calls == {"eig_hermitian": 1, "score": ranges}


def test_serial_theorem1_sweep_builds_one_seed_sequence_per_range(monkeypatch):
    # 2001 points at n=2 make five serial ranges; each derives its streams
    # from one SeedSequence, and the set-up draws its Haar unitary from one more
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    assert len(run_experiment(theorem1_config(samples=2000, workers=1))) == 2001
    assert len(built) <= len(dqc1.experiments._ranges(2001, 1, 2)) + 1 == 6


def test_theorem1_range_hands_back_python_floats():
    # float rows pickle about ten times faster than numpy scalars out of a worker
    cfg = theorem1_config(samples=40, workers=1)
    kind = dqc1.experiments._EXPERIMENTS[cfg.experiment]
    rows = dqc1.experiments._eval_point((cfg, kind.setup(cfg), 0, 41))
    assert [row[0] for row in rows] == ["fourier"] + ["sample"] * 40
    assert {type(row[2]) for row in rows[1:]} == {float}


def test_run_verify_theorem1_names_the_range_of_an_unattributed_failure(monkeypatch):
    class BrokenScorer(_DrawScorer):
        def __call__(self, t_stack, mix):
            raise ValueError("no score")

    monkeypatch.setattr(dqc1.experiments, "_DrawScorer", BrokenScorer)
    # 31 points serially: the first range is 0..6, its stack points 1..6
    with pytest.raises(RuntimeError, match=r"failed at points 1\.\.6: no score"):
        run_experiment(theorem1_config(workers=1))


@pytest.fixture
def pools(monkeypatch):
    """The sizes of the pools ``run_experiment`` builds, on a 2-CPU host,
    each one running its tasks in process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(dqc1.experiments, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(dqc1.experiments.os, "cpu_count", lambda: 2)
    return sizes


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sweeps_run_serially_unless_workers_is_set(pools, experiment):
    cfg = config_from_dict(
        {
            "experiment": experiment,
            "n": 1,
            "shots": [10, 100, 1000],
            "alphas": [0.5, 1.0],
            "samples": 3,
            **({"rho": "random"} if experiment == "verify-theorem3" else {}),
        }
    )
    assert cfg.workers is None
    rows = run_experiment(cfg)
    assert pools == []
    assert run_experiment(replace(cfg, workers=2)) == rows  # an explicit count is honored
    assert pools == [2]


def test_pool_never_outgrows_the_cpu_count(pools):
    # a pool sized by workers alone would ask for 53 processes here
    cfg = config_from_dict(
        {"experiment": "verify-theorem3", "n": 1, "samples": 50, "workers": 10**6}
    )
    rows = run_experiment(cfg)
    assert pools == [2]
    assert rows == run_experiment(replace(cfg, workers=1))


def test_serial_entpower_sweep_prepares_its_search_once(monkeypatch):
    # the alpha-free half of the search (the Fourier eigensolve, the scorer's
    # register root, the instance's validation of U) runs once per sweep, not
    # once per alpha, and the Fourier eigensolve trusts the instance's U
    calls = {"_fourier_ensemble": 0, "is_unitary": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, attr in ((dqc1.entpower, "_fourier_ensemble"), (dqc1.linalg, "is_unitary")):
        monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
    cfg = config_from_dict({"experiment": "entpower-vs-alpha", "n": 3, "samples": 20})
    assert len(cfg.alphas) == 10 and cfg.workers is None
    assert len(run_experiment(cfg)) == 10
    assert calls == {"_fourier_ensemble": 1, "is_unitary": 1}


def recording_setup(monkeypatch, experiment, path, error=None):
    """Make ``experiment``'s set-up append its process id to ``path``, then
    raise ``error`` if one is given, on a 2-CPU host."""
    kind = dqc1.experiments._EXPERIMENTS[experiment]

    def setup(cfg):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if error is not None:
            raise error
        return kind.setup(cfg)

    monkeypatch.setitem(dqc1.experiments._EXPERIMENTS, experiment, replace(kind, setup=setup))
    monkeypatch.setattr(dqc1.experiments.os, "cpu_count", lambda: 2)
    return lambda: [int(line) for line in path.read_text().split()]


def memo_is_empty():
    return dqc1.experiments._payload.cache_info().currsize == 0


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_setup_runs_once_per_process_and_never_in_a_pool_parent(monkeypatch, tmp_path, experiment):
    cfg = config_from_dict(
        {
            "experiment": experiment,
            "n": 2,
            "shots": [10, 100, 1000, 10000],
            "alphas": [0.25, 0.5, 0.75, 1.0],
            "samples": 10,
            "seed": 3,
        }
    )
    pids = recording_setup(monkeypatch, experiment, tmp_path / "pids")
    serial = run_experiment(cfg)
    assert pids() == [os.getpid()]  # a serial sweep sets up once, in process
    assert memo_is_empty()
    (tmp_path / "pids").unlink()
    assert run_experiment(replace(cfg, workers=2)) == serial
    pooled = pids()
    assert 1 <= len(pooled) <= 2 and len(set(pooled)) == len(pooled)  # once per worker
    assert os.getpid() not in pooled
    assert memo_is_empty()


@pytest.mark.parametrize("workers", [None, 2])
def test_a_failed_setup_raises_its_own_error_serially_and_in_a_pool(monkeypatch, tmp_path, workers):
    # a failure in what the points share used to be wrapped as "failed at points 0..9"
    pids = recording_setup(
        monkeypatch, "entpower-vs-alpha", tmp_path / "pids", LookupError("no eigenbasis")
    )
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    cfg = config_from_dict({"experiment": "entpower-vs-alpha", "n": 1, "samples": 2})
    with pytest.raises(LookupError) as caught:
        run_experiment(replace(cfg, workers=workers))
    assert type(caught.value) is LookupError and str(caught.value) == "no eigenbasis"
    if workers:
        assert pids() and os.getpid() not in pids()
    else:  # the first range's set-up fails, and no later range runs
        assert pids() == [os.getpid()]
    assert memo_is_empty()


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("experiment", ["entpower-vs-alpha", "verify-theorem1", "trace-vs-shots"])
def test_a_rewritten_unitary_file_is_read_afresh_by_the_next_sweep(tmp_path, experiment, workers):
    # nothing prepared outlives its sweep: the second sweep reads the new matrix
    path = tmp_path / "u.json"
    cfg = config_from_dict(
        {
            "experiment": experiment,
            "n": 2,
            "unitary": f"file:{path}",
            "samples": 6,
            "shots": [10, 1000],
            "alphas": [0.5, 1.0],
            "workers": workers,
        }
    )
    rows = []
    for spec in ("pauli:XY", "diag-phase:0,0.5,1,2"):
        u = unitary_from_spec(spec, 2)
        save_matrix(path, u)
        rows.append(run_experiment(cfg))
        assert rows[-1] == run_experiment(replace(cfg, unitary=spec))
    assert rows[0] != rows[1]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_rows_do_not_depend_on_workers_or_ranges(monkeypatch, experiment, n):
    # 8 to 15 points: serial ranges of 2 or 3 points, pooled ranges of 1
    cfg = config_from_dict(
        {
            "experiment": experiment,
            "n": n,
            "shots": [10, 30, 100, 300, 1000, 3000, 10000, 100000],
            "alphas": [0.1, 0.2, 0.35, 0.5, 0.6, 0.75, 0.9, 1.0],
            "samples": 12,
            "seed": 4,
            "workers": 1,
            **({"rho": "random:2"} if experiment == "verify-theorem3" else {}),
        }
    )
    serial = run_experiment(cfg)
    assert run_experiment(replace(cfg, workers=2)) == serial
    monkeypatch.setattr(dqc1.experiments, "MAX_STACK_ENTRIES", 1)  # one point per range
    assert dqc1.experiments._ranges(8, 1, n) == [(i, i + 1) for i in range(8)]
    assert run_experiment(cfg) == serial


def test_benchmark_tracer_hooks_private_functions_that_exist(monkeypatch):
    # benchmarks/tracer.py gives these private functions spans of their own,
    # looked up by name: a rename would silently zero their timings
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PRIVATE_SPANS
    for module, attr in tracer.PRIVATE_SPANS:
        fn = getattr(importlib.import_module(f"dqc1.{module}"), attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"dqc1.{module}", (module, attr)


def test_run_entpower_vs_alpha_traceless_reference():
    cfg = config_from_dict(
        {
            "experiment": "entpower-vs-alpha",
            "n": 2,
            "unitary": "pauli:XY",
            "alphas": [0.3, 1.0],
            "samples": 3,
            "seed": 2,
            "workers": 1,
        }
    )
    rows = run_experiment(cfg)
    assert [r.reference for r in rows] == [0.3, 1.0]
    for row in rows:
        assert row.deviation < 1e-9  # Fourier candidate saturates exactly


def test_run_entpower_vs_alpha_trivial_circuit_alpha_one_row_at_roundoff():
    # the alpha = 1 row scores the Fourier candidate through the branch
    # kernel; a per-state SVD of the branch states read 7.9e-16 here
    cfg = config_from_dict(
        {
            "experiment": "entpower-vs-alpha",
            "n": 5,
            "unitary": "identity",
            "samples": 50,
            "seed": 42,
            "workers": 1,
        }
    )
    row = run_experiment(cfg)[-1]
    assert row.param_value == 1.0 and row.reference == 0.0
    assert row.measured <= 2e-16


def test_run_verify_theorem1_rows():
    cfg = config_from_dict(
        {
            "experiment": "verify-theorem1",
            "n": 2,
            "samples": 10,
            "seed": 7,
            "workers": 1,
        }
    )
    rows = run_experiment(cfg)
    assert len(rows) == 11
    assert rows[0].param_name == "fourier"
    assert rows[0].deviation < 1e-9
    for row in rows[1:]:
        assert row.param_name == "sample"
        assert row.measured <= row.reference + 1e-9


def test_run_verify_theorem2_rows():
    cfg = config_from_dict(
        {
            "experiment": "verify-theorem2",
            "n": 1,
            "alphas": [0.25, 0.75],
            "samples": 50,
            "seed": 3,
            "workers": 1,
        }
    )
    rows = run_experiment(cfg)
    assert [r.reference for r in rows] == [0.25, 0.75]
    for row in rows:
        assert row.deviation < 1e-9


def test_run_verify_theorem3_rows():
    cfg = config_from_dict(
        {
            "experiment": "verify-theorem3",
            "n": 1,
            "alpha": 0.6,
            "rho": "random",
            "samples": 5,
            "seed": 11,
            "workers": 1,
        }
    )
    rows = run_experiment(cfg)
    assert len(rows) == 8
    sampled = [r for r in rows if r.param_name == "sample"]
    assert len(sampled) == 5
    for row in sampled:  # measured = lower bound, reference = upper bound
        assert row.measured <= row.reference + 1e-9
    anchors = {r.param_name: r for r in rows if r.param_name.startswith("lambda_")}
    assert set(anchors) == {"lambda_pure", "lambda_alpha", "lambda_mixed"}
    assert anchors["lambda_pure"].deviation < 1e-12
    assert anchors["lambda_alpha"].reference == 0.6
    assert anchors["lambda_mixed"].measured == 0.0


def test_run_rho_file_register(tmp_path):
    rho = np.diag([0.7, 0.3]).astype(np.complex128)
    path = tmp_path / "rho.json"
    save_matrix(path, rho)
    cfg = config_from_dict(
        {
            "experiment": "verify-theorem3",
            "n": 1,
            "rho": f"file:{path}",
            "samples": 2,
            "seed": 1,
            "workers": 1,
        }
    )
    rows = run_experiment(cfg)
    assert all(r.measured <= r.reference + 1e-9 for r in rows if r.param_name == "sample")


def broken_bounds(u, rho):
    raise ValueError("no bounds")


def test_run_failure_names_the_point(monkeypatch):
    # a failure at evaluation time says which sweep point died
    monkeypatch.setattr(dqc1.experiments, "_bounds", broken_bounds)
    cfg = config_from_dict(
        {"experiment": "verify-theorem3", "n": 1, "samples": 2, "seed": 1, "workers": 1}
    )
    with pytest.raises(RuntimeError, match="point 0"):
        run_experiment(cfg)


# --- result I/O --------------------------------------------------------------


def sample_rows():
    return [
        ResultRow.build("verify-theorem2", "alpha", 0.1, 0.1 - 3e-17, 0.1, 4),
        ResultRow.build("verify-theorem2", "alpha", 1.0 / 3.0, 0.3333333333333333, 1.0 / 3.0, 4),
    ]


def test_write_read_csv_is_float_exact(tmp_path):
    rows = sample_rows()
    path = tmp_path / "out.csv"
    write_results(rows, path, "csv")
    text = path.read_text()
    assert text.splitlines()[0] == (
        "experiment,param_name,param_value,measured,reference,deviation,seed"
    )
    assert read_results(path) == rows


def test_write_read_json_is_float_exact(tmp_path):
    rows = sample_rows()
    path = tmp_path / "out.json"
    write_results(rows, path, "json")
    assert read_results(path) == rows
    payload = json.loads(path.read_text())
    assert payload[0] == asdict(rows[0])


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 1e16]
)
def test_csv_rows_keep_their_per_field_format(tmp_path, x):
    # the one-format writer against the per-field format(float(x), ".17g")
    # it replaced, on the special values too
    rows = [
        ResultRow("verify-theorem1", "sample", x, -x, x / 3, abs(x), 2**128),
        ResultRow.build("trace-vs-shots", "shots_y", 10**6, x, 0.5, 7),
    ]
    write_results(rows, tmp_path / "out.csv", "csv")
    lines = [",".join(dqc1.experiments._HEADER)]
    for r in rows:
        reals = [format(float(v), ".17g") for v in (r.param_value, r.measured, r.reference, r.deviation)]
        lines.append(",".join((r.experiment, r.param_name, *reals, str(r.seed))))
    assert (tmp_path / "out.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_empty_rows_keeps_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], path, "csv")
    assert path.read_text().strip() == (
        "experiment,param_name,param_value,measured,reference,deviation,seed"
    )
    assert read_results(path) == []


def test_write_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_results([], tmp_path / "x.bin", "parquet")


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results(path)


# --- command line ------------------------------------------------------------


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def no_points(*args):
    """Stand-in for the sweep's point evaluator, in sweeps that must be
    rejected before their first point."""
    raise AssertionError("a sweep point ran")


def test_cli_run_writes_results(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "verify-theorem2",
            "n": 1,
            "alphas": [0.5],
            "samples": 20,
            "seed": 1,
            "workers": 1,
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "wrote 1 rows" in capsys.readouterr().out
    rows = read_results(out)
    assert rows[0].reference == 0.5


def test_cli_run_flag_overrides(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "trace-vs-shots",
            "n": 1,
            "shots": [50],
            "seed": 0,
            "workers": 1,
        },
    )
    out = tmp_path / "o.json"
    code = main(
        [
            "run",
            str(cfg),
            "--seed",
            "9",
            "--shots",
            "10,20",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_results(out)
    assert len(rows) == 4
    assert all(r.seed == 9 for r in rows)


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "verify-theorem2", "n": 1, "foo": 1})
    assert main(["run", str(cfg)]) == 2
    assert "foo" in capsys.readouterr().err


def test_cli_run_rejects_non_finite_alpha(tmp_path, capsys):
    # Python's JSON reader accepts the NaN literal, so the config must not
    path = tmp_path / "nan.json"
    path.write_text(
        '{"experiment": "verify-theorem3", "n": 1, "alpha": NaN, "samples": 2, "workers": 1}'
    )
    out = tmp_path / "rows.csv"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "'alpha'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,patch,needle",
    [
        ("trace-vs-shots", {"rho": "file:/nonexistent.json"}, "rho"),
        ("trace-vs-shots", {"rho": "random:1"}, "rho"),
        ("complexity-curve", {"rho": "random"}, "rho"),
        ("entpower-vs-alpha", {"rho": "random"}, "rho"),
        ("verify-theorem1", {"rho": "random"}, "rho"),
    ],
)
def test_cli_run_rejects_fields_the_experiment_does_not_read(
    tmp_path, capsys, experiment, patch, needle
):
    payload = {"experiment": experiment, "n": 1, "samples": 2, "workers": 1, **patch}
    if experiment in ("trace-vs-shots", "complexity-curve"):
        payload["shots"] = [10]
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    assert f"'{needle}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({"experiment": "verify-theorem3", "rho": "random:0"}, "rho"),
        ({"experiment": "verify-theorem3", "rho": "random:9"}, "rho"),
        ({"experiment": "verify-theorem3", "rho": "random:\u00b2"}, "rho"),
        ({"experiment": "verify-theorem3", "rho": "random:" + "9" * 5000}, "rho"),
        ({"experiment": "verify-theorem3", "rho": "random:" + "0" * 5000 + "1"}, "rho"),
        ({"experiment": "verify-theorem3", "alpha": 10**400}, "alpha"),
        ({"experiment": "verify-theorem2", "alphas": [0.5, 10**400]}, "alphas"),
        ({"experiment": "trace-vs-shots", "shots": [10, 10**30]}, "shots"),
        ({"experiment": "complexity-curve", "shots": [MAX_SHOTS + 1]}, "shots"),
        ({"experiment": "verify-theorem1", "samples": 10**12}, "samples"),
        ({"experiment": "entpower-vs-alpha", "samples": MAX_SAMPLES + 1}, "samples"),
        ({"experiment": "verify-theorem2", "samples": 20000, "out": "missing/x.csv"}, "out"),
    ],
    ids=[
        "rank-0",
        "rank-9",
        "rank-superscript",
        "rank-past-int-digit-limit",
        "rank-with-leading-zeros-past-int-digit-limit",
        "huge-alpha",
        "huge-in-alphas",
        "huge-shots",
        "shots-over-max",
        "huge-samples",
        "samples-over-max",
        "out-in-missing-directory",
    ],
)
def test_cli_run_rejects_out_of_range_values(tmp_path, capsys, monkeypatch, payload, needle):
    # each used to fail inside point 0 or overflow in float(), exiting 1; an
    # output directory that does not exist was named only after the sweep
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    payload = {"n": 1, "samples": 2, "workers": 1, **payload}
    out = tmp_path / payload.pop("out", "rows.csv")
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    assert f"field '{needle}'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_a_directory_as_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the sweep used to run to the end, and only writing failed
    calls = []
    monkeypatch.setattr(dqc1.cli, "run_experiment", lambda cfg: calls.append(cfg) or [])
    cfg = write_config(tmp_path, {"experiment": "verify-theorem1", "n": 1, "samples": 2})
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "field 'out'" in err and "is a directory" in err
    assert calls == []


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"experiment": "verify-theorem3", "rho": "random:" + "9" * 5000}, "rho"),
        ({"experiment": "verify-theorem3", "rho": "x" * 5000}, "rho"),
        ({"experiment": "verify-theorem1", "rho": "file:" + "x" * 5000}, "rho"),
        ({"experiment": "verify-theorem1", "unitary": "x" * 5000}, "unitary"),
        ({"experiment": "verify-theorem1", "unitary": "pauli:" + "X" * 5000}, "unitary"),
        ({"experiment": "verify-theorem1", "unitary": "diag-phase:" + "0," * 2500}, "unitary"),
        ({"experiment": "x" * 5000}, "experiment"),
    ],
    ids=[
        "rho-rank",
        "rho-spec",
        "rho-unread",
        "unitary",
        "unitary-pauli",
        "unitary-diag-phase",
        "experiment",
    ],
)
def test_cli_run_error_echoes_a_long_value_in_one_short_line(tmp_path, capsys, payload, field):
    # every value here is at least 5000 characters, and was echoed whole
    payload = {"n": 1, "samples": 2, "workers": 1, **payload}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: field '{field}': ") and len(line) < 200


@pytest.mark.parametrize(
    "experiment,field", [("verify-theorem3", "rho"), ("verify-theorem1", "unitary")]
)
def test_cli_run_rejects_a_non_finite_matrix_file(tmp_path, capsys, experiment, field):
    matrix = tmp_path / "m.json"
    written = matrix_to_json(np.eye(2))
    written["re"][0][0] = float("nan")  # save_matrix refuses a non-finite matrix
    matrix.write_text(json.dumps(written))
    payload = {"experiment": experiment, "n": 1, field: f"file:{matrix}", "samples": 2}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"field '{field}'" in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,field", [("verify-theorem3", "rho"), ("verify-theorem1", "unitary")]
)
def test_cli_run_rejects_a_missing_matrix_file(tmp_path, capsys, experiment, field):
    missing = tmp_path / "absent.json"
    payload = {"experiment": experiment, "n": 1, field: f"file:{missing}", "samples": 2}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"field '{field}'" in err and "absent.json" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"experiment": "complexity-curve", "unitary": "identity", "shots": [10, 100]}, "unitary"),
        ({"experiment": "verify-theorem3", "rho": "file:absent.json"}, "rho"),
    ],
    ids=["complexity-identity", "theorem3-missing-register"],
)
def test_cli_run_rejects_a_pooled_sweep_in_its_workers_set_up(
    tmp_path, capsys, monkeypatch, payload, field
):
    # a pool's workers set the sweep up, so its error comes from them: still
    # before any point, with exit 2 and the serial run's line
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    monkeypatch.setattr(dqc1.experiments.os, "cpu_count", lambda: 2)
    monkeypatch.chdir(tmp_path)  # where the workers look for the register file
    out = tmp_path / "rows.csv"
    errs = []
    for workers in (1, 2):
        cfg = write_config(tmp_path, {"n": 1, "samples": 2, "workers": workers, **payload})
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1] and errs[0].startswith(f"error: field '{field}': ")


@pytest.mark.parametrize(
    "payload,key",
    [
        ({"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, "re"),
        ({"dim": "2", "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, "dim"),
    ],
    ids=["ragged-rows", "string-dim"],
)
def test_cli_rejects_a_malformed_matrix_file_by_key(tmp_path, capsys, payload, key):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(payload))
    config = {"experiment": "verify-theorem1", "n": 1, "unitary": f"file:{matrix}", "samples": 2}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'unitary'" in err and f"key '{key}'" in err
    assert not out.exists()
    assert main(["entpower", "--n", "1", "--unitary", f"file:{matrix}"]) == 2
    assert f"key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("unitary", ["pauli:XY", "identity"])
def test_complexity_curve_rejects_a_zero_trace_quadrature_before_the_sweep(
    tmp_path, capsys, monkeypatch, unitary
):
    # t = 0 for XY and t = 1 for the identity: one quadrature is zero, so no
    # budget can tune both axes; it used to fail at point 0 with exit 1
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    config = {"experiment": "complexity-curve", "n": 2, "shots": [100], "unitary": unitary}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'unitary'" in err and "quadratures" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [1e-300, 1e-308])
def test_complexity_curve_rejects_an_alpha_with_no_finite_budget(tmp_path, capsys, alpha):
    # 1e-300 overflowed the budget weight and 1e-308 the per-axis eps, both
    # inside point 0 with exit 1
    config = {
        "experiment": "complexity-curve",
        "n": 2,
        "unitary": "haar",
        "shots": [5, 1000000],
        "alpha": alpha,
    }
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert "field 'alpha'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [1.0, 1e-150])
def test_complexity_curve_names_the_unitary_when_a_tiny_quadrature_leaves_no_budget(
    tmp_path, capsys, monkeypatch, alpha
):
    # Re t = 1e-200: at alpha 1 eps_x overflows its square (the error named
    # alpha), and at alpha 1e-150 alpha * Re t underflows to 0 (exit 1 on a
    # division by zero); both alphas budget unit quadratures
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    save_matrix(tmp_path / "u.json", np.diag([1e-200 + 1j, 1e-200 + 1j]))
    config = {
        "experiment": "complexity-curve",
        "n": 1,
        "unitary": f"file:{tmp_path / 'u.json'}",
        "shots": [10, 1000],
        "alpha": alpha,
    }
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'unitary'" in err and "leaves no budget" in err
    assert not out.exists()


def test_trace_vs_shots_rejects_an_alpha_too_small_to_read(tmp_path, capsys):
    # 1/alpha overflows: the estimates used to be written as inf, exit 0
    config = {"experiment": "trace-vs-shots", "n": 1, "shots": [5], "alpha": 1e-320}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert "field 'alpha'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_estimate_trace_rejects_an_alpha_too_small_to_read(capsys):
    argv = ["estimate-trace", "--n", "1", "--shots", "5", "--unitary", "pauli:Z"]
    assert main(argv + ["--alpha", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert "alpha" in captured.err and "inf" not in captured.out


def test_cli_run_rejects_a_non_unitary_file_for_verify_theorem3(tmp_path, capsys):
    # built once before the sweep, so it is rejected as a config field and
    # not inside point 0
    matrix = tmp_path / "u.json"
    save_matrix(matrix, np.array([[1.0, 1.0], [1.0, 1.0]]))
    payload = {"experiment": "verify-theorem3", "n": 1, "unitary": f"file:{matrix}", "samples": 2}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'unitary'" in err and "not unitary" in err
    assert not out.exists()


def test_cli_run_rejects_a_register_file_that_is_not_a_density_matrix(
    tmp_path, capsys, monkeypatch
):
    # read and checked once before the sweep; it used to fail inside point 0
    # with exit 1
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    matrix = tmp_path / "rho.json"
    save_matrix(matrix, np.diag([1.0, 1.0]))  # trace 2
    payload = {"experiment": "verify-theorem3", "n": 1, "rho": f"file:{matrix}", "samples": 2}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'rho'" in err and "not a 2x2 density matrix" in err
    assert not out.exists()


def test_run_verify_theorem3_builds_a_fixed_unitary_once(monkeypatch, tmp_path):
    calls = []
    real = dqc1.experiments.unitary_from_spec

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(dqc1.experiments, "unitary_from_spec", counting)
    matrix = tmp_path / "u.json"
    save_matrix(matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))
    for spec in ("pauli:X", f"file:{matrix}"):
        calls.clear()
        cfg = config_from_dict(
            {
                "experiment": "verify-theorem3",
                "n": 1,
                "unitary": spec,
                "rho": "random",
                "samples": 6,
                "seed": 3,
                "workers": 1,
            }
        )
        rows = run_experiment(cfg)
        assert calls == [spec]
        # the register draws are those of a sweep that rebuilt U per point
        for row in rows[:6]:
            rho = random_density(2, 2, SeededRng(3, int(row.param_value) + 1))
            assert (row.measured, row.reference) == entpower_bounds(SIGMA_X, rho)
    calls.clear()
    haar = {"experiment": "verify-theorem3", "n": 1, "samples": 4, "workers": 1}
    run_experiment(config_from_dict(haar))
    assert calls == ["haar"] * 4  # a Haar unitary is drawn per point, from its stream


def test_cli_estimate_trace_rejects_shots_over_the_bound(capsys):
    argv = ["estimate-trace", "--n", "1", "--unitary", "identity", "--shots", str(MAX_SHOTS + 1)]
    assert main(argv) == 2
    assert "shots" in capsys.readouterr().err


def test_cli_run_rejects_non_object_root(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["run", str(path), "--seed", "3"]) == 2
    assert "object" in capsys.readouterr().err


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_run_runtime_failure_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dqc1.experiments, "_bounds", broken_bounds)
    cfg = write_config(
        tmp_path,
        {"experiment": "verify-theorem3", "n": 1, "samples": 1, "seed": 0, "workers": 1},
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_cli_estimate_trace(capsys):
    code = main(
        [
            "estimate-trace",
            "--n",
            "1",
            "--unitary",
            "identity",
            "--shots",
            "100",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "exact" in out


def test_cli_entpower(capsys):
    assert main(["entpower", "--n", "2", "--unitary", "pauli:XY"]) == 0
    out = capsys.readouterr().out
    assert "entangling_power 1" in out


def test_cli_entpower_at_alpha_minus_zero_prints_plus_zero(capsys):
    # -0.0 passes the [0, 1] range check, and -0.0 * E printed "-0"
    assert main(["entpower", "--n", "2", "--alpha", "-0.0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "entangling_power 0"


@pytest.mark.parametrize("n", [-1, 0, MAX_QUBITS + 1])
@pytest.mark.parametrize(
    "argv",
    [
        ["entpower"],
        ["estimate-trace", "--shots", "10"],
        ["verify", "theorem1", "--samples", "1"],
    ],
)
def test_cli_rejects_register_size_out_of_range(argv, n, capsys):
    assert main([*argv, "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"\bn\b.*{n}", err), err


@pytest.mark.parametrize(
    "n,spec,angle",
    [
        ("2", "diag-phase:0,0,0,nan", "angle 3 is nan"),
        ("1", "diag-phase:inf,0", "angle 0 is inf"),
    ],
)
def test_cli_entpower_rejects_non_finite_angle(n, spec, angle, capsys):
    assert main(["entpower", "--n", n, "--unitary", spec]) == 2
    captured = capsys.readouterr()
    assert angle in captured.err
    assert "entangling_power" not in captured.out


def test_cli_entpower_rejects_bad_spec(capsys):
    assert main(["entpower", "--n", "2", "--unitary", "pauli:X"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_verify_theorem1_passes_on_the_trivial_circuit(capsys):
    # U = I: zero entangling power, which the Fourier ensemble must reach
    # and no sampled ensemble may exceed
    assert main(["verify", "theorem1", "--unitary", "identity", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("gap", ["1e-8", "1e-6"])
def test_cli_verify_theorem1_passes_near_the_trivial_circuit(capsys, gap):
    # eigenphases 0 and gap: E = sin(gap / 2), which sqrt(1 - |t|^2) with
    # |t| = cos(gap / 2) rounds to 0 (1e-8) or misses by 2e-11 (1e-6)
    argv = ["verify", "theorem1", "--n", "1", "--unitary", f"diag-phase:0,{gap}"]
    assert main(argv + ["--samples", "20"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_entpower_near_the_trivial_circuit(capsys):
    assert main(["entpower", "--n", "1", "--unitary", "diag-phase:0,1e-8"]) == 0
    value = float(capsys.readouterr().out.split("entangling_power")[1])
    assert abs(value - math.sin(5e-9)) <= 1e-15 * 5e-9


def verify_rows(target, unitary="haar", broken=()):
    """Rows of the sweep ``dqc1 verify <target> --samples 30 --seed 2`` runs
    (defaults n=2, alpha=0.6, a random register for theorem3), with the
    points in ``broken`` failing."""
    payload = {"n": 2, "alpha": 0.6, "unitary": unitary, "samples": 30, "seed": 2}
    if target == "theorem3":
        payload["rho"] = "random"
    return moved_above(
        run_experiment(config_from_dict({"experiment": f"verify-{target}", **payload})), broken
    )


def moved_above(rows, broken):
    """``rows`` with each point in ``broken`` measured one above its
    reference, which fails every verify rule."""
    for idx in broken:
        r = rows[idx]
        rows[idx] = ResultRow.build(
            r.experiment, r.param_name, r.param_value, r.reference + 1.0, r.reference, r.seed
        )
    return rows


def verify_report(target, rows):
    """The stdout of ``dqc1 verify <target>`` on these rows, each check's
    pass rule, tolerance and report line written out."""

    def label(r):
        if r.param_name == "sample":
            return f"sample={int(r.param_value)}"
        return f"alpha={r.param_value}" if r.param_name == "alpha" else r.param_name

    def check(text, read, ok):
        bad = [label(r) for r in read if not ok(r)]
        out = f"{target}: {text}: {'FAIL' if bad else 'PASS'}\n"
        if bad:
            more = f" and {len(bad) - 10} more" if len(bad) > 10 else ""
            out += f"{target}:   failing points: {', '.join(bad[:10])}{more}\n"
        return out

    def below(r):
        return r.measured <= r.reference + 1e-9

    sampled = [r for r in rows if r.param_name == "sample"]
    kept = sum(map(below, sampled))
    if target == "theorem1":
        fourier = [r for r in rows if r.param_name == "fourier"]
        return check(
            f"Fourier ensemble deviation {fourier[0].deviation:.3e} (tol 1e-9)",
            fourier,
            lambda r: r.deviation <= 1e-9,
        ) + check(
            f"{kept}/{len(sampled)} sampled ensembles at or below the closed form", sampled, below
        )
    if target == "theorem2":
        worst = max(r.deviation for r in rows)
        return check(
            f"minimal mixing matches alpha at {len(rows)} polarizations "
            f"(worst deviation {worst:.3e}, tol 1e-9)",
            rows,
            lambda r: r.deviation <= 1e-9,
        )
    anchors = [r for r in rows if r.param_name.startswith("lambda_")]
    worst = max(r.deviation for r in anchors)
    return check(
        f"{kept}/{len(sampled)} sampled pairs keep lower <= upper", sampled, below
    ) + check(
        f"lambda anchors (pure/alpha/mixed) worst deviation {worst:.3e} (tol 1e-12)",
        anchors,
        lambda r: r.deviation <= 1e-12,
    )


def test_cli_verify_passes(capsys):
    for target, unitary in [
        ("theorem1", "haar"),
        ("theorem2", "haar"),
        ("theorem3", "haar"),
        ("theorem3", "pauli:XY"),
    ]:
        argv = ["verify", target, "--samples", "30", "--seed", "2", "--unitary", unitary]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == verify_report(target, verify_rows(target, unitary))
        assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "target,broken,names",
    [
        ("theorem1", [17], ["sample=17"]),
        (
            "theorem1",
            range(1, 13),
            [", ".join(f"sample={i}" for i in range(1, 11)) + " and 2 more"],
        ),
        ("theorem1", [0, 5], ["fourier", "sample=5"]),
        ("theorem2", [2, 7], ["alpha=0.3, alpha=0.8"]),
        ("theorem3", [3, 30, 32], ["sample=3", "lambda_pure, lambda_mixed"]),
    ],
    ids=["one", "more-than-ten", "fourier", "alpha", "lambda"],
)
def test_cli_verify_names_the_failing_points(monkeypatch, capsys, target, broken, names):
    import dqc1.cli

    real = dqc1.cli.run_experiment

    monkeypatch.setattr(dqc1.cli, "run_experiment", lambda cfg: moved_above(real(cfg), broken))
    assert main(["verify", target, "--samples", "30", "--seed", "2"]) == 1
    out = capsys.readouterr().out
    assert out == verify_report(target, verify_rows(target, broken=broken))
    for line in names:
        assert f"failing points: {line}\n" in out


# --- whole-config property ---------------------------------------------------

# Values of the wrong type, non-finite and subnormal floats, huge ints and
# nested lists.  Strings stay short and never spell an existing file.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e-320, 1e-308, 1e-300, -0.0]),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 2**63, 2**64 + 1]),
    st.lists(st.lists(st.integers(-1, 2), max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_TINY = st.sampled_from([5e-324, 1e-320, 1e-310, 1e-308, 1e-300, 1e-200, 1e-150])
_ALPHA = st.one_of(st.floats(0.0, 1.0, exclude_min=True), _TINY, st.just(1))
_SPECS = {
    "unitary": [
        "haar", "identity", "pauli:Z", "pauli:XY", "pauli:ZZ", "pauli:q", "diag-phase:0,1",
        "diag-phase:0.3,1,2,3", "diag-phase:nan,0", "diag-phase:1e400,0", "diag-phase:x",
        "file:/nonexistent/u.json", "", "bogus",
    ],
    "rho": [
        "maximally-mixed", "random", "random:1", "random:2", "random:4", "random:0",
        "random:99", "random:", "random:-1", "file:/nonexistent/rho.json", "Random",
    ],
}


def _field(valid, junk=_JUNK):
    """A field's values: junk one draw in ten, so a whole config of a dozen
    fields is still valid often enough to run its sweep."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 0 else valid)


def _junk_without(*bad):
    """Junk without the values that are valid but too large to run quickly
    (or, for ``workers``, that would start a pool)."""
    return _JUNK.filter(lambda x: not any(check(x) for check in bad))


def _int_above(k):
    return lambda x: isinstance(x, int) and not isinstance(x, bool) and x > k


_CONFIG = st.fixed_dictionaries(
    {
        "experiment": _field(st.sampled_from(EXPERIMENTS)),
        "n": _field(st.sampled_from([1, 2]), _junk_without(_int_above(2))),
        "workers": _field(st.just(1), _junk_without(_int_above(1), lambda x: x is None)),
        "out": _field(
            st.sampled_from(["rows.csv", "rows.json", "missing/rows.csv"]),
            # a string or null would write into the working directory
            _junk_without(lambda x: isinstance(x, str) or x is None),
        ),
        # required by two experiments, so always present: its absence would
        # be named, but it would not be a key of the dict
        "shots": _field(
            st.one_of(
                st.lists(
                    st.one_of(st.integers(1, 10**6), st.just(MAX_SHOTS)), min_size=1, max_size=3
                ),
                st.lists(_JUNK, min_size=1, max_size=3),
            )
        ),
    },
    optional={
        "alpha": _field(_ALPHA),
        "unitary": _field(st.sampled_from(_SPECS["unitary"])),
        "rho": _field(st.sampled_from(_SPECS["rho"])),
        "alphas": _field(
            st.one_of(st.lists(_ALPHA, min_size=1, max_size=3), st.lists(_JUNK, max_size=3))
        ),
        "samples": _field(st.integers(1, 20), _junk_without(_int_above(20), lambda x: x is None)),
        "seed": _field(st.one_of(st.integers(0, 2**64), st.just(10**400))),
        "format": _field(st.sampled_from(["csv", "json", "xml"])),
    },
)


def _pinned(**fields):
    return {"n": 1, "workers": 1, "out": "rows.csv", "shots": [365], **fields}


@settings(max_examples=250, deadline=None)
@given(_CONFIG)
# each of these exited 1 inside point 0, or exited 2 without naming a field
@example(_pinned(experiment="complexity-curve", alpha=2.9296195021249704e-205))
@example(_pinned(experiment="complexity-curve", alpha=1e-308))
@example(_pinned(experiment="verify-theorem2", out="missing/rows.csv"))
# these wrote inf estimates, or a polarization past 1, and exited 0
@example(_pinned(experiment="trace-vs-shots", alpha=1e-320))
@example(_pinned(experiment="trace-vs-shots", bloch=[0.0, 0.0, 1.0 + 1e-13]))
def test_cli_run_exits_zero_or_names_a_field(config):
    """``dqc1 run`` on any config either succeeds or exits 2 naming one of
    the config's keys; it never fails inside a sweep (exit 1)."""
    config = dict(config)
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(config["out"], str):
            config["out"] = str(Path(tmp) / config["out"])
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
    err = err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert any(f"'{key}'" in err for key in config), err


def _outcome(build):
    """What building a config gives: the config, or its error's text."""
    try:
        return build()
    except ConfigError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(
    # any subset of the optional fields of a whole-config draw
    _CONFIG.flatmap(
        lambda c: st.sets(st.sampled_from(sorted(set(c) - {"experiment", "n"}))).map(
            lambda dropped: {k: v for k, v in c.items() if k not in dropped}
        )
    )
)
def test_config_from_dict_and_the_constructor_share_one_schema(payload):
    assert _outcome(lambda: config_from_dict(dict(payload))) == _outcome(
        lambda: ExperimentConfig(**payload)
    )
