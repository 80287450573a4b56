"""Tests for the experiment runner: config validation, sweep determinism,
result I/O, and the command-line front end."""

import contextlib
import errno
import gc
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
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
    MAX_STACK_ENTRIES,
    _DrawScorer,
    brute_force_entpower,
    brute_force_min_mixing,
    ensemble_average,
    entpower_alpha,
    entpower_bounds,
    entpower_standard,
    fourier_ensemble,
    lambda_factor,
)
from dqc1.experiments import (
    DEFAULT_ALPHAS,
    EXPERIMENTS,
    MAX_SAMPLES,
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
    haar_unitary,
    matrix_to_json,
    normalized_trace,
    random_density,
    random_right_unitary,
    save_matrix,
)
from dqc1.measurement import MAX_SHOTS, estimate_trace
from support import DEEP_JSON, read_results

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
    with pytest.raises(ConfigError, match="^config nests too deeply to read$"):
        parse_config(DEEP_JSON)  # was a RecursionError


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


def counted(monkeypatch, *targets):
    """Count the calls of each ``(module, name)`` while the test runs, by name."""
    calls = dict.fromkeys((name for _, name in targets), 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def file_unitary(tmp_path, n=2):
    """A ``file:`` spec of a Haar unitary on n qubits, saved under tmp_path."""
    save_matrix(tmp_path / "u.json", haar_unitary(2**n, SeededRng(5)))
    return f"file:{tmp_path / 'u.json'}"


def test_run_trace_vs_shots_validates_the_unitary_once(monkeypatch, tmp_path):
    # every unitarity check runs through linalg._check_unitary's one call: a
    # file unitary gets it once, in unitary_from_spec, and a built one none,
    # since the sweep's instance trusts what unitary_from_spec returns
    calls = counted(monkeypatch, (dqc1.linalg, "is_unitary"))
    for unitary, checks in (("haar", 0), (file_unitary(tmp_path), 1)):
        calls["is_unitary"] = 0
        cfg = trace_config(unitary=unitary, shots=[10, 100, 1000, 10000], workers=1)
        assert len(run_experiment(cfg)) == 8
        assert calls == {"is_unitary": checks}


def test_run_workers_do_not_change_results():
    cfg = trace_config()
    serial = run_experiment(replace(cfg, workers=1))
    pooled = run_experiment(replace(cfg, workers=2))
    assert serial == pooled


def test_run_verify_theorem1_validates_the_unitary_once(monkeypatch, tmp_path):
    # unitary_from_spec checks a file U; the instance, the reference and the
    # Fourier row trust it, and a built U is checked by none of them
    calls = counted(monkeypatch, (dqc1.linalg, "is_unitary"))
    for unitary, checks in (("haar", 0), (file_unitary(tmp_path), 1)):
        calls["is_unitary"] = 0
        cfg = theorem1_config(samples=10, seed=7, workers=1, unitary=unitary)
        assert len(run_experiment(cfg)) == 11
        assert calls == {"is_unitary": checks}


def test_run_verify_theorem1_scores_the_fourier_row_without_its_density(monkeypatch):
    # the package built the Fourier ensemble of the register, so the sweep
    # skips the O(d^3) check that it realizes it; the public average keeps it
    calls = counted(monkeypatch, (dqc1.entpower.PureEnsemble, "density"))
    rows = run_experiment(theorem1_config(samples=10, seed=7, workers=1))
    assert calls == {"density": 0}
    inst = Dqc1Instance(2, haar_unitary(4, SeededRng(7, 0)), ControlQubit.from_alpha(1.0))
    assert ensemble_average(inst, fourier_ensemble(inst.unitary)) == rows[0].measured
    assert calls == {"density": 1}


@pytest.mark.parametrize(
    "argv", [["entpower"], ["estimate-trace", "--shots", "10"]], ids=["entpower", "estimate-trace"]
)
def test_cli_validates_the_unitary_once(monkeypatch, tmp_path, argv):
    # unitary_from_spec checks a file U once and builds the others unitary,
    # so the command checks no unitarity after it
    calls = counted(monkeypatch, (dqc1.linalg, "is_unitary"))
    for unitary, checks in (("haar", 0), (file_unitary(tmp_path), 1)):
        calls["is_unitary"] = 0
        assert main([*argv, "--n", "2", "--unitary", unitary]) == 0
        assert calls == {"is_unitary": checks}


@pytest.mark.parametrize("argv", [["estimate-trace", "--shots", "1"], ["entpower"]])
def test_cli_flag_defaults_are_the_config_defaults(argv):
    args = dqc1.cli._build_parser().parse_args([*argv, "--n", "1"])
    for key in ("alpha", "unitary", "seed"):
        assert getattr(args, key) == ExperimentConfig.__dataclass_fields__[key].default


def test_run_verify_theorem2_never_rechecks_its_draws(monkeypatch):
    # brute_force_min_mixing trusts its QR draws and analytic_min_T, which
    # the public branch_coefficients would each check
    calls = counted(monkeypatch, (dqc1.entpower, "is_right_unitary"))
    cfg = config_from_dict({"experiment": "verify-theorem2", "samples": 50, "n": 1, "workers": 1})
    assert len(run_experiment(cfg)) == len(DEFAULT_ALPHAS)
    assert calls == {"is_right_unitary": 0}
    dqc1.entpower.branch_coefficients(ControlQubit.from_alpha(0.5), np.eye(2))
    assert calls == {"is_right_unitary": 1}  # the public entry point still checks


def test_run_chunked_pool_does_not_change_results():
    # 61 points on 2 workers go out in ranges of 7
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 2, "samples": 60, "seed": 3})
    assert run_experiment(replace(cfg, workers=1)) == run_experiment(replace(cfg, workers=2))


def theorem1_config(**overrides):
    payload = {"experiment": "verify-theorem1", "n": 2, "samples": 30, "seed": 3}
    payload.update(overrides)
    return config_from_dict(payload)


def result_row(experiment, param_name, param_value, measured, reference, seed):
    """A results row from any real numbers, converted as a sweep's are."""
    m, r = float(measured), float(reference)
    return ResultRow(experiment, param_name, float(param_value), m, r, abs(m - r), int(seed))


def per_point_theorem1_rows(cfg):
    """verify-theorem1 one point at a time, each with its own draw scored
    as a one-member stack: the oracle for the stacked ranges."""
    u = unitary_from_spec(cfg.unitary, cfg.n, SeededRng(cfg.seed, 0))
    inst = Dqc1Instance(n=cfg.n, unitary=u, control=ControlQubit.from_alpha(1.0))
    reference = entpower_standard(u)
    fourier = ensemble_average(inst, fourier_ensemble(u))
    rows = [result_row(cfg.experiment, "fourier", 0, fourier, reference, cfg.seed)]
    score = _DrawScorer(inst.unitary, inst.system_state)
    for idx in range(1, cfg.samples + 1):
        t_mat = random_right_unitary(inst.dim, 2 * inst.dim, SeededRng(cfg.seed, idx))
        measured = score(t_mat[None], 1.0)[0]  # a fully polarized control's lambda gap
        rows.append(result_row(cfg.experiment, "sample", idx, measured, reference, cfg.seed))
    return rows


def public_rows(cfg):
    """A sweep's rows from the public routines, each point on its own stream
    (seed, index + 1) and the fixed unitary on stream 0: the oracle for the
    sweeps' set-ups and the private cores they call."""
    u = unitary_from_spec(cfg.unitary, cfg.n, SeededRng(cfg.seed, 0))
    streams = [SeededRng(cfg.seed, idx + 1) for idx in range(cfg.samples + 3)]
    rows = []
    if cfg.experiment == "entpower-vs-alpha":
        for a, rng in zip(cfg.alphas, streams):
            inst = Dqc1Instance(cfg.n, u, ControlQubit.from_alpha(a))
            measured = brute_force_entpower(inst, cfg.samples, rng)
            rows.append(("alpha", a, measured, entpower_alpha(u, a)))
    elif cfg.experiment == "verify-theorem2":
        for a, rng in zip(cfg.alphas, streams):
            measured = brute_force_min_mixing(ControlQubit.from_alpha(a), cfg.samples, 4, rng)
            rows.append(("alpha", a, measured, a))
    elif cfg.experiment == "verify-theorem3":
        dim, rank = 2**cfg.n, int(cfg.rho.partition(":")[2] or 2**cfg.n)
        mixed = cfg.rho == "maximally-mixed"
        for idx, rng in enumerate(streams[: cfg.samples]):
            u = unitary_from_spec(cfg.unitary, cfg.n, rng)  # a fixed one draws nothing
            rho = np.eye(dim) / dim if mixed else random_density(dim, rank, rng)
            rows.append(("sample", float(idx), *entpower_bounds(u, rho)))
        for name, z in zip(dqc1.experiments._ANCHORS, (1.0, cfg.alpha, 0.0)):
            rows.append((name, z, lambda_factor(ControlQubit.from_bloch((0.0, 0.0, z))), z))
    else:  # trace-vs-shots
        inst, t = Dqc1Instance(cfg.n, u, ControlQubit.from_alpha(cfg.alpha)), normalized_trace(u)
        for shots, rng in zip(cfg.shots, streams):
            est = estimate_trace(inst, shots, rng).trace_estimate
            rows.append(("shots_re", float(shots), est.real, t.real))
            rows.append(("shots_im", float(shots), est.imag, t.imag))
    return [result_row(cfg.experiment, *row, cfg.seed) for row in rows]


@pytest.mark.parametrize("seed", [1, 7, 2**128])  # 2**128: a seed of five 32-bit words
@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "entpower-vs-alpha", "n": 1, "samples": 40},
        {"experiment": "entpower-vs-alpha", "n": 3, "unitary": "pauli:XYZ", "alphas": [0.3, 1.0]},
        {"experiment": "verify-theorem2", "n": 1, "samples": 20},
        {"experiment": "verify-theorem3", "n": 2, "rho": "random", "samples": 6},
        {"experiment": "verify-theorem3", "n": 2, "rho": "random:1", "unitary": "identity", "samples": 6},
        {"experiment": "verify-theorem3", "n": 1, "rho": "maximally-mixed", "alpha": 0.4, "samples": 6},
        {"experiment": "trace-vs-shots", "n": 3, "alpha": 0.8, "shots": [10, 1000, 100000]},
        {"experiment": "trace-vs-shots", "n": 2, "unitary": "pauli:ZZ", "shots": [10, 100]},
        # the sweep samples from Tr U / d, which differs from the public
        # instance's t in its last bits here, under both binomial algorithms
        {"experiment": "trace-vs-shots", "n": 5, "alpha": 0.05, "shots": [1, 10, 10**6, 10**15]},
    ],
    ids=[
        "entpower-haar",
        "entpower-pauli",
        "theorem2",
        "theorem3-random",
        "theorem3-rank1",
        "theorem3-mixed",
        "trace-haar",
        "trace-pauli",
        "trace-haar-n5",
    ],
)
def test_sweep_rows_are_the_public_routines_on_the_same_streams(payload, seed):
    # a sweep sets up once and calls private cores; every row keeps the bits
    # (signed zeros included) of the public routine on the point's stream
    cfg = config_from_dict({**payload, "seed": seed})
    assert list(map(repr, run_experiment(cfg))) == list(map(repr, public_rows(cfg)))


@pytest.mark.parametrize("seed", [1, 5, 13])
@pytest.mark.parametrize("unitary", ["haar", "identity"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_verify_theorem1_stacked_ranges_match_per_point_oracle(n, unitary, seed):
    # 71 or 41 points go out in ranges of 17 or 10, scored in stacks of 8 at n=5
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
def test_ranges_bound_the_entries_a_range_stacks(monkeypatch, n, step):
    # 2001 serial points make ranges of 500 at every n: ranges only schedule.
    # The scorer splits a range's draws into stacks of d x 2d members each
    # (d = 2**n), at most MAX_STACK_ENTRIES at once, so from n=3 on that
    # bound, not the range, sets the stack length; it builds a stack's
    # streams only when it draws that stack
    ranges = dqc1.experiments._ranges(2001, 1)
    assert [lo for lo, _ in ranges] == list(range(0, 2001, 500)) and ranges[-1][1] == 2001
    assert step == 1 or step * 2 * 4**n <= MAX_STACK_ENTRIES
    drawn, asked = [], []
    monkeypatch.setattr(
        dqc1.entpower,
        "random_right_unitary",
        lambda rows, cols, streams: drawn.append((rows, cols, streams)) or np.empty(len(streams)),
    )
    monkeypatch.setattr(_DrawScorer, "__call__", lambda self, t_stack, mix: t_stack)
    inst = Dqc1Instance(n=n, unitary=np.eye(2**n), control=ControlQubit.from_alpha(1.0))
    score = _DrawScorer(inst.unitary, inst.system_state)

    def streams(lo, hi):
        asked.append((lo, hi))
        return list(range(lo, hi))

    for k, _ in enumerate(score.scores(0, 500, streams, 1.0), start=1):
        assert len(asked) == len(drawn) == k  # this stack's streams, built now
        assert drawn[-1] == (2**n, 2 ** (n + 1), list(range(*asked[-1])))
    assert asked == [(lo, min(lo + step, 500)) for lo in range(0, 500, step)]


def test_run_verify_theorem1_stacks_two_draws_at_a_time_at_n6(monkeypatch):
    # 14 serial points make ranges of 3; two n=6 draws fill the stack bound,
    # so a range of three sampled points draws a stack of two, then of one
    stacked = []
    real = dqc1.entpower.random_right_unitary

    def recording(rows, cols, streams):
        stacked.append(len(streams))
        return real(rows, cols, streams)

    monkeypatch.setattr(dqc1.entpower, "random_right_unitary", recording)
    cfg = theorem1_config(n=6, samples=13, workers=1)
    assert run_experiment(cfg) == per_point_theorem1_rows(cfg)
    assert stacked == [2] + [2, 1] * 3 + [2]


@pytest.mark.parametrize("samples,ranges", [(60, 5), (2000, -(-2001 // 500))])
def test_run_verify_theorem1_decomposes_once_per_range(monkeypatch, samples, ranges):
    # 61 points serially make ranges of 15 (five of them), 2001 points at
    # n=2 ranges of 500; the draws are scored once per range, and the
    # maximally mixed register is never eigensolved: its root is J / sqrt(d)
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
    assert calls == {"eig_hermitian": 0, "score": ranges}


@pytest.mark.parametrize("experiment", ["entpower-vs-alpha", "verify-theorem1"])
def test_a_serial_search_sweep_runs_no_register_eigensolve(monkeypatch, experiment):
    # the sweeps search the maximally mixed register, whose root the scorer
    # knows; so does the public brute_force_entpower on a default instance
    calls = counted(monkeypatch, (dqc1.entpower, "eig_hermitian"))
    cfg = config_from_dict({"experiment": experiment, "n": 3, "samples": 20})
    assert cfg.workers is None and len(run_experiment(cfg)) in (10, 21)
    assert calls == {"eig_hermitian": 0}
    inst = Dqc1Instance(3, haar_unitary(8, SeededRng(1)), ControlQubit.from_alpha(1.0))
    dqc1.entpower.brute_force_entpower(inst, 2, SeededRng(2))
    assert calls == {"eig_hermitian": 0}


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
    assert len(built) <= len(dqc1.experiments._ranges(2001, 1)) + 1 == 6


def test_theorem1_range_hands_back_python_floats():
    # float rows pickle about ten times faster than numpy scalars out of a worker
    cfg = theorem1_config(samples=40, workers=1)
    kind = dqc1.experiments._EXPERIMENTS[cfg.experiment]
    rows = dqc1.experiments._eval_point(cfg, kind.setup(cfg), 0, 41)
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


def test_a_failed_fourier_eigensolve_is_reported_where_the_candidate_is_first_read(monkeypatch):
    # the Fourier candidate is built on first use: verify-theorem1 reads it
    # outside the range's sampling, so its failure reaches the caller as
    # itself; entpower-vs-alpha reads it in point 0's search, which names it
    def broken(u):
        raise ValueError("no eigenbasis")

    monkeypatch.setattr(dqc1.entpower, "_eig_unitary", broken)
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 2, "samples": 3, "workers": 1})
    with pytest.raises(ValueError, match="^no eigenbasis$"):
        run_experiment(cfg)
    cfg = config_from_dict({"experiment": "entpower-vs-alpha", "n": 2, "samples": 3, "workers": 1})
    point0 = r"^entpower-vs-alpha failed at point 0 \(.*\): no eigenbasis$"
    with pytest.raises(RuntimeError, match=point0):
        run_experiment(cfg)


@pytest.fixture
def pools(monkeypatch):
    """The number of workers each pooled sweep forks, with two CPUs to run on."""
    sizes, fork, forked = [], os.fork, dqc1.experiments._forked

    def counting_fork():
        pid = fork()
        if pid:  # in the sweep's process; a worker never forks
            sizes[-1] += 1
        return pid

    monkeypatch.setattr(dqc1.experiments, "_forked", lambda *args: sizes.append(0) or forked(*args))
    monkeypatch.setattr(dqc1.experiments.os, "fork", counting_fork)
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
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


def test_importing_the_package_leaves_the_process_pool_unimported():
    # the executor's modules pull in logging, multiprocessing, socket and
    # subprocess: neither ``import dqc1`` nor a pooled sweep, which forks
    # its workers itself, imports them
    pool = ("concurrent.futures", "concurrent.futures.process", "multiprocessing")
    code = (
        "import os, sys, dqc1.cli\n"
        "from dqc1.experiments import config_from_dict, run_experiment\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cfg = {'experiment': 'verify-theorem1', 'n': 1, 'samples': 20, 'workers': 2}\n"
        "rows = run_experiment(config_from_dict(cfg))\n"
        f"print(len(rows), [m for m in {pool} if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dqc1.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "21 []\n", out.stderr


def test_pool_never_outgrows_the_cpu_count(pools):
    # a pool sized by workers alone would ask for 53 processes here
    cfg = config_from_dict(
        {"experiment": "verify-theorem3", "n": 1, "samples": 50, "workers": 10**6}
    )
    rows = run_experiment(cfg)
    assert pools == [2]
    assert rows == run_experiment(replace(cfg, workers=1))


def test_a_one_cpu_affinity_forks_no_worker_and_gives_the_serial_rows(pools, monkeypatch):
    # a host of two CPUs that lets the process run on one (as under
    # taskset -c 0): two workers would share that CPU, slower than one
    monkeypatch.setattr(dqc1.experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0})
    cfg = config_from_dict({"experiment": "entpower-vs-alpha", "n": 2, "samples": 10, "workers": 2})
    assert run_experiment(cfg) == run_experiment(replace(cfg, workers=1))
    assert pools == []


def failing_call(real, failing, code):
    """``real``, but its ``failing``-th call raises the OSError of ``code``."""
    calls = []

    def call(*args):
        calls.append(args)
        if len(calls) == failing:
            raise OSError(code, os.strerror(code))
        return real(*args)

    return call


def test_a_failed_fork_closes_its_pipes_and_exits_as_a_runtime_error(monkeypatch, tmp_path, capsys):
    # a fork or a pipe fails, as a host short of processes, memory or file
    # descriptors makes it fail: the input is fine, so the CLI exits 1, not
    # 2; a worker already forked is killed and reaped, and no pipe stays open
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = write_config(tmp_path, {"experiment": "verify-theorem1", "n": 1, "samples": 20, "workers": 2})
    out = tmp_path / "rows.csv"
    for name, failing, code, failed in (
        ("fork", 2, errno.EAGAIN, "could not fork worker 2"),
        ("pipe", 1, errno.EMFILE, "could not open a pipe"),  # the claims
        ("pipe", 3, errno.EMFILE, "could not fork worker 2"),  # the second worker's own
    ):
        with monkeypatch.context() as patch:
            patch.setattr(dqc1.experiments.os, name, failing_call(getattr(os, name), failing, code))
            fds = len(os.listdir("/proc/self/fd"))
            assert main(["run", str(cfg), "--out", str(out)]) == 1, (name, failing)
            assert len(os.listdir("/proc/self/fd")) == fds, (name, failing)
        error = f"runtime error: verify-theorem1 {failed}: [Errno {code}] {os.strerror(code)}\n"
        assert capsys.readouterr().err == error
        assert not out.exists()
        assert_no_children()


def test_without_fork_a_pooled_sweep_runs_serially_with_the_same_rows(pools, monkeypatch):
    # off Linux a sweep never forks, whatever ``workers`` asks for
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 2, "samples": 30, "workers": 2})
    pooled = run_experiment(cfg)
    assert pools == [2]
    monkeypatch.setattr(dqc1.experiments, "_FORKS", False)
    assert run_experiment(cfg) == pooled
    assert pools == [2]


def assert_no_children():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_at(monkeypatch, experiment, bad, error):
    """Make ``experiment``'s point ``bad`` raise ``error``, with two CPUs to run on."""
    kind = dqc1.experiments._EXPERIMENTS[experiment]

    def evaluate(cfg, payload, lo, hi):
        rows = []
        for idx in range(lo, hi):
            if idx == bad:
                raise dqc1.experiments._failure(cfg, idx, idx + 1, error)
            rows += kind.evaluate(cfg, payload, idx, idx + 1)
        return rows

    monkeypatch.setitem(dqc1.experiments._EXPERIMENTS, experiment, replace(kind, evaluate=evaluate))
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})


def test_a_pooled_sweep_reaps_its_workers_after_success():
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 1, "samples": 30, "workers": 2})
    assert run_experiment(cfg) == run_experiment(replace(cfg, workers=1))
    assert_no_children()


@pytest.mark.parametrize("bad", [2, 6])
def test_a_point_that_fails_in_a_worker_reaches_the_caller_as_it_would_serially(monkeypatch, bad):
    # 8 points on 2 workers: ranges of 1, each claimed by whichever worker
    # is free; the failing range's error is raised as itself
    failing_at(monkeypatch, "trace-vs-shots", bad, ValueError("no readout"))
    cfg = trace_config(shots=[10 * (i + 1) for i in range(8)], workers=1)
    text = f"^trace-vs-shots failed at point {bad} \\(shots={10 * (bad + 1)}\\): no readout$"
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match=text):
            run_experiment(replace(cfg, workers=workers))
        assert_no_children()


def test_a_pooled_verify_theorem1_failure_names_its_range(monkeypatch):
    class BrokenScorer(_DrawScorer):
        def __call__(self, t_stack, mix):
            raise ValueError("no score")

    monkeypatch.setattr(dqc1.experiments, "_DrawScorer", BrokenScorer)
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    # 31 points on 2 workers make ranges of 3: the first stack is points 1..2
    with pytest.raises(RuntimeError, match=r"^verify-theorem1 failed at points 1\.\.2: no score$"):
        run_experiment(theorem1_config(workers=2))
    assert_no_children()


def claims_log(monkeypatch, path, stall=None):
    """Make every pooled range append ``<pid> <lo>`` to ``path`` before it
    runs, ``stall(lo)`` first if given, with two CPUs to run on; returns a reader of
    the log as {lo: pid}."""
    caller, evaluate = os.getpid(), dqc1.experiments._eval_point

    def logged(cfg, payload, lo, hi):
        if os.getpid() != caller:
            with open(path, "a") as log:
                log.write(f"{os.getpid()} {lo}\n")
            if stall is not None:
                stall(lo)
        return evaluate(cfg, payload, lo, hi)

    monkeypatch.setattr(dqc1.experiments, "_eval_point", logged)
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    return lambda: {int(lo): int(pid) for pid, lo in map(str.split, path.read_text().splitlines())}


def test_a_worker_killed_by_a_signal_is_named_by_its_points_and_status(monkeypatch, tmp_path):
    # one of 8 one-point ranges kills its worker: every range that worker
    # claimed is lost, and the lowest of them is named with the exit status
    def die_in_5(lo):
        if lo == 5:
            os.kill(os.getpid(), signal.SIGKILL)

    claims = claims_log(monkeypatch, tmp_path / "claims", die_in_5)
    cfg = trace_config(shots=[10 * (i + 1) for i in range(8)], workers=2)
    with pytest.raises(RuntimeError) as caught:
        run_experiment(cfg)
    assert_no_children()
    by = claims()
    lost = min(lo for lo, pid in by.items() if pid == by[5])  # no worker delivered these
    want = f"trace-vs-shots failed at point {lost} (shots={10 * (lost + 1)}): worker exit status -9"
    assert str(caught.value) == want and sorted(by) == list(range(8))


def test_two_dead_workers_are_both_named_by_exit_status(monkeypatch, tmp_path):
    # the worker that claims range 0 dies in it, so range 1 goes to the
    # other, which dies too; which of them claimed range 0 is unknown to the
    # caller, so its error names both statuses
    def die(lo):
        if lo < 2:
            os.kill(os.getpid(), (signal.SIGTERM, signal.SIGKILL)[lo])

    claims = claims_log(monkeypatch, tmp_path / "claims", die)
    cfg = trace_config(shots=[10 * (i + 1) for i in range(8)], workers=2)
    with pytest.raises(RuntimeError) as caught:
        run_experiment(cfg)
    assert_no_children()
    by = claims()
    assert by[0] != by[1] and set(by) == {0, 1}
    head, statuses = str(caught.value).split(": worker exit statuses ")
    assert head == "trace-vs-shots failed at point 0 (shots=10)"
    assert sorted(statuses.split(", ")) == ["-15", "-9"]


def test_a_slow_range_holds_back_no_other(monkeypatch, tmp_path):
    # the worker that claims range 0 waits until the other has run all the
    # rest; with a fixed half each, it would hold ranges 1..3 and time out
    def wait_for_the_rest(lo):
        deadline = time.monotonic() + 10
        while lo == 0 and len(claims()) < 8 and time.monotonic() < deadline:
            time.sleep(0.01)

    claims = claims_log(monkeypatch, tmp_path / "claims", wait_for_the_rest)
    cfg = trace_config(shots=[10 * (i + 1) for i in range(8)], workers=2)
    assert run_experiment(cfg) == run_experiment(replace(cfg, workers=1))
    by = claims()
    assert sorted(by) == list(range(8)) and {by[lo] for lo in range(1, 8)} == {by[1]} != {by[0]}
    assert_no_children()


def test_a_failed_range_stops_the_pool_claiming_the_ranges_after_it(monkeypatch, tmp_path):
    # range 0 fails at once and every other range takes 0.2 s: the worker
    # that failed takes the claims left, so the other does not run them all
    failing_at(monkeypatch, "trace-vs-shots", 0, ValueError("no readout"))
    claims = claims_log(monkeypatch, tmp_path / "claims", lambda lo: time.sleep(0.2 if lo else 0))
    cfg = trace_config(shots=[10 * (i + 1) for i in range(8)], workers=2)
    with pytest.raises(RuntimeError, match=r"^trace-vs-shots failed at point 0 \(shots=10\): no readout$"):
        run_experiment(cfg)
    assert_no_children()
    assert 0 in claims() and len(claims()) < 8


def test_of_two_failing_ranges_the_lower_is_raised_though_it_is_read_later(monkeypatch, tmp_path):
    # the caller reads the first worker forked first: it waits in its first
    # range until the other has claimed range 3, then claims range 4 and
    # fails in it; the other fails in range 3 after that, and as serially
    # its error is the one raised
    fork, forked = os.fork, []

    def numbered_fork():
        forked.append(fork())  # in a worker the list ends in its 0: its length is its number
        return forked[-1]

    def stall(lo):
        deadline, awaited = time.monotonic() + 10, 4 if lo == 3 else 3 if len(forked) == 1 else None
        while awaited is not None and awaited not in claims() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2 if lo == 3 else 0)

    failing_at(monkeypatch, "trace-vs-shots", 3, ValueError("no readout"))
    failing_at(monkeypatch, "trace-vs-shots", 4, ValueError("no estimate"))
    claims = claims_log(monkeypatch, tmp_path / "claims", stall)
    monkeypatch.setattr(dqc1.experiments.os, "fork", numbered_fork)
    cfg = trace_config(shots=[10 * (i + 1) for i in range(8)], workers=2)
    with pytest.raises(RuntimeError, match=r"^trace-vs-shots failed at point 3 \(shots=40\): no readout$"):
        run_experiment(cfg)
    assert_no_children()
    assert claims()[4] == forked[0] != claims()[3]


def test_a_pools_claims_fit_one_pipe_write_at_any_pool_size(monkeypatch):
    # a pool holds at most _MAX_POOL workers, and _ranges makes fewer than
    # eight ranges a worker (8 s - 1 points make the most): the claims never
    # pass PIPE_BUF, which every pipe holds, so their one write never blocks
    experiments = dqc1.experiments
    for size in range(2, experiments._MAX_POOL + 1):
        for count in (size, 4 * size, 8 * size - 1, 8 * size, 10**6):
            assert 4 * len(experiments._ranges(count, size)) <= select.PIPE_BUF
    sizes = []

    def unforked(cfg, payload, ranges, size):  # forks none of the pool it is asked for
        sizes.append(size)
        return [experiments._eval_point(cfg, payload, lo, hi) for lo, hi in ranges]

    monkeypatch.setattr(experiments, "_forked", unforked)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: range(10**4))
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 1, "samples": 2000, "workers": 10**4})
    assert run_experiment(cfg) == run_experiment(replace(cfg, workers=1))
    assert sizes == [experiments._MAX_POOL]


def test_claims_past_pipe_buf_each_reach_one_worker_whole(monkeypatch):
    # 1501 one-point ranges make 6004 bytes of claims, past the 4096 bytes
    # a pipe moves atomically: a torn or repeated claim would change the rows
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 1, "samples": 1500, "workers": 1})
    serial = run_experiment(cfg)
    monkeypatch.setattr(dqc1.experiments, "_ranges", lambda count, _: [(i, i + 1) for i in range(count)])
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    assert len(dqc1.experiments._ranges(1501, 2)) * 4 > select.PIPE_BUF
    assert run_experiment(replace(cfg, workers=2)) == serial
    assert_no_children()


def test_an_interrupted_pooled_sweep_kills_and_reaps_its_workers(monkeypatch):
    # the workers would take a minute; the caller is interrupted while it
    # waits for the first, and ends them both at once
    caller, evaluate = os.getpid(), dqc1.experiments._eval_point

    def slow(cfg, payload, lo, hi):
        if os.getpid() != caller:
            time.sleep(60)
        return evaluate(cfg, payload, lo, hi)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(dqc1.experiments, "_eval_point", slow)
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(trace_config(workers=2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30
    assert_no_children()


def test_a_pooled_sweep_prints_unflushed_text_once_and_leaks_no_file():
    # a worker leaves by os._exit, so the caller's stdout buffer, inherited
    # unflushed, is written once, by the caller; every pipe is closed
    code = (
        "import os, dqc1.entpower\n"
        "from dqc1.experiments import config_from_dict, run_experiment\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print('before the sweep')\n"
        "cfg = config_from_dict({'experiment': 'verify-theorem1', 'n': 1, 'samples': 20, 'workers': 2})\n"
        "print(len(run_experiment(cfg)))\n"
        "dqc1.entpower._DrawScorer.__call__ = lambda self, t_stack, mix: 1 / 0\n"
        "try:\n"
        "    run_experiment(cfg)\n"
        "except RuntimeError as err:\n"
        "    print(err)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dqc1.__file__).resolve().parents[1])}
    command = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code]
    out = subprocess.run(command, env=env, capture_output=True, text=True)
    failed = "verify-theorem1 failed at point 1 (sample=1): division by zero"
    assert (out.returncode, out.stdout, out.stderr) == (0, f"before the sweep\n21\n{failed}\n", "")


def test_serial_entpower_sweep_prepares_its_search_once(monkeypatch, tmp_path):
    # the alpha-free half of the search (the Fourier eigensolve, the scorer's
    # register root) runs once per sweep, not once per alpha or per range; the
    # set-up and the Fourier eigensolve trust U, which only a file U's load checks
    calls = counted(monkeypatch, (dqc1.entpower, "_fourier_ensemble"), (dqc1.linalg, "is_unitary"))
    for experiment, points in (("entpower-vs-alpha", 10), ("verify-theorem1", 21)):
        for unitary, checks in (("haar", 0), (file_unitary(tmp_path, 3), 1)):
            calls.update(_fourier_ensemble=0, is_unitary=0)
            payload = {"experiment": experiment, "n": 3, "samples": 20, "unitary": unitary}
            cfg = config_from_dict(payload)
            assert cfg.workers is None and len(dqc1.experiments._ranges(points, 1)) > 1
            assert len(run_experiment(cfg)) == points
            assert calls == {"_fourier_ensemble": 1, "is_unitary": checks}


def test_only_the_verify_theorem1_range_with_point_0_runs_the_fourier_eigensolve(monkeypatch):
    # the caller builds the set-up before it forks, and the Fourier row is
    # computed on first use: a worker whose ranges skip point 0 never needs
    # it, and the caller never pays the O(d^3) eigensolve
    calls = counted(monkeypatch, (dqc1.entpower, "_fourier_ensemble"))
    cfg = config_from_dict({"experiment": "verify-theorem1", "n": 3, "samples": 20})
    kind = dqc1.experiments._EXPERIMENTS["verify-theorem1"]
    payload = kind.setup(cfg)
    assert len(kind.evaluate(cfg, payload, 5, 21)) == 16 and calls["_fourier_ensemble"] == 0
    assert kind.evaluate(cfg, payload, 0, 5)[0][0] == "fourier" and calls["_fourier_ensemble"] == 1


def test_the_readout_set_up_takes_t_before_any_worker_forks(monkeypatch):
    # every readout samples from the t it reports, Tr U / d: the set-up takes
    # it once, so the workers of a pooled sweep inherit it.  Neither the
    # set-up nor a point builds an instance or calls a public sum, and the
    # payload holds no array
    cfgs = [trace_config(n=3, unitary=u, shots=[10, 100, 1000]) for u in ("haar", "identity", "pauli:XYZ")]
    want = [normalized_trace(unitary_from_spec(c.unitary, c.n, SeededRng(c.seed, 0))) for c in cfgs]
    modules = [getattr(dqc1, m) for m in ("linalg", "circuit", "measurement", "experiments", "cli")]
    calls = counted(
        monkeypatch,
        (Dqc1Instance, "__post_init__"),
        *((m, name) for name in ("trace_overlap", "normalized_trace") for m in modules if hasattr(m, name)),
    )
    kind = dqc1.experiments._EXPERIMENTS["trace-vs-shots"]
    for cfg, t in zip(cfgs, want):
        payload = kind.setup(cfg)
        assert repr(payload["t"]) == repr(t) and set(payload) == {"control", "t"}, cfg.unitary
        assert not any(isinstance(v, np.ndarray) for v in payload.values()), cfg.unitary
        assert len(kind.evaluate(cfg, payload, 0, 3)) == 6
    assert calls == {"__post_init__": 0, "trace_overlap": 0, "normalized_trace": 0}


def recording_setup(monkeypatch, experiment, path, error=None):
    """Make ``experiment``'s set-up append its process id to ``path``, then
    raise ``error`` if one is given, with two CPUs to run on."""
    kind = dqc1.experiments._EXPERIMENTS[experiment]

    def setup(cfg):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if error is not None:
            raise error
        return kind.setup(cfg)

    monkeypatch.setitem(dqc1.experiments._EXPERIMENTS, experiment, replace(kind, setup=setup))
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    return lambda: [int(line) for line in path.read_text().split()]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_setup_runs_once_per_sweep_in_the_callers_process(monkeypatch, tmp_path, experiment):
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
    (tmp_path / "pids").unlink()
    assert run_experiment(replace(cfg, workers=2)) == serial
    assert pids() == [os.getpid()]  # so does a pooled one: its workers inherit the set-up


@pytest.mark.parametrize("workers", [None, 2])
def test_a_failed_setup_raises_its_own_error_serially_and_in_a_pool(monkeypatch, tmp_path, workers):
    # a failure in what the points share used to be wrapped as "failed at
    # points 0..9"; the caller sets up before it forks, so no worker starts
    pids = recording_setup(
        monkeypatch, "entpower-vs-alpha", tmp_path / "pids", LookupError("no eigenbasis")
    )
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    cfg = config_from_dict({"experiment": "entpower-vs-alpha", "n": 1, "samples": 2})
    with pytest.raises(LookupError) as caught:
        run_experiment(replace(cfg, workers=workers))
    assert type(caught.value) is LookupError and str(caught.value) == "no eigenbasis"
    assert pids() == [os.getpid()]


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
    # one point per range, and one draw per stack
    monkeypatch.setattr(dqc1.experiments, "_ranges", lambda count, _: [(i, i + 1) for i in range(count)])
    monkeypatch.setattr(dqc1.entpower, "MAX_STACK_ENTRIES", 1)
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
        result_row("verify-theorem2", "alpha", 0.1, 0.1 - 3e-17, 0.1, 4),
        result_row("verify-theorem2", "alpha", 1.0 / 3.0, 0.3333333333333333, 1.0 / 3.0, 4),
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


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sweep_rows_hold_python_floats_and_an_int_seed(experiment, tmp_path):
    # run_experiment converts nothing, so each range evaluator hands back
    # Python floats: an int shots count or sample index would write 10, not
    # 10.0, to JSON, and a numpy seed would not write at all
    cfg = ExperimentConfig(experiment, 1, shots=(10, 100), samples=3, seed=np.int64(3))
    rows = run_experiment(cfg)
    for r in rows:
        reals = (r.param_value, r.measured, r.reference, r.deviation)
        assert all(type(x) is float for x in reals) and type(r.seed) is int
    write_results(rows, tmp_path / "out.json", "json")
    written = json.loads((tmp_path / "out.json").read_text())
    assert all(type(entry["param_value"]) is float for entry in written)


def test_write_read_json_is_float_exact(tmp_path):
    rows = sample_rows()
    path = tmp_path / "out.json"
    write_results(rows, path, "json")
    assert read_results(path) == rows
    payload = json.loads(path.read_text())
    assert payload[0] == rows[0]._asdict()


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 1e16]
)
def test_csv_rows_keep_their_per_field_format(tmp_path, x):
    # the one-format writer against the per-field format(float(x), ".17g")
    # it replaced, on the special values too
    rows = [
        ResultRow("verify-theorem1", "sample", x, -x, x / 3, abs(x), 2**128),
        result_row("trace-vs-shots", "shots_y", 10**6, x, 0.5, 7),
    ]
    write_results(rows, tmp_path / "out.csv", "csv")
    lines = [",".join(ResultRow._fields)]
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


def test_the_process_entry_freezes_the_collector_once_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(dqc1.cli, "main", lambda: calls.append("main") or 0)
    assert dqc1.cli._entry() == 0
    assert calls == ["freeze", "main"]


def test_main_leaves_the_collector_unfrozen(monkeypatch, tmp_path):
    # in-process callers (tests, the benchmark's traced sweeps) keep a normal collector
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    cfg = write_config(tmp_path, {"experiment": "verify-theorem1", "n": 1, "samples": 3})
    assert main(["run", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
    assert main(["verify", "theorem1", "--unitary", "identity", "--samples", "3"]) == 0
    assert main(["entpower", "--n", "1"]) == 0
    assert calls == []


def test_the_dqc1_process_writes_the_bytes_main_writes(tmp_path):
    # the process entry freezes what import built and changes no row, pooled or not
    bundled = Path(__file__).resolve().parents[1] / "configs" / "verify-theorem1.json"
    cfg = write_config(tmp_path, {**json.loads(bundled.read_text()), "workers": 2})
    argv = ["run", str(cfg), "--seed", "42", "--out"]
    env = {**os.environ, "PYTHONPATH": str(Path(dqc1.__file__).resolve().parents[1])}
    command = [sys.executable, "-m", "dqc1.cli", *argv, str(tmp_path / "process.csv")]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


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


def test_cli_run_rejects_a_shots_flag_that_is_not_integers(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "trace-vs-shots", "n": 1, "shots": [10]})
    assert main(["run", str(cfg), "--shots", "10,x", "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == "error: --shots must be comma-separated integers, got '10,x'\n"
    assert not (tmp_path / "rows.csv").exists()


def test_cli_run_names_out_when_writing_fails_after_the_sweep(tmp_path, capsys):
    # /dev/full passes the checks made before the sweep; its write fails
    cfg = write_config(tmp_path, {"experiment": "verify-theorem2", "n": 1, "samples": 2})
    assert main(["run", str(cfg), "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: field 'out': [Errno 28] No space left on device\n"


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
    # a pooled sweep sets up in the caller before it forks, so its error is
    # the serial run's: before any point, with exit 2 and the same line
    monkeypatch.setattr(dqc1.experiments, "_eval_point", no_points)
    monkeypatch.setattr(dqc1.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.chdir(tmp_path)  # where the set-up looks for the register file
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


@pytest.mark.parametrize("field", ["unitary", "rho"])
def test_cli_names_the_field_of_a_file_nested_too_deeply(tmp_path, capsys, field):
    # the config and a matrix file it names each used to exit 1 with
    # "runtime error: maximum recursion depth exceeded"
    matrix = tmp_path / "m.json"
    matrix.write_text(DEEP_JSON)
    config = tmp_path / "deep.json"
    config.write_text(DEEP_JSON)
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == "error: config nests too deeply to read\n"
    payload = {"experiment": "verify-theorem3", "n": 1, field: f"file:{matrix}", "samples": 2}
    out = tmp_path / "rows.csv"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    assert f"error: field '{field}': {matrix}: not valid JSON (maximum recursion" in capsys.readouterr().err
    assert not out.exists()


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
        rows[idx] = result_row(
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
