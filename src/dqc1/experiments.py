"""Config-driven parameter sweeps with deterministic per-point randomness.

A run is described by an :class:`ExperimentConfig`, which checks its fields
when built, from JSON or by hand; every error names its field.  Unknown keys
are rejected, and so is a ``rho`` other than ``maximally-mixed`` outside
``verify-theorem3``; other fields an experiment does not read are ignored.
A sweep's fixed inputs, and what all its points share (a unitary, a
scorer), are built and validated by its set-up once, in the calling process,
before any point, so a set-up error reaches the caller as itself.  Every
point then draws from its own random stream keyed by (seed, point index),
so results are byte-identical for a given config and seed however many
workers run the sweep.  A sweep evaluates its points in contiguous index
ranges, serially, or, if ``workers`` asks for a pool (on Linux only), in
workers forked after the set-up, which claim them one at a time.  A
``verify-theorem1`` range draws each point from its own stream, and scores
its draws a bounded stack at a time.
Each experiment is defined in one place, its record in ``_EXPERIMENTS``,
which also holds the checks ``dqc1 verify`` applies to its rows.

The reference column of every row comes from a closed form, never from
sampling, so the deviation column isolates statistical error.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import signal
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .circuit import _ALPHA, MAX_QUBITS, ControlQubit, unitary_from_spec
from .entpower import (
    _average,
    _bounds,
    _DrawScorer,
    _standard,
    brute_force_min_mixing,
    lambda_factor,
)
from .linalg import (
    TOL_CONSTRUCT,
    TOL_VERIFY,
    SeededRng,
    _check_density,
    _check_path,
    _check_type,
    _is_real,
    _normalized_trace,
    is_integer,
    load_matrix,
    random_density,
    brief,
)
from .measurement import (
    MAX_SHOTS,
    ErrorBudget,
    _estimate_trace,
    entpower_from_rounds,
    error_budget,
    readout_alpha,
    rounds_for_budget,
)

DEFAULT_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Most sampled decompositions one point draws (``samples``): 2000 at most in
#: every bundled config, and a bound on a sweep's time and memory.
MAX_SAMPLES = 10**6


class ConfigError(ValueError):
    """A config that fails schema validation; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's parameters, checked field by field at construction: the
    first failure raises a :class:`ConfigError` that names its field.
    ``alpha`` is kept as a float, ``shots`` and ``alphas`` as tuples."""

    experiment: str
    n: int
    alpha: float = 1.0
    unitary: str = "haar"
    rho: str = "maximally-mixed"
    shots: tuple[int, ...] = ()
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    samples: int = 100
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int | None = None

    def __post_init__(self):
        kind = _experiment(self.experiment)
        for name, (test, expected) in _FIELDS.items():
            x = getattr(self, name)
            if not test(x):
                problem = f"expected {expected}, got {brief(x)}"
            # the rules that read the fields checked before this one
            elif name == "n" and not 1 <= x <= MAX_QUBITS:
                problem = f"{brief(x)} outside the supported range [1, {MAX_QUBITS}]"
            elif name == "rho" and x != "maximally-mixed" and not kind.reads_rho:
                problem = (
                    f"only verify-theorem3 reads a register state, "
                    f"{self.experiment} runs on the maximally mixed one; got {brief(x)}"
                )
            elif name == "rho" and type(rank := _rho(x)[1]) is int and not 1 <= rank <= 2**self.n:
                problem = f"rank in {brief(x)} outside [1, {2**self.n}] for n={self.n}"
            elif name == "shots" and kind.sweeps_shots and not x:
                problem = f"required and nonempty for {self.experiment}"
            else:
                continue
            raise ConfigError(f"field '{name}': {problem}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "shots", tuple(self.shots))
        object.__setattr__(self, "alphas", tuple(float(x) for x in self.alphas))


def _experiment(x) -> _Experiment:
    """The record of a config's experiment, the first field checked."""
    if not isinstance(x, str) or x not in _EXPERIMENTS:
        raise ConfigError(f"field 'experiment': {brief(x)} is not one of {', '.join(EXPERIMENTS)}")
    return _EXPERIMENTS[x]


#: Every config field after ``experiment``, in the order they are checked:
#: a test of its value and the text the error expects.
_FIELDS = {
    "n": (is_integer, "an integer"),
    "alpha": (lambda x: _is_real(x, *_ALPHA), "a number in (0, 1]"),
    "unitary": (lambda x: isinstance(x, str) and x != "", "a spec string"),
    "rho": (
        lambda x: isinstance(x, str) and _rho(x) is not None,
        "'maximally-mixed', 'random', 'random:<rank>' or 'file:<path>'",
    ),
    "shots": (
        lambda x: isinstance(x, (list, tuple))
        and all(is_integer(s) and 1 <= s <= MAX_SHOTS for s in x),
        f"a list of integers in [1, {MAX_SHOTS}]",
    ),
    "alphas": (
        lambda x: isinstance(x, (list, tuple)) and x and all(_is_real(a, *_ALPHA) for a in x),
        "a nonempty list of numbers in (0, 1]",
    ),
    "samples": (
        lambda x: is_integer(x) and 1 <= x <= MAX_SAMPLES,
        f"an integer in [1, {MAX_SAMPLES}]",
    ),
    "seed": (lambda x: is_integer(x) and x >= 0, "a non-negative integer"),
    "out": (lambda x: x is None or isinstance(x, str), "a path string"),
    "format": (lambda x: x in ("csv", "json"), "'csv' or 'json'"),
    "workers": (lambda x: x is None or is_integer(x) and x >= 1, "a positive integer"),
}


def _rho(spec: str) -> tuple[str, int | str | None] | None:
    """A ``rho`` spec's kind and its rank (an int, None if full) or path, or
    None if it is no spec."""
    if spec in ("maximally-mixed", "random"):
        return spec, None
    if spec.startswith("file:"):
        return "file", spec[len("file:") :]
    rank = spec[len("random:") :]  # no more digits than 2**MAX_QUBITS, so int() reads it
    if spec.startswith("random:") and rank.isdecimal() and len(rank) <= len(str(2**MAX_QUBITS)):
        return "random", int(rank)
    return None


class ResultRow(NamedTuple):
    """One point's row, fields in column order; ``deviation`` is ``abs(measured - reference)``."""

    experiment: str
    param_name: str
    param_value: float
    measured: float
    reference: float
    deviation: float
    seed: int


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Validate a config dict; every failure names the offending field."""
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(payload).difference(ExperimentConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    if "experiment" not in payload:
        raise ConfigError("missing required field 'experiment'")
    if "n" not in payload:
        _experiment(payload["experiment"])  # an unknown experiment is named first
        raise ConfigError("missing required field 'n'")
    return ExperimentConfig(**payload)


def config_payload(text: str) -> dict:
    """Decode JSON config text to the dict :func:`config_from_dict` takes;
    decode errors keep their line/column info."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    except ValueError:  # an int literal past Python's int-to-str digit limit
        raise ConfigError("config holds an integer too long to read") from None
    except RecursionError:  # arrays or objects nested past the decoder's depth limit
        raise ConfigError("config nests too deeply to read") from None
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    return payload


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate JSON config text."""
    return config_from_dict(config_payload(text))


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_check_path(path).read_text())


# --- sweep machinery ---------------------------------------------------------


def _fixed_unitary(cfg: ExperimentConfig) -> np.ndarray:
    """The sweep's one unitary; a Haar one draws from stream 0."""
    try:
        return unitary_from_spec(cfg.unitary, cfg.n, SeededRng(cfg.seed, 0))
    except ValueError as err:
        raise ValueError(f"field 'unitary': {err}") from None


def _setup_trace_vs_shots(cfg):
    control = ControlQubit.from_alpha(cfg.alpha)
    try:  # the readout divides by the control's z polarization
        readout_alpha(control)
    except ValueError as err:
        raise ValueError(f"field 'alpha': {err}") from None
    return {"control": control, "t": _normalized_trace(_fixed_unitary(cfg))}  # built, or its file checked


def _point_trace_vs_shots(cfg, payload, idx, rng):
    t, shots = payload["t"], cfg.shots[idx]
    est = _estimate_trace(cfg.n, payload["control"], t, shots, rng)
    return [
        ("shots_re", float(shots), est.trace_estimate.real, t.real),
        ("shots_im", float(shots), est.trace_estimate.imag, t.imag),
    ]


def _point_entpower_vs_alpha(cfg, payload, idx, rng):
    a = cfg.alphas[idx]
    mix = lambda_factor(ControlQubit.from_alpha(a))
    measured = payload["score"].best(mix, cfg.samples, rng)
    return [("alpha", a, measured, a * payload["standard"])]


def _setup_search(cfg):  # the scorer of the maximally mixed register
    u = _fixed_unitary(cfg)
    return {"score": _DrawScorer(u), "standard": _standard(u)}


def _complexity_budget(alpha: float, t: complex, rounds_target: int) -> ErrorBudget:
    # Failure probability 1/e per axis makes ln(1/pe) = 1; the eps values
    # are tuned so both axes land on the same round count.
    pe = math.exp(-1.0)
    eps_x = 1.0 / (alpha * math.sqrt(rounds_target) * abs(t.real))
    eps_y = 1.0 / (alpha * math.sqrt(rounds_target) * abs(t.imag))
    return error_budget(eps_x, eps_y, pe, pe)


def _setup_complexity_curve(cfg):
    u = _fixed_unitary(cfg)
    t = _normalized_trace(u)
    if t.real == 0.0 or t.imag == 0.0:
        raise ValueError(
            f"field 'unitary': complexity-curve needs both trace quadratures "
            f"nonzero, but {brief(cfg.unitary)} has t = {t}"
        )
    # the alpha is at fault if it leaves no budget on unit quadratures, else the unitary
    for field, value, quads in (("alpha", cfg.alpha, 1 + 1j), ("unitary", cfg.unitary, t)):
        try:
            budgets = [_complexity_budget(cfg.alpha, quads, r) for r in cfg.shots]
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"field '{field}': {brief(value)} leaves no budget: {err}") from None
    return {"t": t, "budgets": budgets, "reference": cfg.alpha * _standard(u)}


def _point_complexity_curve(cfg, payload, idx, rng):
    budget = payload["budgets"][idx]
    rounds = rounds_for_budget(budget, cfg.alpha, payload["t"])
    measured = entpower_from_rounds(cfg.alpha, budget.m, rounds)
    return [("rounds", float(cfg.shots[idx]), measured, payload["reference"])]


def _range_verify_theorem1(cfg, payload, lo, hi):
    score, reference = payload["score"], payload["standard"]
    # a fully polarized control: its lambda gap is 1
    rows = [("fourier", 0.0, _average(*score.fourier, 1.0), reference)] if lo == 0 else []
    # Each point draws from its own stream exactly as it would alone, a
    # stack's streams derived in one pass; each stack is scored at once, same bits.
    first, streams = max(lo, 1), functools.partial(SeededRng.streams, cfg.seed)
    try:
        measured = [m for s in score.scores(first, hi, streams, 1.0) for m in s.tolist()]
    except Exception as err:
        raise _failure(cfg, first, hi, err) from err
    return rows + [("sample", float(i), m, reference) for i, m in zip(range(first, hi), measured)]


def _point_verify_theorem2(cfg, payload, idx, rng):
    a = cfg.alphas[idx]
    measured = brute_force_min_mixing(ControlQubit.from_alpha(a), cfg.samples, cols=4, rng=rng)
    return [("alpha", a, measured, a)]


def _setup_verify_theorem3(cfg):
    dim = 2**cfg.n
    kind, arg = _rho(cfg.rho)
    payload = {}
    if kind == "maximally-mixed":
        payload["rho"] = np.eye(dim, dtype=np.complex128) / dim
    elif kind == "file":
        try:
            payload["rho"] = _check_density("register file", load_matrix(arg), dim)
        except (ValueError, OSError) as err:
            raise ValueError(f"field 'rho': {err}") from None
    else:  # every point draws its own register from its stream
        payload["rank"] = dim if arg is None else arg
    if cfg.unitary != "haar":  # a Haar unitary is drawn per point, from its stream
        payload["u"] = _fixed_unitary(cfg)
    return payload


#: Row names of the lambda anchors of ``verify-theorem3``: pure, alpha and
#: fully mixed controls, whose z polarizations are also their references.
_ANCHORS = ("lambda_pure", "lambda_alpha", "lambda_mixed")


def _point_verify_theorem3(cfg, payload, idx, rng):
    if idx >= cfg.samples:
        z = (1.0, cfg.alpha, 0.0)[idx - cfg.samples]
        control = ControlQubit.from_bloch((0.0, 0.0, z))
        return [(_ANCHORS[idx - cfg.samples], z, lambda_factor(control), z)]
    # a fixed unitary or register draws nothing, so building it once in
    # the set-up leaves the stream as is
    u = payload["u"] if "u" in payload else unitary_from_spec(cfg.unitary, cfg.n, rng)
    rho = payload["rho"] if "rho" in payload else random_density(2**cfg.n, payload["rank"], rng)
    lower, upper = _bounds(u, rho)
    return [("sample", float(idx), lower, upper)]


def _pointwise(point):
    """Range evaluator of one point at a time, point idx on stream (seed, idx + 1)."""

    def evaluate(cfg, payload, lo, hi):
        rows = []
        for idx in range(lo, hi):
            try:
                rows += point(cfg, payload, idx, SeededRng(cfg.seed, idx + 1))
            except Exception as err:
                raise _failure(cfg, idx, idx + 1, err) from err
        return rows

    return evaluate


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its point count and point labels, its set-up (the
    payload every point reads, built and validated once per sweep, in the
    calling process, before any point), the evaluator of an index range of
    points, and its ``dqc1 verify`` checks.  A check is (rule, row names,
    tol, report line): each named row passes if its deviation is at most
    tol (rule ``within``) or if measured is at most reference + tol (rule
    ``below``), and the report line fills in {passed}, {total}, {worst}
    (the largest deviation) and {tol}."""

    count: Callable[[ExperimentConfig], int]
    label: Callable[[ExperimentConfig, int], str]
    setup: Callable[[ExperimentConfig], dict]
    evaluate: Callable[[ExperimentConfig, dict, int, int], list]
    sweeps_shots: bool = False  # one point per entry of a required ``shots``
    reads_rho: bool = False
    checks: tuple = ()


_SHOTS = dict(
    count=lambda cfg: len(cfg.shots), label=lambda cfg, i: f"shots={cfg.shots[i]}",
    sweeps_shots=True,
)
_ALPHAS = dict(count=lambda cfg: len(cfg.alphas), label=lambda cfg, i: f"alpha={cfg.alphas[i]}")

#: Every experiment by name, in the order the docs list them.
_EXPERIMENTS = {
    "trace-vs-shots": _Experiment(
        **_SHOTS, setup=_setup_trace_vs_shots, evaluate=_pointwise(_point_trace_vs_shots)
    ),
    "entpower-vs-alpha": _Experiment(
        **_ALPHAS,
        setup=_setup_search,
        evaluate=_pointwise(_point_entpower_vs_alpha),
    ),
    "complexity-curve": _Experiment(
        **_SHOTS, setup=_setup_complexity_curve, evaluate=_pointwise(_point_complexity_curve)
    ),
    "verify-theorem1": _Experiment(
        count=lambda cfg: cfg.samples + 1,  # the Fourier row, then sampled ensembles
        label=lambda cfg, i: f"sample={i}" if i else "fourier",
        setup=_setup_search,
        evaluate=_range_verify_theorem1,
        checks=(
            (
                "within",
                ("fourier",),
                TOL_VERIFY,
                "Fourier ensemble deviation {worst:.3e} (tol {tol})",
            ),
            (
                "below",
                ("sample",),
                TOL_VERIFY,
                "{passed}/{total} sampled ensembles at or below the closed form",
            ),
        ),
    ),
    "verify-theorem2": _Experiment(
        **_ALPHAS,
        setup=lambda cfg: {},
        evaluate=_pointwise(_point_verify_theorem2),
        checks=(
            (
                "within",
                ("alpha",),
                TOL_VERIFY,
                "minimal mixing matches alpha at {total} polarizations "
                "(worst deviation {worst:.3e}, tol {tol})",
            ),
        ),
    ),
    "verify-theorem3": _Experiment(
        count=lambda cfg: cfg.samples + 3,  # sampled pairs, then the lambda anchors
        label=lambda cfg, i: _ANCHORS[i - cfg.samples] if i >= cfg.samples else f"sample={i}",
        setup=_setup_verify_theorem3,
        evaluate=_pointwise(_point_verify_theorem3),
        reads_rho=True,
        checks=(
            (
                "below",
                ("sample",),
                TOL_VERIFY,
                "{passed}/{total} sampled pairs keep lower <= upper",
            ),
            (
                "within",
                _ANCHORS,
                TOL_CONSTRUCT,
                "lambda anchors (pure/alpha/mixed) worst deviation {worst:.3e} (tol {tol})",
            ),
        ),
    ),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def _failure(cfg: ExperimentConfig, lo: int, hi: int, err: Exception | str) -> RuntimeError:
    """The error of a sweep whose points [lo, hi) failed with ``err``."""
    label = _EXPERIMENTS[cfg.experiment].label(cfg, lo)
    where = f"point {lo} ({label})" if hi - lo == 1 else f"points {lo}..{hi - 1}"
    return RuntimeError(f"{cfg.experiment} failed at {where}: {err}")


def _eval_point(cfg: ExperimentConfig, payload: dict, lo: int, hi: int) -> list[tuple]:
    """Rows (name, value, measured, reference), in Python floats, of the
    points in the index range [lo, hi), in point order: a sweep's work unit."""
    return _EXPERIMENTS[cfg.experiment].evaluate(cfg, payload, lo, hi)


def _ranges(count: int, pool_size: int) -> list[tuple[int, int]]:
    """Contiguous index ranges covering ``count`` points, fewer than eight
    per worker, which bounds a pool's claims.  They only schedule work; how
    many draws one stack holds is the sampling code's business."""
    step = max(1, count // (4 * pool_size))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


_FORKS = sys.platform == "linux"  # elsewhere os.fork is missing or unsafe with numpy
_MAX_POOL = 128  # under 8 claims of 4 bytes a worker: they fit PIPE_BUF, which any pipe holds


def _forked(cfg: ExperimentConfig, payload: dict, ranges: list, size: int) -> list[list[tuple]]:
    """The rows of each range, from ``size`` workers forked with the set-up.
    A worker claims one range at a time, reading its 4-byte index from a
    pipe the caller filled before the first fork, and pickles its (index,
    rows) pairs, and the error that stopped it, to a pipe of its own.  The
    caller raises the error of the lowest range not delivered, as a serial
    sweep would, and kills and reaps every worker."""
    try:
        claims, fill = os.pipe()
    except OSError as err:  # EMFILE or ENFILE: the host is short, the input is fine
        raise RuntimeError(f"{cfg.experiment} could not open a pipe: {err}") from None
    workers, outputs = [], [None] * len(ranges)  # (pid, read end) of each worker; rows by range
    codes = []  # the exit status of each worker that died
    try:
        with open(fill, "wb") as sink:  # closed before the first fork, so the claims end
            sink.write(b"".join(i.to_bytes(4, "little") for i in range(len(ranges))))
        for _ in range(size):
            pipe = ()
            try:
                read, write = pipe = os.pipe()
                pid = os.fork()
            except OSError as err:  # EMFILE, EAGAIN or ENOMEM: the host is short, the input is fine
                for fd in pipe:
                    os.close(fd)
                raise RuntimeError(f"{cfg.experiment} could not fork worker {len(workers) + 1}: {err}")
            if pid == 0:  # a worker leaves by _exit, flushing nothing it inherited
                try:
                    pairs = []
                    while record := os.read(claims, 4):
                        i = int.from_bytes(record, "little")  # whole: a read holds the pipe's lock
                        try:
                            pairs.append((i, _eval_point(cfg, payload, *ranges[i])))
                        except BaseException as err:  # no later range fails first: take them all
                            pairs.append((i, err))
                            os.read(claims, 1 << 16)
                    with open(write, "wb") as sink:
                        pickle.dump(pairs, sink)
                finally:
                    os._exit(0)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        for pid, pipe in workers:
            try:
                pairs = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # it died first: peek at why, unreaped
                info, pairs = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT), []
                codes.append(info.si_status if info.si_code == os.CLD_EXITED else -info.si_status)
            for i, out in pairs:
                outputs[i] = out
        for (lo, hi), out in zip(ranges, outputs):  # the lowest failing range, as serially
            if out is None:  # claimed by a worker that died, which one unknown: name each status
                plural = "es" if len(codes) > 1 else ""
                raise _failure(cfg, lo, hi, f"worker exit status{plural} {', '.join(map(str, codes))}")
            if isinstance(out, BaseException):
                raise out
        return outputs
    finally:
        os.close(claims)
        for pid, pipe in workers:  # a finished worker ignores the kill
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every parameter point and return rows in point order."""
    _check_type("cfg", cfg, ExperimentConfig)
    kind = _EXPERIMENTS[cfg.experiment]
    count = kind.count(cfg)
    # a pool only on request, and never past the CPUs this process may run on: rows never depend on it
    size = min(cfg.workers or 1, count, len(os.sched_getaffinity(0)), _MAX_POOL) if _FORKS else 1
    payload, ranges = kind.setup(cfg), _ranges(count, size)
    if size > 1:
        outputs = _forked(cfg, payload, ranges, size)
    else:
        outputs = [_eval_point(cfg, payload, lo, hi) for lo, hi in ranges]
    seed, rows = int(cfg.seed), (row for out in outputs for row in out)
    return [ResultRow(cfg.experiment, k, v, m, r, abs(m - r), seed) for k, v, m, r in rows]


def check_rows(cfg: ExperimentConfig, rows: list[ResultRow]) -> list[tuple[str, list[str]]]:
    """The ``dqc1 verify`` checks of a ``verify-*`` sweep on its rows, one
    row per point in point order: per check, its report line and the labels
    of its failing points."""
    kind = _EXPERIMENTS[cfg.experiment]
    results = []
    for rule, names, tol, text in kind.checks:
        read = [(idx, r) for idx, r in enumerate(rows) if r.param_name in names]
        bad = [
            kind.label(cfg, idx)
            for idx, r in read
            if not (r.deviation <= tol if rule == "within" else r.measured <= r.reference + tol)
        ]
        line = text.format(
            passed=len(read) - len(bad),
            total=len(read),
            worst=max((r.deviation for _, r in read), default=0.0),
            tol=f"1e{math.log10(tol):.0f}",
        )
        results.append((line, bad))
    return results


# --- result I/O --------------------------------------------------------------


def write_results(rows: list[ResultRow], path: str | Path, fmt: str = "csv") -> None:
    """Write rows as CSV (17 significant digits) or JSON.  Both round-trip
    float-exactly; an empty run still writes the CSV header."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, ResultRow) for r in rows):
        raise ValueError(f"rows must be a list or tuple of ResultRow, got {brief(rows)}")
    path = _check_path(path)
    if fmt == "csv":
        line = "%s,%s,%.17g,%.17g,%.17g,%.17g,%d\n"  # %.17g formats as format(x, ".17g")
        path.write_text(",".join(ResultRow._fields) + "\n" + "".join(line % r for r in rows))
    elif fmt == "json":
        path.write_text(json.dumps([r._asdict() for r in rows], indent=2) + "\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
