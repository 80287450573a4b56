"""Config-driven parameter sweeps with deterministic per-point randomness.

A run is described by an :class:`ExperimentConfig`, which checks its fields
when built, from JSON or by hand; every error names its field.  Unknown keys
are rejected, and so is a ``rho`` other than ``maximally-mixed`` outside
``verify-theorem3``; other fields an experiment does not read are ignored.
A sweep's fixed inputs, and what all its points share (an eigensolve, a
scorer), are built and validated by the experiment's set-up once per
process that runs points, before its first point: in process when serial,
in each worker and never in the parent when pooled, so a set-up error
reaches the caller as itself either way.  The set-up lives no longer than
the sweep.  Every parameter point then draws from its own random stream
keyed by (seed, point index), so results are byte-identical for a given
config and seed no matter how many workers execute the sweep or in which
order points finish.  A sweep evaluates its points in contiguous index
ranges, one pool task each if ``workers`` asks for a pool, else serially;
the output never depends on the ranges.  A ``verify-theorem1`` range draws
each point from its own stream, then scores the range in one stacked pass.
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
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .circuit import MAX_QUBITS, ControlQubit, Dqc1Instance, unitary_from_spec
from .entpower import (
    _bounds,
    _DrawScorer,
    _EntpowerSearch,
    _draw_entries,
    _fourier_ensemble,
    _standard,
    brute_force_min_mixing,
    ensemble_average,
    lambda_factor,
)
from .linalg import (
    MAX_STACK_ENTRIES,
    TOL_CONSTRUCT,
    TOL_VERIFY,
    SeededRng,
    _check_density,
    is_integer,
    load_matrix,
    normalized_trace,
    random_density,
    random_right_unitary,
    brief,
)
from .measurement import (
    MAX_SHOTS,
    ErrorBudget,
    entpower_from_rounds,
    error_budget,
    estimate_trace,
    readout_alpha,
    rounds_for_budget,
)

DEFAULT_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Most sampled decompositions one point draws (``samples``): 2000 at most in
#: every bundled config, and a bound on a sweep's time and memory.
MAX_SAMPLES = 10**6

_HEADER = ("experiment", "param_name", "param_value", "measured", "reference", "deviation", "seed")


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


def _is_alpha(x) -> bool:
    # compared before any float() conversion, which overflows on huge ints
    return (is_integer(x) or isinstance(x, float)) and 0.0 < x <= 1.0


#: Every config field after ``experiment``, in the order they are checked:
#: a test of its value and the text the error expects.
_FIELDS = {
    "n": (is_integer, "an integer"),
    "alpha": (_is_alpha, "a number in (0, 1]"),
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
        lambda x: isinstance(x, (list, tuple)) and len(x) > 0 and all(map(_is_alpha, x)),
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


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    param_name: str
    param_value: float
    measured: float
    reference: float
    deviation: float
    seed: int

    @classmethod
    def build(cls, experiment, param_name, param_value, measured, reference, seed):
        return cls(
            experiment=experiment,
            param_name=param_name,
            param_value=float(param_value),
            measured=float(measured),
            reference=float(reference),
            deviation=abs(float(measured) - float(reference)),
            seed=int(seed),
        )


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
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    return payload


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate JSON config text."""
    return config_from_dict(config_payload(text))


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


# --- sweep machinery ---------------------------------------------------------


def _fixed_unitary(cfg: ExperimentConfig) -> np.ndarray:
    """The sweep's one unitary; a Haar one draws from stream 0."""
    try:
        return unitary_from_spec(cfg.unitary, cfg.n, SeededRng(cfg.seed, 0))
    except (ValueError, OSError) as err:
        raise ValueError(f"field 'unitary': {err}") from None


def _setup_trace_vs_shots(cfg):
    control = ControlQubit.from_alpha(cfg.alpha)
    try:  # the readout divides by the control's z polarization
        readout_alpha(control)
    except ValueError as err:
        raise ValueError(f"field 'alpha': {err}") from None
    inst = Dqc1Instance(n=cfg.n, unitary=_fixed_unitary(cfg), control=control)
    return {"inst": inst, "t": normalized_trace(inst.unitary)}


def _point_trace_vs_shots(cfg, payload, idx):
    inst, t_ref = payload["inst"], payload["t"]
    shots = cfg.shots[idx]
    est = estimate_trace(inst, shots, SeededRng(cfg.seed, idx + 1))
    return [
        ("shots_re", shots, est.trace_estimate.real, t_ref.real),
        ("shots_im", shots, est.trace_estimate.imag, t_ref.imag),
    ]


def _point_entpower_vs_alpha(cfg, payload, idx):
    a = cfg.alphas[idx]
    mix = lambda_factor(ControlQubit.from_alpha(a))
    measured = payload["search"](mix, cfg.samples, SeededRng(cfg.seed, idx + 1))
    return [("alpha", a, measured, a * payload["standard"])]


def _setup_entpower_vs_alpha(cfg):
    # the search reads U and the register, not the instance's control
    inst = Dqc1Instance(n=cfg.n, unitary=_fixed_unitary(cfg), control=ControlQubit.from_alpha(1.0))
    return {"search": _EntpowerSearch(inst), "standard": _standard(inst.unitary)}


def _complexity_budget(alpha: float, t: complex, rounds_target: int) -> ErrorBudget:
    # Failure probability 1/e per axis makes ln(1/pe) = 1; the eps values
    # are tuned so both axes land on the same round count.
    pe = math.exp(-1.0)
    eps_x = 1.0 / (alpha * math.sqrt(rounds_target) * abs(t.real))
    eps_y = 1.0 / (alpha * math.sqrt(rounds_target) * abs(t.imag))
    return error_budget(eps_x, eps_y, pe, pe)


def _setup_complexity_curve(cfg):
    u = _fixed_unitary(cfg)
    t = normalized_trace(u)
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


def _point_complexity_curve(cfg, payload, idx):
    budget = payload["budgets"][idx]
    rounds = rounds_for_budget(budget, cfg.alpha, payload["t"])
    measured = entpower_from_rounds(cfg.alpha, budget.m, rounds)
    return [("rounds", cfg.shots[idx], measured, payload["reference"])]


def _setup_verify_theorem1(cfg):
    inst = Dqc1Instance(n=cfg.n, unitary=_fixed_unitary(cfg), control=ControlQubit.from_alpha(1.0))
    return {"inst": inst, "reference": _standard(inst.unitary), "score": _DrawScorer(inst)}


def _range_verify_theorem1(cfg, payload, lo, hi):
    inst, reference = payload["inst"], payload["reference"]
    rows = []
    if lo == 0:
        try:
            measured = ensemble_average(inst, _fourier_ensemble(inst.unitary))
        except Exception as err:
            raise _failure(cfg, 0, 1, err) from err
        rows.append(("fourier", 0, measured, reference))
    first = max(lo, 1)
    if first == hi:
        return rows
    # Each point draws from its own stream exactly as it would alone (all
    # derived in one pass); the range is then scored as one stack, same bits.
    try:
        draws = random_right_unitary(inst.dim, 2 * inst.dim, SeededRng.streams(cfg.seed, first, hi))
        measured = payload["score"](draws, lambda_factor(inst.control)).tolist()
    except Exception as err:
        raise _failure(cfg, first, hi, err) from err
    return rows + [("sample", idx, m, reference) for idx, m in zip(range(first, hi), measured)]


def _point_verify_theorem2(cfg, payload, idx):
    a = cfg.alphas[idx]
    measured = brute_force_min_mixing(
        ControlQubit.from_alpha(a), cfg.samples, cols=4, rng=SeededRng(cfg.seed, idx + 1)
    )
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


def _point_verify_theorem3(cfg, payload, idx):
    if idx >= cfg.samples:
        z = (1.0, cfg.alpha, 0.0)[idx - cfg.samples]
        control = ControlQubit.from_bloch((0.0, 0.0, z))
        return [(_ANCHORS[idx - cfg.samples], z, lambda_factor(control), z)]
    rng = SeededRng(cfg.seed, idx + 1)
    # a fixed unitary or register draws nothing, so building it once in
    # the set-up leaves the stream as is
    u = payload["u"] if "u" in payload else unitary_from_spec(cfg.unitary, cfg.n, rng)
    rho = payload["rho"] if "rho" in payload else random_density(2**cfg.n, payload["rank"], rng)
    lower, upper = _bounds(u, rho)
    return [("sample", idx, lower, upper)]


def _pointwise(point):
    """Range evaluator that evaluates its points one at a time."""

    def evaluate(cfg, payload, lo, hi):
        rows = []
        for idx in range(lo, hi):
            try:
                rows += point(cfg, payload, idx)
            except Exception as err:
                raise _failure(cfg, idx, idx + 1, err) from err
        return rows

    return evaluate


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its point count and point labels, its set-up (the
    payload every point reads, built and validated once per process that
    runs points, before any point), the evaluator of an index range of
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
        setup=_setup_entpower_vs_alpha,
        evaluate=_pointwise(_point_entpower_vs_alpha),
    ),
    "complexity-curve": _Experiment(
        **_SHOTS, setup=_setup_complexity_curve, evaluate=_pointwise(_point_complexity_curve)
    ),
    "verify-theorem1": _Experiment(
        count=lambda cfg: cfg.samples + 1,  # the Fourier row, then sampled ensembles
        label=lambda cfg, i: f"sample={i}" if i else "fourier",
        setup=_setup_verify_theorem1,
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


def _failure(cfg: ExperimentConfig, lo: int, hi: int, err: Exception) -> RuntimeError:
    """The error of a sweep whose points [lo, hi) failed with ``err``."""
    label = _EXPERIMENTS[cfg.experiment].label(cfg, lo)
    where = f"point {lo} ({label})" if hi - lo == 1 else f"points {lo}..{hi - 1}"
    return RuntimeError(f"{cfg.experiment} failed at {where}: {err}")


@functools.lru_cache(maxsize=1)
def _payload(cfg: ExperimentConfig) -> dict:
    """The experiment's set-up of ``cfg``, built once per process that runs
    its points; an error is raised, not kept, so every try raises it anew."""
    return _EXPERIMENTS[cfg.experiment].setup(cfg)


def _eval_range(task: tuple) -> list[tuple]:
    """One range task ``(cfg, lo, hi)``, serial or in a pool worker."""
    cfg, lo, hi = task
    return _eval_point((cfg, _payload(cfg), lo, hi))


def _eval_point(args: tuple) -> list[tuple]:
    """Rows of the points in the index range [lo, hi), in point order, from
    the set-up's payload: the unit of work of a sweep."""
    cfg, payload, lo, hi = args
    return _EXPERIMENTS[cfg.experiment].evaluate(cfg, payload, lo, hi)


def _ranges(count: int, pool_size: int, n: int) -> list[tuple[int, int]]:
    """Contiguous index ranges covering ``count`` points of an n-qubit
    sweep: about four per worker, so each costs one round trip, and at most
    :data:`~dqc1.linalg.MAX_STACK_ENTRIES` stacked entries each.  A
    ``verify-theorem1`` point stacks one sampled decomposition, 2 d^2
    entries per array (d = 2**n), so a range holds at most 2048 points at
    n=1, 512 at n=2, 32 at n=4, 2 at n=6 and one from n=7 on."""
    step = max(1, min(count // (4 * pool_size), MAX_STACK_ENTRIES // _draw_entries(2**n)))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every parameter point and return rows in point order."""
    count = _EXPERIMENTS[cfg.experiment].count(cfg)
    # a pool only on request, and never larger than the host: rows never depend on it
    pool_size = min(cfg.workers or 1, count, os.cpu_count() or 1)
    tasks = [(cfg, lo, hi) for lo, hi in _ranges(count, pool_size, cfg.n)]
    try:  # a pool's parent sets nothing up: each worker does, on its first task
        if pool_size > 1:
            with ProcessPoolExecutor(pool_size) as pool:
                outputs = list(pool.map(_eval_range, tasks))
        else:
            outputs = list(map(_eval_range, tasks))
    finally:
        _payload.cache_clear()
    return [ResultRow.build(cfg.experiment, *row, cfg.seed) for out in outputs for row in out]


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
    path = Path(path)
    if fmt == "csv":
        # a row's fields are in _HEADER order; %.17g formats as format(x, ".17g")
        line = "%s,%s,%.17g,%.17g,%.17g,%.17g,%d\n"
        path.write_text(",".join(_HEADER) + "\n" + "".join(line % tuple(vars(r).values()) for r in rows))
    elif fmt == "json":
        path.write_text(json.dumps([asdict(row) for row in rows], indent=2) + "\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
