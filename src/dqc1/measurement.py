"""Control-qubit readout: Pauli expectations, binomial shot sampling, trace
estimation from the two quadratures, and the rounds-vs-accuracy bookkeeping
that links measurement cost to extractable entanglement.

The readout is closed form (:func:`dqc1.circuit.final_control_closed`, the
Knill-Laflamme one-clean-qubit identity): after the Hadamard and the
controlled-U the control marginal is H rho_c H with its off-diagonals scaled
by t = Tr(U rho_n) and its conjugate, so for a control with z polarization
``alpha``

    <sigma_x> = alpha * Re Tr(U rho_n),    <sigma_y> = alpha * Im Tr(U rho_n),

and the estimator inverts as (mean_x + i * mean_y) / alpha.  An instance takes
t once, an O(d^2) sum it keeps (:attr:`~dqc1.circuit.Dqc1Instance.overlap`); a
sweep or ``dqc1 estimate-trace`` builds none, and samples from the Tr U / d it
reports.  The dense joint state is never built: its evolution
(:func:`dqc1.circuit.general_final_control`) is only the tests' oracle.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import _ALPHA, ControlQubit, Dqc1Instance, _closed_marginal
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, SeededRng, TOL_CONSTRUCT, brief
from .linalg import _check_complex, _check_count, _check_matrix, _check_real, _check_type

_PAULI_AXIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

#: Most shots one readout axis takes.  Below 2**53, so the hit count and the
#: estimator's ``2 * hits - shots`` are exact in float64, and far inside the
#: C long range numpy's binomial sampler reads the count in.
MAX_SHOTS = 10**15

#: Largest error target whose square is finite.
_MAX_EPS = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class TraceEstimate:
    """Result of a two-quadrature trace estimation run."""

    n: int
    alpha: float
    shots_x: int
    shots_y: int
    mean_x: float
    mean_y: float
    stderr_x: float
    stderr_y: float
    trace_estimate: complex


@dataclass(frozen=True)
class ErrorBudget:
    """Per-axis absolute error targets and failure probabilities."""

    eps_x: float
    eps_y: float
    pe_x: float
    pe_y: float

    @property
    def m(self) -> float:
        """Shot-count weight ln(1/pe_x)/eps_x^2 + ln(1/pe_y)/eps_y^2."""
        return _weight(self.eps_x, self.pe_x) + _weight(self.eps_y, self.pe_y)


def _weight(eps, pe) -> float:
    """One axis's term ln(1/pe)/eps^2 of the weight m, in floats; inf where eps^2 underflows."""
    square = float(eps) ** 2
    return math.log(1.0 / float(pe)) / square if square else math.inf


def expect_pauli(rho_f: np.ndarray, axis: str) -> float:
    """Real Pauli expectation Tr(rho_f sigma_axis) of a one-qubit state."""
    rho_f = _check_matrix("rho_f", rho_f, 2)
    if axis not in tuple(_PAULI_AXIS):  # a tuple: an unhashable axis is named too
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {brief(axis)}")
    with np.errstate(all="ignore"):  # huge entries sum to inf or nan
        val = float(np.trace(rho_f @ _PAULI_AXIS[axis]).real)
    if not math.isfinite(val):
        raise ValueError(f"rho_f has a sigma_{axis} expectation past the largest float")
    return val


def sample_shots(p: float, shots: int, rng: SeededRng) -> int:
    """Number of +1 outcomes in ``shots`` Bernoulli trials with P(+1) = p,
    for an integer 1 <= shots <= :data:`MAX_SHOTS`."""
    _check_count("shots", shots, 1, MAX_SHOTS)
    _check_real("p", p, -TOL_CONSTRUCT, 1.0 + TOL_CONSTRUCT)
    _check_type("rng", rng, SeededRng)
    p = min(1.0, max(0.0, p))
    return int(rng.gen.binomial(shots, p))


def readout_alpha(control: ControlQubit) -> float:
    """The z polarization trace readout divides by.  A transverse component
    would mix the quadratures, so it is rejected rather than approximated,
    and so is a polarization that leaves no signal or one too small to
    divide by (its reciprocal overflows)."""
    _check_type("control", control, ControlQubit)
    p1, p2, p3 = control.bloch
    if p1 != 0.0 or p2 != 0.0:
        raise ValueError("trace estimation requires a z-polarized control")
    if p3 <= 0.0:
        raise ValueError("control polarization is zero; no signal to estimate")
    if math.isinf(1.0 / p3):
        raise ValueError(f"control polarization alpha={p3!r} is too small: 1/alpha overflows")
    return p3


def estimate_trace(inst: Dqc1Instance, shots: int, rng: SeededRng) -> TraceEstimate:
    """Estimate Tr(U rho_n) from finite-shot x and y control readout.

    Each axis gets its own ``shots`` independent rounds, sampled from the
    instance's kept t (:attr:`~dqc1.circuit.Dqc1Instance.overlap`); for the
    default maximally mixed register this estimates the normalized trace of U.
    """
    _check_type("inst", inst, Dqc1Instance)
    return _estimate_trace(inst.n, inst.control, inst.overlap, shots, rng)


def _estimate_trace(n: int, control: ControlQubit, t: complex, shots: int, rng: SeededRng) -> TraceEstimate:
    """:func:`estimate_trace` on ``n`` register qubits whose overlap is ``t``."""
    alpha = readout_alpha(control)
    rho_f = _closed_marginal(control, t)

    means, errs = [], []
    for axis in ("x", "y"):
        p_plus = (1.0 + expect_pauli(rho_f, axis)) / 2.0
        hits = sample_shots(p_plus, shots, rng)
        mean = (2.0 * hits - shots) / shots
        means.append(mean)
        if shots > 1:
            errs.append(math.sqrt(max(0.0, 1.0 - mean * mean) / (shots - 1)))
        else:
            errs.append(float("nan"))

    return TraceEstimate(
        n=n,
        alpha=alpha,
        shots_x=shots,
        shots_y=shots,
        mean_x=means[0],
        mean_y=means[1],
        stderr_x=errs[0],
        stderr_y=errs[1],
        trace_estimate=complex(means[0], means[1]) / alpha,
    )


def error_budget(eps_x: float, eps_y: float, pe_x: float, pe_y: float) -> ErrorBudget:
    """A checked :class:`ErrorBudget`, its weight ``m`` finite; an error names the field at fault."""
    for name, eps in (("eps_x", eps_x), ("eps_y", eps_y)):  # m divides by eps^2
        _check_real(name, eps, 0, _MAX_EPS, "(]", "be positive with a finite square")
    for name, pe in (("pe_x", pe_x), ("pe_y", pe_y)):
        _check_real(name, pe, 0, 1, "()")
        if math.isinf(math.log(1.0 / float(pe))):
            raise ValueError(f"{name} must leave ln(1/{name}) finite, got {brief(pe)}")
    budget = ErrorBudget(eps_x=eps_x, eps_y=eps_y, pe_x=pe_x, pe_y=pe_y)
    if math.isinf(budget.m):  # the eps of the larger term is at fault
        name = "eps_x" if _weight(eps_x, pe_x) >= _weight(eps_y, pe_y) else "eps_y"
        raise ValueError(f"{name} must leave the weight m finite, got {brief(getattr(budget, name))}")
    return budget


def rounds_for_budget(budget: ErrorBudget, alpha: float, t: complex) -> float:
    """Rounds implied by a relative-error budget on the trace value ``t``.

    Each axis demands ln(1/pe) / (alpha * eps * quadrature)^2 rounds.  An
    axis whose quadrature is exactly zero is dropped with a warning; if the
    two axes disagree beyond 1e-9 relative the larger count wins, also with
    a warning, since a consistent budget should tune them equal.
    """
    _check_type("budget", budget, ErrorBudget)
    _check_real("alpha", alpha, *_ALPHA)
    t = _check_complex("t", t)
    candidates = []
    for label, eps, pe, quad in (
        ("x", budget.eps_x, budget.pe_x, t.real),
        ("y", budget.eps_y, budget.pe_y, t.imag),
    ):
        if quad == 0.0:
            warnings.warn(
                f"{label} quadrature of the target is zero; axis dropped "
                "from the round count",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        try:
            candidates.append(math.log(1.0 / pe) / (alpha * eps * quad) ** 2)
        except ArithmeticError:  # the signal under- or overflows
            candidates.append(math.inf)
        if not candidates[-1] < math.inf:
            raise ValueError(f"alpha * eps * quadrature leaves the float range on the {label} axis")
    if not candidates:
        raise ValueError("t has both quadratures zero; no rounds can be assigned")
    if len(candidates) == 2:
        lo, hi = sorted(candidates)
        if hi - lo > 1e-9 * hi:
            warnings.warn(
                f"per-axis round counts disagree ({lo:.6g} vs {hi:.6g}); "
                "taking the larger",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(candidates)


def entpower_from_rounds(alpha: float, m: float, rounds: float) -> float:
    """Entangling power reachable at round count ``rounds`` under shot
    budget weight ``m``: sqrt(alpha^2 - m/rounds)."""
    _check_real("alpha", alpha, *_ALPHA)
    _check_real("rounds", rounds, 0, math.inf, "()")
    _check_real("m", m, 0, math.inf, "[)")
    val = alpha**2 - m / rounds
    if val < -TOL_CONSTRUCT:
        raise ValueError(
            f"budget m={m} is not achievable within {rounds} rounds at alpha={alpha}"
        )
    return math.sqrt(max(0.0, val))

