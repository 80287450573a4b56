"""One-clean-qubit circuit: a polarized control qubit, a Hadamard, and a
controlled unitary acting on a maximally mixed (or user-supplied) register.

The control qubit is described either by a polarization ``alpha`` along z or
by a full Bloch vector; both are stored canonically as a Bloch vector so that
``from_alpha(alpha)`` and ``from_bloch((0, 0, alpha))`` are the same object and
produce bit-identical results everywhere downstream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SeededRng,
    TOL_CONSTRUCT,
    _as_array,
    _check_count,
    _check_density,
    _check_unitary,
    haar_unitary,
    kron,
    load_matrix,
    brief,
    trace_overlap,
)

#: Largest register size an instance will accept (joint dimension 2**11).
MAX_QUBITS = 10

_PAULI_1Q = {
    "I": np.eye(2, dtype=np.complex128),
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
}


@dataclass(frozen=True)
class ControlQubit:
    """Control-qubit state, stored as a Bloch vector.

    Every construction path validates: the vector must have three finite
    components and norm <= 1; a norm past 1 by at most ``TOL_CONSTRUCT`` is
    scaled back onto the sphere.  :meth:`from_alpha` (z polarization in
    (0, 1]) and :meth:`from_bloch` build equal objects for equal vectors.
    """

    bloch: tuple[float, float, float]

    def __post_init__(self):
        p = tuple(float(x) for x in self.bloch)
        if len(p) != 3:
            raise ValueError("bloch vector must have three components")
        if not all(math.isfinite(x) for x in p):
            raise ValueError(f"bloch vector components must be finite, got {p}")
        norm = _bloch_norm(p)
        if norm > 1.0 + TOL_CONSTRUCT:
            raise ValueError(f"bloch vector norm {norm} exceeds 1")
        if norm > 1.0:  # past the sphere by roundoff: scale back onto it
            p = tuple(x / norm for x in p)
        object.__setattr__(self, "bloch", p)

    @classmethod
    def from_alpha(cls, alpha: float) -> "ControlQubit":
        if not (isinstance(alpha, numbers.Real) and 0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {brief(alpha)}")
        return cls(bloch=(0.0, 0.0, alpha))

    @classmethod
    def from_bloch(cls, p) -> "ControlQubit":
        return cls(bloch=p)

    @property
    def polarization(self) -> float:
        """Bloch-vector norm, at most 1 even where rescaling left the vector
        an ulp long, so both eigenvalues (1 +- polarization)/2 are >= 0."""
        return min(1.0, _bloch_norm(self.bloch))

    def density(self) -> np.ndarray:
        p1, p2, p3 = self.bloch
        return 0.5 * (
            np.eye(2, dtype=np.complex128) + p1 * SIGMA_X + p2 * SIGMA_Y + p3 * SIGMA_Z
        )

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvector columns and descending eigenvalues of the state.

        The eigenvalues are (1 +- polarization)/2.  The eigenvector phase is
        fixed so the matrix is exactly the identity for a z-polarized control
        (and for the fully mixed case).
        """
        p1, p2, p3 = self.bloch
        gamma = self.polarization
        vals = np.array([(1.0 + gamma) / 2.0, (1.0 - gamma) / 2.0])
        if gamma == 0.0 or (p1 == 0.0 and p2 == 0.0 and p3 > 0.0):
            return np.eye(2, dtype=np.complex128), vals
        cos_t = min(1.0, max(-1.0, p3 / gamma))
        c = math.sqrt((1.0 + cos_t) / 2.0)
        s = math.sqrt((1.0 - cos_t) / 2.0)
        phase = complex(math.cos(math.atan2(p2, p1)), math.sin(math.atan2(p2, p1)))
        vecs = np.array(
            [[c, -s * phase.conjugate()], [s * phase, c]], dtype=np.complex128
        )
        return vecs, vals


def _bloch_norm(p) -> float:
    p1, p2, p3 = p
    if p1 == 0.0 and p2 == 0.0:
        return abs(p3)  # exact for axis-aligned vectors
    return math.sqrt(p1 * p1 + p2 * p2 + p3 * p3)


@dataclass(frozen=True)
class Dqc1Instance:
    """A register size, the unitary under test, the control state, and the
    register state (by default the maximally mixed one, built unchecked).
    The arrays are validated once, at construction, and must not be mutated."""

    n: int
    unitary: np.ndarray
    control: ControlQubit
    system_state: np.ndarray | None = None

    def __post_init__(self):
        _check_count("n", self.n, 1, MAX_QUBITS)
        dim = 2**self.n
        object.__setattr__(self, "unitary", _check_unitary("unitary", self.unitary, dim))
        if self.system_state is None:
            rho = np.eye(dim, dtype=np.complex128) / dim
        else:
            rho = _check_density("system_state", self.system_state, dim)
        object.__setattr__(self, "system_state", rho)

    @property
    def dim(self) -> int:
        return 2**self.n

    @cached_property
    def overlap(self) -> complex:
        """t = Tr(U rho_n), the one number the readout depends on: taken by
        :func:`~dqc1.linalg.trace_overlap` on first use, then kept."""
        return trace_overlap(self.unitary, self.system_state)


def general_final_control(
    control: ControlQubit, rho_n: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Control-qubit marginal after the circuit, for any control Bloch vector
    and any register state, computed by full density-matrix evolution.

    This is the package's one dense oracle, the step-by-step check of
    :func:`final_control_closed`: it multiplies out V = CU (H (x) I) on the
    joint state rho_c (x) rho_n, at O(d^3) time and O(d^2) memory in the
    joint dimension 2d."""
    rho_n = _check_density("rho_n", rho_n)
    dim = rho_n.shape[0]
    u = _check_unitary("u", u, dim)
    cu = np.eye(2 * dim, dtype=np.complex128)  # |0><0| (x) I + |1><1| (x) U
    cu[dim:, dim:] = u
    v = cu @ kron(HADAMARD, np.eye(dim, dtype=np.complex128))
    joint = v @ kron(control.density(), rho_n) @ v.conj().T
    # trace out the register: the control index leads each (2, d) factor
    return np.trace(joint.reshape(2, dim, 2, dim), axis1=1, axis2=3)


def final_control_closed(
    control: ControlQubit, rho_n: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Control-qubit marginal after the circuit, in closed form.

    Knill-Laflamme one-clean-qubit identity: the marginal is H rho_c H with
    entry [0, 1] scaled by conj(t) and entry [1, 0] by t, where
    t = Tr(U rho_n).  Valid for any control Bloch vector and register
    state; O(d^2) in the register dimension d after O(d^3) argument checks.
    """
    rho_n = _check_density("rho_n", rho_n)
    return _closed_marginal(control, trace_overlap(_check_unitary("u", u, len(rho_n)), rho_n))


def _closed_marginal(control: ControlQubit, t: complex) -> np.ndarray:
    """The Knill-Laflamme marginal of :func:`final_control_closed` at a given t."""
    out = HADAMARD @ control.density() @ HADAMARD
    out[0, 1] *= t.conjugate()
    out[1, 0] *= t
    return out


def linear_entropy_closed(p, t: complex) -> float:
    """Closed form of 1 - Tr(rho_f^2) for control Bloch vector ``p`` and
    register trace overlap ``t`` = Tr(U rho_n)."""
    p1, p2, p3 = (float(x) for x in p)
    if not (_bloch_norm((p1, p2, p3)) <= 1.0 + TOL_CONSTRUCT and abs(t) <= 1.0 + TOL_CONSTRUCT):
        raise ValueError(f"p and t must have norm at most 1, got p={brief(p)}, t={brief(t)}")
    return 0.5 * (1.0 - p1 * p1 - (p2 * p2 + p3 * p3) * abs(t) ** 2)


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"XZ"`` or ``"IYX"``."""
    if not isinstance(label, str) or not label or any(ch not in _PAULI_1Q for ch in label):
        raise ValueError(f"pauli label must be a nonempty string over IXYZ, got {brief(label)}")
    out = _PAULI_1Q[label[0]]
    for ch in label[1:]:
        out = kron(out, _PAULI_1Q[ch])
    return out


def diag_phase_unitary(phases) -> np.ndarray:
    """Diagonal unitary diag(e^{i phi_k}) from a sequence of angles."""
    phases = _as_array("phases", phases, np.float64)
    if phases.ndim != 1 or phases.size == 0:
        raise ValueError("phases must be a nonempty 1-D sequence")
    bad = np.flatnonzero(~np.isfinite(phases))
    if bad.size:  # lists at most three, so the message stays one short line
        listed = ", ".join(f"angle {k} is {phases[k]}" for k in bad[:3])
        more = f" (and {bad.size - 3} more)" if bad.size > 3 else ""
        raise ValueError(f"diag-phase angles must be finite: {listed}{more}")
    return np.diag(np.exp(1j * phases))


def unitary_from_spec(spec: str, n: int, rng: SeededRng | None = None) -> np.ndarray:
    """Build the register unitary named by a compact spec string.

    Grammar: ``haar`` | ``identity`` | ``pauli:<IXYZ string>`` |
    ``diag-phase:<comma-separated angles>`` | ``file:<path>``.

    ``haar`` needs an rng; ``pauli`` needs one letter per register qubit;
    ``diag-phase`` needs 2**n angles; ``file`` loads the JSON matrix format
    and checks unitarity.
    """
    _check_count("n", n, 1, MAX_QUBITS)
    if not isinstance(spec, str):
        raise ValueError(f"spec must be a unitary spec string, got {brief(spec)}")
    dim = 2**n
    if spec == "haar":
        if rng is None:
            raise ValueError("unitary spec 'haar' requires a random stream")
        return haar_unitary(dim, rng)
    if spec == "identity":
        return np.eye(dim, dtype=np.complex128)
    if spec.startswith("pauli:"):
        label = spec[len("pauli:") :]
        if len(label) != n:
            raise ValueError(f"pauli spec {brief(label)} has {len(label)} letters, expected n={n}")
        return pauli_string(label)
    if spec.startswith("diag-phase:"):
        body = spec[len("diag-phase:") :]
        try:
            phases = [float(x) for x in body.split(",")]
        except ValueError as err:
            raise ValueError(f"diag-phase spec has a non-numeric entry: {brief(body)}") from err
        if len(phases) != dim:
            raise ValueError(f"diag-phase spec has {len(phases)} angles, expected 2**n = {dim}")
        return diag_phase_unitary(phases)
    if spec.startswith("file:"):
        return _check_unitary("matrix file", load_matrix(spec[len("file:") :]), dim)
    raise ValueError(f"unknown unitary spec {brief(spec)}")
