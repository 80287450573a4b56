"""Entangling power of the one-clean-qubit circuit.

The circuit's power to entangle the control with the register is quantified
by E = sqrt(2 (1 - Tr rho_r^2)) of the register marginal, maximized over
pure-state realizations of the register density matrix and minimized over
decompositions of each mixed branch.  Closed forms:

* fully polarized control: sqrt(1 - |Tr U / 2^n|^2), saturated by the
  Fourier-superposition ensemble of U's eigenvectors;
* z polarization alpha: exactly alpha times the fully polarized value;
* general Bloch vector: the fully-polarized value scales by lambda_1 -
  lambda_2, the gap of the square-rooted spectrum of
  rho_c sigma_z rho_c^* sigma_z, and for a general register state it is
  sandwiched between 1 - Tr sqrt(U rho U^+ rho) and sqrt(1 - |Tr U rho|^2).

Every closed form here has an independent sampling route in this module
(ensemble_average, brute_force_entpower, brute_force_min_mixing) so the two
can be checked against each other.  The sampled entangling-power routes
score every branch with one kernel, sqrt(1 - |<phi|U|phi>|^2) as the norm
of U phi's component orthogonal to phi, times the control's lambda gap, and
every stack of sampled register decompositions with one scorer, _DrawScorer,
which holds a brute-force search's whole alpha-free half, Fourier candidate too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import ControlQubit, Dqc1Instance
from .linalg import (
    MAX_STACK_ENTRIES,
    SeededRng,
    TOL_SPECTRAL,
    _as_array,
    _check_count,
    _check_density,
    _check_real,
    _check_type,
    _check_unitary,
    _eig_unitary,
    eig_hermitian,
    is_right_unitary,
    random_right_unitary,
)

_SQRT2 = np.sqrt(2.0)


@dataclass(eq=False)
class PureEnsemble:
    """Weighted pure states; columns of ``states`` are the state vectors."""

    weights: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.weights = _as_array("weights", self.weights, np.float64)
        # C order: a column sum over an F-ordered array (as decompose_from_T
        # can return) takes other bits, so an average would hang on layout
        self.states = np.ascontiguousarray(_as_array("states", self.states))
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError(f"weights must be 1-D and nonempty, got shape {self.weights.shape}")
        if self.states.ndim != 2 or self.states.shape[1] != self.weights.size:
            raise ValueError(f"states must be 2-D, a column per weight, got shape {self.states.shape}")
        if not self.weights.min() > 0.0:
            raise ValueError("weights must be positive")
        with np.errstate(all="ignore"):  # an inf, nan or huge entry sums or norms to inf or nan
            total = self.weights.sum()
            norms = np.linalg.norm(self.states, axis=0)
        if not abs(total - 1.0) <= TOL_SPECTRAL:
            raise ValueError(f"weights sum to {total}, expected 1")
        if not np.max(np.abs(norms - 1.0)) <= TOL_SPECTRAL:
            raise ValueError("states must be finite, normalized columns")

    @property
    def size(self) -> int:
        """Member count."""
        return self.weights.size

    def density(self) -> np.ndarray:
        return (self.states * self.weights) @ self.states.conj().T


@dataclass(eq=False)
class BranchCoefficients:
    """Per-member amplitudes of a control-state decomposition pushed through
    the circuit: member j of the branch is x_j |0>|phi> + y_j |1>U|phi>
    with weight |x_j|^2 + |y_j|^2."""

    xs: np.ndarray
    ys: np.ndarray


def entpower_standard(u: np.ndarray) -> float:
    """Closed form sqrt(1 - |Tr U / d|^2) for a fully polarized control and
    maximally mixed register: the branch formula on vec(I) / sqrt(d), which
    does not cancel near |Tr U / d| = 1."""
    return _standard(_check_unitary("u", u))


def _standard(u: np.ndarray) -> float:
    """:func:`entpower_standard` of a unitary the package built or checked."""
    d = len(u)
    return float(_branch_entanglement(np.eye(d).reshape(-1, 1), u.reshape(-1, 1), d)[0])


def entpower_alpha(u: np.ndarray, alpha: float) -> float:
    """Linear scaling of the closed form with z polarization alpha."""
    return _entpower_alpha(_check_unitary("u", u), alpha)


def _entpower_alpha(u: np.ndarray, alpha: float) -> float:
    """:func:`entpower_alpha` of a unitary the package built or checked; alpha is checked."""
    _check_real("alpha", alpha, 0, 1)
    return abs(alpha) * _standard(u)  # alpha -0.0 passes, and gives +0.0


def fourier_ensemble(u: np.ndarray) -> PureEnsemble:
    """Equal-weight ensemble of Fourier superpositions of U's eigenvectors.

    Member j is d^{-1/2} sum_k e^{2 pi i jk/d} |v_k>.  The ensemble realizes
    the maximally mixed state, and every member has the same overlap
    <phi|U|phi> = Tr U / d, which is what makes it saturate the closed form.
    """
    return _fourier_ensemble(_check_unitary("u", u))


def _fourier_ensemble(u: np.ndarray) -> PureEnsemble:
    """:func:`fourier_ensemble` of a unitary the package built or checked."""
    spec = _eig_unitary(u)
    d = spec.eigenvalues.size
    grid = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(grid, grid) / d) / np.sqrt(d)
    return PureEnsemble(weights=np.full(d, 1.0 / d), states=spec.eigenvectors @ fourier)


def decompose_from_T(target: np.ndarray, t_mat: np.ndarray) -> PureEnsemble:
    """Pure-state ensemble of ``target`` selected by a right-unitary matrix.

    With eigendecomposition target = Phi M Phi^+ restricted to its support,
    the (unnormalized) members are the columns of Phi sqrt(M) T; every
    ensemble of the target arises this way for some right-unitary T
    (Hughston, Jozsa and Wootters, Phys. Lett. A 183, 14, 1993).  T must
    have one row per support dimension (eigenvalues the rows do not cover
    must vanish) and satisfy T T^+ = I.  A column T zeroes out carries no
    member and is dropped.
    """
    spec = eig_hermitian(_check_density("target", target))
    t_mat = _as_array("T", t_mat)
    if t_mat.ndim != 2 or not is_right_unitary(t_mat, TOL_SPECTRAL):
        raise ValueError("T must be a 2-D matrix with orthonormal rows (T T^+ = I)")
    rows = t_mat.shape[0]
    if rows > spec.eigenvalues.size:
        raise ValueError(f"T has {rows} rows but the target dimension is {spec.eigenvalues.size}")
    discarded = spec.eigenvalues[rows:]
    if discarded.size and discarded.max() > TOL_SPECTRAL:
        raise ValueError(
            f"T has {rows} rows but the target carries weight "
            f"{discarded.max():.3e} outside their span"
        )
    kept = np.clip(spec.eigenvalues[:rows], 0.0, None)
    members = (spec.eigenvectors[:, :rows] * np.sqrt(kept)) @ t_mat
    weights = np.linalg.norm(members, axis=0) ** 2
    keep = weights > 1e-15
    members, weights = members[:, keep], weights[keep]
    return PureEnsemble(weights=weights, states=members / np.sqrt(weights))


def branch_coefficients(control: ControlQubit, t_mat: np.ndarray) -> BranchCoefficients:
    """Push a control-state decomposition through the circuit.

    The control eigendecomposition Phi, M and a right-unitary T define
    decomposition members Phi sqrt(M) T[:, j]; after the Hadamard each one
    becomes x_j |0>|phi> + y_j |1>U|phi> with

        x_j = (T_1j (Phi_11 + Phi_21) sqrt(M_1)
               + T_2j (Phi_12 + Phi_22) sqrt(M_2)) / sqrt(2)

    and y_j the same with minus signs inside the parentheses.  ``t_mat`` may
    be a stack of shape (..., 2, cols); the coefficients then carry the same
    leading axes.
    """
    _check_type("control", control, ControlQubit)
    t_mat = _as_array("T", t_mat)
    if t_mat.ndim < 2 or t_mat.shape[-2] != 2:
        raise ValueError(f"T must have exactly 2 rows, got shape {t_mat.shape}")
    if not is_right_unitary(t_mat, TOL_SPECTRAL):
        raise ValueError("T rows are not orthonormal (T T^+ != I)")
    return _branch_coefficients(control, t_mat)


def _branch_coefficients(control: ControlQubit, t_mat: np.ndarray) -> BranchCoefficients:
    """:func:`branch_coefficients` of a ``T`` the package built right-unitary
    (a QR draw, or :func:`analytic_min_T`'s polar factor), left unchecked."""
    vecs, vals = control.eigensystem()
    s0, s1 = np.sqrt(vals[0]), np.sqrt(vals[1])
    plus0 = (vecs[0, 0] + vecs[1, 0]) * s0
    plus1 = (vecs[0, 1] + vecs[1, 1]) * s1
    minus0 = (vecs[0, 0] - vecs[1, 0]) * s0
    minus1 = (vecs[0, 1] - vecs[1, 1]) * s1
    row0, row1 = t_mat[..., 0, :], t_mat[..., 1, :]
    xs = (row0 * plus0 + row1 * plus1) / _SQRT2
    ys = (row0 * minus0 + row1 * minus1) / _SQRT2
    return BranchCoefficients(xs=xs, ys=ys)


def mixing_factor(coeffs: BranchCoefficients) -> float | np.ndarray:
    """sum_j 2 |x_j| |y_j|: the entanglement cost of a decomposition, per
    unit of branch entanglement.  Lies in [lambda gap, 1].  Sums over the
    last axis: a float for one decomposition, an array for a stack."""
    _check_type("coeffs", coeffs, BranchCoefficients)
    total = np.sum(2.0 * np.abs(coeffs.xs) * np.abs(coeffs.ys), axis=-1)
    return float(total) if total.ndim == 0 else total


def lambda_factor(control: ControlQubit) -> float:
    """Gap lambda_1 - lambda_2 of the square-rooted spectrum of
    rho_c sigma_z rho_c^* sigma_z: the minimal mixing factor over all
    decompositions of the control state.

    For Bloch vector p, sigma_z rho_c^* sigma_z has Bloch vector
    q = (-p1, p2, p3), so the product is (I + p.sigma)(I + q.sigma)/4 with
    eigenvalues ((sqrt(1 - p1^2) +- sqrt(p2^2 + p3^2)) / 2)^2.  The gap of
    their square roots is hypot(p2, p3).
    """
    _check_type("control", control, ControlQubit)
    _, p2, p3 = control.bloch
    return math.hypot(p2, p3)


def analytic_min_T(control: ControlQubit) -> np.ndarray:
    """Right-unitary T achieving the minimal mixing factor.

    After the Hadamard a member with weight r and unit Bloch vector n costs
    r |n_perp|, n_perp its y-z part, so by the triangle inequality no
    decomposition costs less than |p_perp| = hypot(p2, p3), the lambda gap.
    The pure members (+-c, p2, p3), c = sqrt(1 - p2^2 - p3^2), with weights
    (1 +- p1/c)/2 (1/2 each when c = 0) attain it.  For their weighted
    vectors V, T is the polar factor W Vh of sqrt(M) Phi^+ V = W S Vh: it
    equals M^(-1/2) Phi^+ V where M is invertible, and stays exactly unitary
    on a pure control, so nothing divides by sqrt(M).
    """
    _check_type("control", control, ControlQubit)
    p1, p2, p3 = control.bloch
    perp = math.hypot(p2, p3)
    c = math.sqrt(max(p1 * p1, (1.0 - perp) * (1.0 + perp)))  # keeps |p1| <= c
    tilt = p1 / c if c > 0.0 else 0.0
    n1 = np.array([c, -c])
    # unit vectors of Bloch (n1, p2, p3), in the chart that keeps 1 +- p3 >= 1
    if p3 >= 0.0:
        states = np.array([np.full(2, 1.0 + p3), n1 + 1j * p2]) / math.sqrt(2.0 * (1.0 + p3))
    else:
        states = np.array([n1 - 1j * p2, np.full(2, 1.0 - p3)]) / math.sqrt(2.0 * (1.0 - p3))
    members = states * np.sqrt(0.5 * (1.0 + np.array([tilt, -tilt])))
    vecs, vals = control.eigensystem()
    w, _, vh = np.linalg.svd(np.sqrt(vals)[:, None] * (vecs.conj().T @ members))
    return w @ vh


def _branch_entanglement(vecs: np.ndarray, u_vecs: np.ndarray, sq, work=None) -> np.ndarray:
    """Pure-branch entanglement sqrt(1 - |<phi|U|phi>|^2) of every column
    phi = vec / sqrt(sq) of ``vecs`` (axis -2), given U vec in ``u_vecs`` and
    each column's squared norm sq > 0.

    It is computed as ||U phi - <phi|U phi> phi||, the norm of U phi's
    component orthogonal to phi, one Gram-Schmidt step: the same quantity,
    but it does not cancel near |<phi|U|phi>| = 1 and vanishes to roundoff on
    the trivial circuit.  On phi = vec(R) with U acting on R's rows it is
    sqrt(1 - |Tr U R R^+|^2).  The temporaries go into ``work``, two private
    complex arrays of ``u_vecs``' shape, made here if not given.
    """
    x, square = np.empty((2, *u_vecs.shape), complex) if work is None else work
    overlap = np.add.reduce(np.multiply(np.conjugate(vecs, out=x), u_vecs, out=x), axis=-2) / sq
    np.subtract(u_vecs, np.multiply(overlap[..., None, :], vecs, out=x), out=x)
    np.multiply(np.conjugate(x, out=square), x, out=square)  # np.linalg.norm's own sum
    return np.sqrt(np.add.reduce(square.real, axis=-2)) / np.sqrt(sq)


def ensemble_average(inst: Dqc1Instance, ens: PureEnsemble) -> float:
    """Weighted branch entanglement of the circuit over a register ensemble.

    The ensemble must realize the instance's register state.  Each member
    phi scores the pure-branch value sqrt(1 - |<phi|U|phi>|^2) scaled by the
    control's minimal mixing factor, the lambda gap (1 for a fully polarized
    control, whose branches are pure), for all members in one pass.
    """
    _check_type("inst", inst, Dqc1Instance)
    _check_type("ens", ens, PureEnsemble)
    gap = ens.density() - inst.system_state if len(ens.states) == inst.dim else np.inf
    if not np.max(np.abs(gap)) <= TOL_SPECTRAL:
        raise ValueError("ens does not realize the instance's register state")
    return _average(ens.weights, _member_branches(inst.unitary, ens), lambda_factor(inst.control))


def _average(weights: np.ndarray, branch: np.ndarray, mix: float) -> float:
    """Ensemble average of members' pure-branch values at lambda gap ``mix``:
    :func:`ensemble_average` of an ensemble the package built of the register."""
    return float(np.dot(weights, mix * branch))


def _member_branches(u: np.ndarray, ens: PureEnsemble) -> np.ndarray:
    """Pure-branch value under ``u`` of each member of an ensemble of the register state."""
    states = ens.states
    sq = np.sum(states.conj() * states, axis=0).real
    return _branch_entanglement(states, u @ states, sq)


def entpower_bounds(u: np.ndarray, rho_n: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds on the entangling power for an arbitrary
    register state and fully polarized control:
    1 - Tr sqrt(U rho U^+ rho) <= E_p <= sqrt(1 - |Tr(U rho)|^2).

    One eigensolve gives R = sqrt(rho), with roundoff below 0 clipped.  The
    root fidelity is the sum of the singular values of R U R (Uhlmann), and
    the upper bound is the branch formula on the purification vec(R) / ||R||_F.
    """
    u = _check_unitary("u", u)
    return _bounds(u, _check_density("rho_n", rho_n, len(u)))


def _bounds(u: np.ndarray, rho_n: np.ndarray) -> tuple[float, float]:
    """:func:`entpower_bounds` of a unitary and register the package built or checked."""
    spec = eig_hermitian(rho_n)
    vecs = spec.eigenvectors
    root = (vecs * np.sqrt(np.clip(spec.eigenvalues, 0.0, None))) @ vecs.conj().T
    lower = 1.0 - float(np.sum(np.linalg.svd(root @ u @ root, compute_uv=False)))
    vec = root.reshape(-1, 1)
    upper = _branch_entanglement(vec, (u @ root).reshape(-1, 1), np.vdot(vec, vec).real)
    return lower, float(upper[0])


def _stack_draws(per_sample: int) -> int:
    """Draws per stack: ``per_sample`` entries each, at most ``MAX_STACK_ENTRIES`` in all, or one."""
    return max(1, MAX_STACK_ENTRIES // per_sample)


def _right_unitary_stacks(rows: int, cols: int, lo: int, hi: int, streams, per_sample: int):
    """Draws lo..hi-1 of :func:`random_right_unitary`, in order, in stacks of
    at most :func:`_stack_draws` draws: the one splitter of sampled stacks.
    ``streams(a, b)`` lists the streams of draws a..b-1, called per stack."""
    step = _stack_draws(per_sample)
    for a in range(lo, hi, step):
        yield random_right_unitary(rows, cols, streams(a, min(a + step, hi)))


def brute_force_min_mixing(
    control: ControlQubit,
    samples: int,
    cols: int,
    rng: SeededRng,
    *,
    include_analytic: bool = True,
) -> float:
    """Minimal mixing factor over random right-unitary decompositions.

    The analytic minimizer is included as a candidate by default, so the
    result equals the lambda gap up to roundoff; set
    ``include_analytic=False`` to probe how close sampling alone gets.
    """
    _check_type("control", control, ControlQubit)
    _check_count("samples", samples, 1)
    _check_count("cols", cols, 2)
    stacks = _right_unitary_stacks(2, cols, 0, samples, lambda a, b: [rng] * (b - a), 2 * cols)
    best = min(float(mixing_factor(_branch_coefficients(control, t)).min()) for t in stacks)
    if include_analytic:
        best = min(best, mixing_factor(_branch_coefficients(control, analytic_min_T(control))))
    return best


class _DrawScorer:
    """Ensemble averages of sampled decompositions of a register state ``rho``
    under ``u``: a brute-force search's alpha-free half, prepared once.

    A right-unitary ``rank x 2d`` draw T selects the members Phi sqrt(M) T of
    the register state Phi M Phi^+ on its support, as in :func:`decompose_from_T`.
    A call maps a (k, rank, 2d) stack of draws and the control's lambda gap
    ``mix`` to the k averages, each member scored as in :func:`ensemble_average`
    with its squared norm as its weight, and each with the bits of its draw
    alone.  The draws come from :func:`~dqc1.linalg.random_right_unitary`,
    orthonormal by its QR, and go unchecked, as do ``u`` and ``rho``.  A ``rho``
    that is None or within ``TOL_SPECTRAL`` of I/d is I/d, decided here once:
    ``root`` stays None, the members are T's rows reversed and scaled (I/d's
    root is J sqrt(1/d), J the reversal), and :attr:`fourier` is a candidate.
    Stacks are written into four complex work arrays held from the start, sized
    for the largest stack :meth:`scores` cuts; a call returns a fresh array.
    """

    def __init__(self, u: np.ndarray, rho: np.ndarray | None = None):
        d = len(u)
        self.u, self.scale, self.rank, self.root = u, math.sqrt(1 / d), d, None
        if rho is not None and np.max(np.abs(rho - np.eye(d) / d)) > TOL_SPECTRAL:
            spec = eig_hermitian(rho)
            self.rank = int(np.sum(spec.eigenvalues > TOL_SPECTRAL))
            self.root = spec.eigenvectors[:, : self.rank] * np.sqrt(spec.eigenvalues[: self.rank])
        self.u_root = u[:, ::-1] * self.scale if self.root is None else u @ self.root
        self.work = np.empty((4, _stack_draws(2 * d * d), d, 2 * d), complex)

    @functools.cached_property
    def fourier(self):
        """The maximally mixed register's candidate: the Fourier members'
        weights and branch values (one eigensolve, on first use)."""
        ens = _fourier_ensemble(self.u)
        return ens.weights, _member_branches(self.u, ens)

    def __call__(self, t_stack: np.ndarray, mix: float) -> np.ndarray:
        if len(t_stack) > self.work.shape[1]:  # a stack scores did not cut
            self.work = np.empty((4, len(t_stack), *self.work.shape[2:]), complex)
        members, u_members, *work = self.work[:, : len(t_stack)]  # C order: the sums keep their order
        if self.root is None:
            np.multiply(t_stack[..., ::-1, :], self.scale, out=members)
        else:
            np.matmul(self.root, t_stack, out=members)
        square = np.abs(members, out=work[0].real)
        weights = np.add.reduce(np.square(square, out=square), axis=-2)
        branch = _branch_entanglement(members, np.matmul(self.u_root, t_stack, out=u_members), weights, work)
        return (weights[:, None, :] @ (mix * branch)[:, :, None])[:, 0, 0]

    def scores(self, lo: int, hi: int, streams, mix: float):
        """The averages of draws lo..hi-1 (:func:`_right_unitary_stacks`), an
        array per stack; a draw adds d x 2d members, and U times them."""
        dim = len(self.u)
        for t_stack in _right_unitary_stacks(self.rank, 2 * dim, lo, hi, streams, 2 * dim * dim):
            yield self(t_stack, mix)

    def best(self, mix: float, samples: int, rng: SeededRng) -> float:
        """:func:`brute_force_entpower` at lambda gap ``mix``: the largest
        average over ``samples`` draws of ``rng`` and the Fourier candidate."""
        best = _average(*self.fourier, mix) if self.root is None else -np.inf
        scores = self.scores(0, samples, lambda a, b: [rng] * (b - a), mix)
        return max([best] + [float(s.max()) for s in scores])


def brute_force_entpower(inst: Dqc1Instance, samples: int, rng: SeededRng) -> float:
    """Best entangling power found over random register ensembles.

    Draws ``samples`` right-unitary decompositions of the register state
    (rows = its support dimension, columns = twice the register dimension)
    and takes the largest ensemble average.  When the register is maximally
    mixed the Fourier ensemble joins the candidate list, which is what lets
    the search actually attain the closed form.  The samples are scored in
    bounded stacks by one :class:`_DrawScorer`, and the result equals a
    one-sample-at-a-time loop bit for bit.
    """
    _check_type("inst", inst, Dqc1Instance)
    _check_count("samples", samples, 1)
    return _DrawScorer(inst.unitary, inst.system_state).best(lambda_factor(inst.control), samples, rng)
