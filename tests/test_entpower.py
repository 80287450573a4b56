"""Tests for entangling power: closed forms, optimal ensembles, and the
decomposition machinery they are checked against."""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dqc1.entpower
from dqc1.circuit import (
    ControlQubit,
    Dqc1Instance,
    diag_phase_unitary,
    pauli_string,
    unitary_from_spec,
)
from dqc1.entpower import (
    BranchCoefficients,
    PureEnsemble,
    _branch_entanglement,
    _DrawScorer,
    analytic_min_T,
    branch_coefficients,
    brute_force_entpower,
    brute_force_min_mixing,
    decompose_from_T,
    ensemble_average,
    entpower_alpha,
    entpower_bounds,
    entpower_standard,
    fourier_ensemble,
    lambda_factor,
    mixing_factor,
)
from dqc1.linalg import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Z,
    SeededRng,
    TOL_CONSTRUCT,
    TOL_SPECTRAL,
    TOL_VERIFY,
    eig_hermitian,
    eig_unitary,
    haar_unitary,
    is_right_unitary,
    random_density,
    random_right_unitary,
)
from support import BLOCH_EDGES, clustered_unitaries, hard_registers

I2 = np.eye(2, dtype=np.complex128)


def random_bloch(rng):
    v = rng.gen.standard_normal(3)
    v /= np.linalg.norm(v)
    return tuple(v * rng.gen.uniform(0.0, 1.0))


# --- pure-state entanglement -------------------------------------------------
#
# A pure joint state x |0> + y |1> (x, y register vectors, the control factor
# first) has Schmidt product 2 s1 s2 = 2 ||x|| ||y - (x^+ y / ||x||^2) x||,
# which is 2 ||x||^2 times the branch kernel on the rows x and y.  On the
# branch state (|0>|phi> + |1>U|phi>)/sqrt(2) that is the kernel's
# sqrt(1 - |<phi|U|phi>|^2) itself.


def _kernel_schmidt_product(psi):
    """2 s1 s2 of normalized joint states psi (..., 2d) through the kernel."""
    rows = psi.reshape(*psi.shape[:-1], 2, -1)
    x, y = rows[..., 0, :, None], rows[..., 1, :, None]
    sq = np.sum(x.conj() * x, axis=-2).real
    return (2.0 * sq * _branch_entanglement(x, y, sq))[..., 0]


def test_pure_entanglement_product_state():
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = 1.0
    assert _kernel_schmidt_product(psi) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_pure_entanglement_of_product_states_vanishes(n, seed):
    # n = 0 is a one-dimensional register, zero to roundoff with no
    # 1 - purity cancellation (which leaves ~1e-8)
    rng = SeededRng(seed, 0)
    a = rng.gen.standard_normal(2) + 1j * rng.gen.standard_normal(2)
    b = rng.gen.standard_normal(2**n) + 1j * rng.gen.standard_normal(2**n)
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    assert _kernel_schmidt_product(psi) <= 1e-15
    assert np.all(_kernel_schmidt_product(np.stack([psi, psi])) <= 1e-15)


def _schmidt_product_svd(psi):
    """2 s1 s2 from LAPACK's singular values of the 2 x d amplitude matrix:
    the oracle for the branch kernel's Gram-Schmidt form."""
    schmidt = np.linalg.svd(psi.reshape(2, -1), compute_uv=False)
    return 2.0 * schmidt[0] * schmidt[1] if schmidt.size > 1 else 0.0


def _oracle_unitary(kind, dim, rng):
    if kind == "haar":
        return haar_unitary(dim, rng)
    if kind == "identity":
        return np.eye(dim, dtype=np.complex128)
    return diag_phase_unitary(np.eye(dim)[-1] * 1e-8)  # |Tr U / d| a hair below 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["haar", "identity", "diag-phase"])
def test_ensemble_average_matches_the_svd_oracle(n, kind):
    # at alpha 1 every branch is pure, so the average is sum_j w_j 2 s1 s2 of
    # the branch states; the kernel stays within about 2.2e-16 of a 40-digit
    # reference on these, and LAPACK's singular values within about 1.1e-15
    dim = 2**n
    rng = SeededRng(283, n)
    for _ in range(3):
        u = _oracle_unitary(kind, dim, rng)
        inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_alpha(1.0))
        sampled = decompose_from_T(inst.system_state, random_right_unitary(dim, 2 * dim, rng))
        for ens in (fourier_ensemble(u), sampled):
            want = sum(
                w * _schmidt_product_svd(np.concatenate([phi, u @ phi]) / np.sqrt(2.0))
                for w, phi in zip(ens.weights, ens.states.T)
            )
            assert abs(ensemble_average(inst, ens) - want) <= 2e-15


def test_pure_entanglement_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    assert abs(_kernel_schmidt_product(bell) - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_stacked_branch_and_entanglement_match_single_calls(n, count, seed):
    # a stack of member sets gives every set the bits of a call of its own
    rng = SeededRng(seed, 0)
    dim = 2**n
    u = haar_unitary(dim, rng)
    shape = (count, dim, 3)
    vecs = rng.gen.standard_normal(shape) + 1j * rng.gen.standard_normal(shape)
    sq = np.sum(vecs.conj() * vecs, axis=-2).real
    got = _branch_entanglement(vecs, u @ vecs, sq)
    assert got.shape == (count, 3)
    singles = [_branch_entanglement(v, u @ v, s) for v, s in zip(vecs, sq)]
    np.testing.assert_array_equal(got, singles)


def test_branch_entanglement_overlap_identity():
    """For the branch state (|0>|phi> + |1>U|phi>)/sqrt(2) the entanglement
    collapses to sqrt(1 - |<phi|U|phi>|^2)."""
    rng = SeededRng(71, 0)
    for n in (1, 2, 3):
        dim = 2**n
        u = haar_unitary(dim, rng)
        for _ in range(5):
            phi = rng.gen.standard_normal(dim) + 1j * rng.gen.standard_normal(dim)
            phi /= np.linalg.norm(phi)
            overlap = phi.conj() @ u @ phi
            want = np.sqrt(1.0 - abs(overlap) ** 2)
            got = _kernel_schmidt_product(np.concatenate([phi, u @ phi]) / np.sqrt(2.0))
            assert abs(got - want) < 1e-12


# --- closed forms ------------------------------------------------------------


def test_entpower_standard_values():
    assert entpower_standard(np.exp(0.7j) * np.eye(4)) < 1e-12
    assert abs(entpower_standard(pauli_string("XY")) - 1.0) < 1e-15
    # diag(1, i): normalized trace (1+i)/2, squared modulus one half
    assert abs(entpower_standard(np.diag([1.0, 1.0j])) - np.sqrt(0.5)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_entpower_standard_rejects_non_finite_trace(bad):
    with pytest.raises(ValueError, match="^u has a non-finite entry$"):
        entpower_standard(np.diag([1.0, bad]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
    st.integers(0, 2**32 - 1),
)
@example(1, 1e-8, 0)
def test_closed_forms_on_clustered_spectra_match_a_float_only_oracle(n, gap, seed):
    """For U = V diag(e^{i phi}) V^+ and p = diag(V^+ rho V),
    1 - |Tr U rho|^2 = 1/2 sum_jk p_j p_k (2 sin((phi_j - phi_k) / 2))^2
    with no cancellation, so the closed forms must match it to roundoff
    however tightly the eigenphases cluster (gap 0 is U = e^{i phi} I), and
    no sampled ensemble may exceed the closed form."""
    rng = SeededRng(seed, 0)
    dim = 2**n
    v = haar_unitary(dim, rng)
    phases = rng.gen.uniform(-np.pi, np.pi) + gap * rng.gen.standard_normal(dim)
    u = (v * np.exp(1j * phases)) @ v.conj().T
    rho = random_density(dim, int(rng.gen.integers(1, dim + 1)), rng)
    chord = 2.0 * np.sin((phases[:, None] - phases[None, :]) / 2.0)

    def oracle(p):
        return np.sqrt(0.5 * p @ chord**2 @ p)

    standard = entpower_standard(u)
    assert abs(standard - oracle(np.full(dim, 1.0 / dim))) <= 1e-14
    p = np.einsum("ji,jk,ki->i", v.conj(), rho, v).real
    assert abs(entpower_bounds(u, rho)[1] - oracle(p)) <= 1e-14
    inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_alpha(1.0))
    assert abs(ensemble_average(inst, fourier_ensemble(u)) - standard) <= 1e-14
    score = _DrawScorer(inst.unitary, inst.system_state)
    sampled = score(random_right_unitary(dim, 2 * dim, [rng] * 3), 1.0)
    assert np.all(sampled <= standard + TOL_VERIFY)


def test_entpower_alpha_scaling():
    u = np.diag([1.0, 1.0j])
    assert abs(entpower_alpha(u, 0.5) - 0.5 * np.sqrt(0.5)) < 1e-12
    assert entpower_alpha(u, 0.0) == 0.0
    assert math.copysign(1.0, entpower_alpha(u, -0.0)) == 1.0  # -0.0 passes the range check
    rng = SeededRng(73, 0)
    for _ in range(10):
        u = haar_unitary(8, rng)
        a = float(rng.gen.uniform(0.0, 1.0))
        assert entpower_alpha(u, a) == a * entpower_standard(u)
    with pytest.raises(ValueError):
        entpower_alpha(u, 1.2)


# --- ensembles ---------------------------------------------------------------


def test_pure_ensemble_validation():
    states = np.eye(2, dtype=np.complex128)
    PureEnsemble(weights=[0.5, 0.5], states=states)
    with pytest.raises(ValueError, match="weights"):
        PureEnsemble(weights=[0.5, 0.6], states=states)
    with pytest.raises(ValueError, match="positive"):
        PureEnsemble(weights=[1.0, 0.0], states=states)
    with pytest.raises(ValueError, match="normalized"):
        PureEnsemble(weights=[0.5, 0.5], states=2.0 * states)
    with pytest.raises(ValueError, match="a column per weight"):
        PureEnsemble(weights=[1.0], states=states)
    with pytest.raises(ValueError, match="1-D"):  # one ensemble, not a stack of them
        PureEnsemble(weights=np.full((3, 2), 0.5), states=np.stack([states] * 3))


def test_fourier_ensemble_realizes_maximally_mixed():
    rng = SeededRng(79, 0)
    for n in (1, 2, 3):
        dim = 2**n
        u = haar_unitary(dim, rng)
        ens = fourier_ensemble(u)
        assert ens.size == dim
        np.testing.assert_allclose(ens.weights, np.full(dim, 1.0 / dim), atol=1e-15)
        np.testing.assert_allclose(ens.density(), np.eye(dim) / dim, atol=1e-10)


def test_fourier_ensemble_equalizes_overlaps():
    # every member sees the same <phi|U|phi> = Tr U / d, which is the whole
    # point of the construction
    rng = SeededRng(83, 0)
    u = haar_unitary(8, rng)
    t = np.trace(u) / 8
    ens = fourier_ensemble(u)
    overlaps = np.einsum("ij,ij->j", ens.states.conj(), u @ ens.states)
    np.testing.assert_allclose(overlaps, np.full(8, t), atol=1e-10)


@pytest.mark.parametrize(
    "u",
    [
        pauli_string("XX"),
        diag_phase_unitary([0.4, 0.4, 0.4, 0.4]),
        np.eye(4, dtype=np.complex128),
    ],
)
def test_fourier_ensemble_degenerate_spectra(u):
    ens = fourier_ensemble(u)
    np.testing.assert_allclose(ens.density(), np.eye(4) / 4, atol=1e-10)
    t = np.trace(u) / 4
    overlaps = np.einsum("ij,ij->j", ens.states.conj(), u @ ens.states)
    np.testing.assert_allclose(overlaps, np.full(4, t), atol=1e-10)


def _clustered_unitary(dim, gap, seed):
    # Haar eigenbasis, random phases, and two eigenvalue pairs `gap` apart
    rng = SeededRng(seed, 0)
    q = haar_unitary(dim, rng)
    phases = rng.gen.uniform(-np.pi, np.pi, dim)
    phases[1] = phases[0] + gap
    phases[3] = phases[2] + gap
    return (q * np.exp(1j * phases)) @ q.conj().T


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]), st.floats(-12.0, -3.0), st.integers(0, 2**32 - 1))
@example(4, -7.0, 0)
@example(4, -6.0, 0)
@example(3, -8.0, 1)
def test_near_degenerate_spectra_keep_an_orthonormal_eigenbasis(n, log_gap, seed):
    dim = 2**n
    u = _clustered_unitary(dim, 10.0**log_gap, seed)
    spec = eig_unitary(u)
    vecs = spec.eigenvectors
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-10
    assert np.max(np.abs(u @ vecs - vecs * spec.eigenvalues)) <= 1e-10
    inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_alpha(1.0))
    got = ensemble_average(inst, fourier_ensemble(u))
    assert abs(got - entpower_standard(u)) <= 1e-9


def test_fourier_ensemble_sigma_z():
    ens = fourier_ensemble(SIGMA_Z)
    # members are (|0> +- |1>)/sqrt(2) up to phases; each overlap vanishes
    overlaps = np.einsum("ij,ij->j", ens.states.conj(), SIGMA_Z @ ens.states)
    np.testing.assert_allclose(overlaps, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(ens.states), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)


def test_decompose_from_T_identity_recovers_eigensystem():
    rng = SeededRng(89, 0)
    rho = random_density(4, 4, rng)
    ens = decompose_from_T(rho, np.eye(4, dtype=np.complex128))
    np.testing.assert_allclose(ens.density(), rho, atol=1e-10)
    evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
    np.testing.assert_allclose(np.sort(ens.weights)[::-1], evals, atol=1e-10)


def test_decompose_from_T_hadamard_on_mixed_qubit():
    ens = decompose_from_T(I2 / 2, HADAMARD)
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    for j, sign in enumerate((1.0, -1.0)):
        target = np.array([1.0, sign]) / np.sqrt(2.0)
        assert abs(abs(target.conj() @ ens.states[:, j]) - 1.0) < 1e-12


def test_decompose_from_T_random_reconstruction():
    rng = SeededRng(97, 0)
    for _ in range(10):
        dim = int(rng.gen.choice([2, 4, 8]))
        rho = random_density(dim, dim, rng)
        t_mat = random_right_unitary(dim, 2 * dim, rng)
        ens = decompose_from_T(rho, t_mat)
        np.testing.assert_allclose(ens.density(), rho, atol=1e-10)
        assert abs(ens.weights.sum() - 1.0) < 1e-10


def test_decompose_from_T_drops_empty_members():
    t_mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.complex128)
    ens = decompose_from_T(I2 / 2, t_mat)
    assert ens.size == 2  # the all-zero third column carries no member


def test_decompose_from_T_rejects_bad_T():
    with pytest.raises(ValueError, match="orthonormal"):
        decompose_from_T(I2 / 2, np.ones((2, 3)))
    with pytest.raises(ValueError, match="rows"):
        decompose_from_T(I2 / 2, np.eye(3, dtype=np.complex128))
    with pytest.raises(ValueError, match="2-D"):  # one T, not a stack of them
        decompose_from_T(I2 / 2, np.stack([HADAMARD] * 3))


def test_decompose_from_T_rejects_uncovered_support():
    rho = np.diag([0.6, 0.4]).astype(np.complex128)
    with pytest.raises(ValueError, match="weight"):
        decompose_from_T(rho, np.array([[1.0, 0.0]], dtype=np.complex128))
    # a genuinely rank-1 target is fine with a single row
    pure = np.diag([1.0, 0.0]).astype(np.complex128)
    ens = decompose_from_T(pure, np.array([[1.0, 0.0]], dtype=np.complex128))
    assert ens.size == 1


# --- mixing factor and its minimum -------------------------------------------


def test_branch_coefficients_pure_control():
    coeffs = branch_coefficients(
        ControlQubit.from_alpha(1.0), np.eye(2, dtype=np.complex128)
    )
    np.testing.assert_allclose(coeffs.xs, [1 / np.sqrt(2), 0.0], atol=1e-15)
    np.testing.assert_allclose(coeffs.ys, [1 / np.sqrt(2), 0.0], atol=1e-15)
    assert abs(mixing_factor(coeffs) - 1.0) < 1e-15


def test_branch_coefficients_weights_sum_to_one():
    rng = SeededRng(101, 0)
    for _ in range(10):
        ctl = ControlQubit.from_bloch(random_bloch(rng))
        t_mat = random_right_unitary(2, 4, rng)
        coeffs = branch_coefficients(ctl, t_mat)
        assert abs(np.sum(np.abs(coeffs.xs) ** 2 + np.abs(coeffs.ys) ** 2) - 1.0) < 1e-12


def test_branch_coefficients_and_mixing_factor_accept_a_stack():
    rng = SeededRng(223, 0)
    ctl = ControlQubit.from_bloch((0.2, -0.5, 0.6))
    stack = random_right_unitary(2, 4, [rng] * 6)
    coeffs = branch_coefficients(ctl, stack)
    mixes = mixing_factor(coeffs)
    assert coeffs.xs.shape == (6, 4) and mixes.shape == (6,)
    for k, t_mat in enumerate(stack):
        one = branch_coefficients(ctl, t_mat)
        np.testing.assert_array_equal(coeffs.xs[k], one.xs)
        np.testing.assert_array_equal(coeffs.ys[k], one.ys)
        assert mixes[k] == mixing_factor(one)
    assert isinstance(mixing_factor(branch_coefficients(ctl, stack[0])), float)
    bad = stack.copy()
    bad[3, 0, 0] += 0.1  # one member with rows that are not orthonormal
    with pytest.raises(ValueError, match="orthonormal"):
        branch_coefficients(ctl, bad)


def test_branch_coefficients_rejects_bad_T():
    ctl = ControlQubit.from_alpha(0.5)
    with pytest.raises(ValueError, match="2 rows"):
        branch_coefficients(ctl, np.eye(3, dtype=np.complex128))
    with pytest.raises(ValueError, match="orthonormal"):
        branch_coefficients(ctl, np.ones((2, 2)))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_mixing_identity_T_gives_one(alpha):
    # (1+a)/2 + (1-a)/2: a decomposition that ignores the polarization
    ctl = ControlQubit.from_alpha(alpha)
    coeffs = branch_coefficients(ctl, np.eye(2, dtype=np.complex128))
    assert abs(mixing_factor(coeffs) - 1.0) < 1e-14


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_mixing_hadamard_T_gives_alpha(alpha):
    ctl = ControlQubit.from_alpha(alpha)
    coeffs = branch_coefficients(ctl, HADAMARD)
    assert abs(mixing_factor(coeffs) - alpha) < 1e-14


def test_mixing_bloch_mode_matches_alpha_mode_exactly():
    for alpha in (0.25, 0.7):
        a_ctl = ControlQubit.from_alpha(alpha)
        b_ctl = ControlQubit.from_bloch((0.0, 0.0, alpha))
        for t_mat in (np.eye(2, dtype=np.complex128), HADAMARD):
            a = branch_coefficients(a_ctl, t_mat)
            b = branch_coefficients(b_ctl, t_mat)
            np.testing.assert_array_equal(a.xs, b.xs)
            np.testing.assert_array_equal(a.ys, b.ys)


def test_mixing_factor_bounded_by_lambda_gap():
    rng = SeededRng(103, 0)
    for _ in range(20):
        ctl = ControlQubit.from_bloch(random_bloch(rng))
        gap = lambda_factor(ctl)
        t_mat = random_right_unitary(2, 4, rng)
        mix = mixing_factor(branch_coefficients(ctl, t_mat))
        assert gap - 1e-10 <= mix <= 1.0 + 1e-10


def test_lambda_factor_anchors():
    assert abs(lambda_factor(ControlQubit.from_bloch((0.0, 0.0, 1.0))) - 1.0) < 1e-12
    assert abs(lambda_factor(ControlQubit.from_alpha(0.6)) - 0.6) < 1e-12
    assert abs(lambda_factor(ControlQubit.from_bloch((0.0, 0.0, 0.0)))) < 1e-12


_BLOCH_BALL = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda p: 1e-3 < np.linalg.norm(p) <= 1.0
)


@settings(max_examples=200, deadline=None)
@given(_BLOCH_BALL, st.booleans())
@example((0.0, 0.6, 0.8), False)
@example((0.8, 0.6, 0.0), False)
def test_lambda_factor_matches_the_eigen_definition(p, on_sphere):
    if on_sphere:
        p = tuple(np.asarray(p) / np.linalg.norm(p))
    ctl = ControlQubit.from_bloch(p)
    # Oracle: lambda = sqrt(mu1) - sqrt(mu2) over the spectrum of
    # M = rho sigma_z rho^* sigma_z, so lambda^2 = mu1 + mu2 - 2 sqrt(mu1 mu2)
    # = Tr M - 2 |det rho|, since det M = |det rho|^2.  Squaring keeps the
    # root of a vanishing eigenvalue out of the oracle.
    rho = ctl.density()
    m = rho @ SIGMA_Z @ rho.conj() @ SIGMA_Z
    det_rho = rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]
    want_sq = np.trace(m).real - 2.0 * abs(det_rho)
    lam = lambda_factor(ctl)
    assert lam >= 0.0
    assert abs(lam**2 - want_sq) <= 1e-12


# Bloch vectors just past the unit sphere, within TOL_CONSTRUCT: construction
# scales them back onto it, where the eigensystem used to go negative.
_PAST_SPHERE = [
    (0.0, 0.0, 1.0 + 1e-13),
    (0.6, 0.8 + 1e-13, 0.0),
    (0.0, 0.6, 0.8 + 5e-13),
    (1.0 + 1e-13, 0.0, 0.0),
]


def _minimizer_inputs():
    rng = SeededRng(113, 0)
    inputs = [random_bloch(rng) for _ in range(25)]
    inputs += _PAST_SPHERE
    # pure states in the y-z plane (c = 0), the axes and the fully mixed state
    inputs += [(0.0, np.cos(a), np.sin(a)) for a in np.linspace(0.0, 2.0 * np.pi, 13)]
    inputs += [tuple(s * e) for s in (1.0, -1.0) for e in np.eye(3)]
    inputs.append((0.0, 0.0, 0.0))
    for _ in range(25):  # norms in [1, 1 + 1e-12]
        v = rng.gen.standard_normal(3)
        inputs.append(tuple(v / np.linalg.norm(v) * (1.0 + rng.gen.uniform(0.0, 1e-12))))
    return inputs


def test_analytic_min_T_attains_lambda_gap():
    for p in _minimizer_inputs():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctl = ControlQubit.from_bloch(p)
            t_opt = analytic_min_T(ctl)
            mix = mixing_factor(branch_coefficients(ctl, t_opt))
        assert is_right_unitary(t_opt, TOL_SPECTRAL), p
        assert abs(mix - lambda_factor(ctl)) <= 1e-14, p


@settings(max_examples=600, deadline=None, derandomize=True)
@given(BLOCH_EDGES)
def test_analytic_min_T_is_right_unitary_and_attains_the_gap_at_the_chart_edges(p):
    # Theorem 2 on the sphere and where the chart of analytic_min_T changes
    ctl = ControlQubit.from_bloch(p)
    t_opt = analytic_min_T(ctl)
    assert np.abs(t_opt @ t_opt.conj().T - np.eye(len(t_opt))).max() <= TOL_CONSTRUCT * t_opt.shape[1]
    assert abs(mixing_factor(branch_coefficients(ctl, t_opt)) - lambda_factor(ctl)) <= TOL_CONSTRUCT


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(st.just(n), clustered_unitaries(2**n), hard_registers(2**n))))
def test_bounds_order_and_bound_the_search_on_clustered_spectra_and_hard_registers(case):
    # Theorem 3: lower <= upper, and no sampled ensemble beats upper; both only
    # bound E_p from below, so a search may fall below the lower bound
    n, u, rho = case
    lower, upper = entpower_bounds(u, rho)
    assert lower <= upper + TOL_VERIFY
    inst = Dqc1Instance(n, u, ControlQubit.from_alpha(1.0), system_state=rho)
    assert brute_force_entpower(inst, 20, SeededRng(3, 0)) <= upper + TOL_VERIFY


@pytest.mark.parametrize("p", _PAST_SPHERE)
def test_sampled_mixing_searches_take_bloch_vectors_past_the_sphere(p):
    ctl = ControlQubit.from_bloch(p)
    assert ctl.polarization == 1.0
    lam = lambda_factor(ctl)
    assert abs(mixing_factor(branch_coefficients(ctl, analytic_min_T(ctl))) - lam) <= 1e-14
    assert abs(brute_force_min_mixing(ctl, 10, 4, SeededRng(0, 0)) - lam) <= 1e-14
    inst = Dqc1Instance(n=1, unitary=SIGMA_X, control=ctl)
    got = brute_force_entpower(inst, 10, SeededRng(0, 1))
    assert abs(got - lam * entpower_standard(SIGMA_X)) <= 1e-12


def test_brute_force_min_mixing_pure_control_always_one():
    ctl = ControlQubit.from_alpha(1.0)
    got = brute_force_min_mixing(ctl, 200, 4, SeededRng(0, 0))
    assert abs(got - 1.0) < 1e-12


def test_brute_force_min_mixing_alpha_with_analytic_candidate():
    rng = SeededRng(127, 0)
    for alpha in (0.2, 0.6, 1.0):
        got = brute_force_min_mixing(ControlQubit.from_alpha(alpha), 100, 4, rng)
        assert abs(got - alpha) < 1e-12


def test_brute_force_min_mixing_sampling_converges():
    ctl = ControlQubit.from_bloch((0.3, 0.4, 0.5))
    got = brute_force_min_mixing(
        ctl, 10**4, 4, SeededRng(0, 0), include_analytic=False
    )
    lam = lambda_factor(ctl)
    assert got >= lam - 1e-9  # sampling cannot beat the true minimum
    assert got - lam < 5e-3


def test_brute_force_min_mixing_validation():
    with pytest.raises(ValueError):
        brute_force_min_mixing(ControlQubit.from_alpha(0.5), 0, 4, SeededRng(0, 0))
    with pytest.raises(ValueError):
        brute_force_min_mixing(ControlQubit.from_alpha(0.5), 10, 1, SeededRng(0, 0))


@pytest.mark.parametrize(
    "samples,cols,name",
    [
        (True, 4, "samples"),  # once returned a value
        (2.5, 4, "samples"),  # once "'float' object cannot be interpreted as an integer"
        (2.0, 4, "samples"),
        ("3", 4, "samples"),
        (None, 4, "samples"),
        (3, 4.0, "cols"),
        (3, 2.5, "cols"),
        (3, True, "cols"),
    ],
)
def test_brute_force_min_mixing_names_a_non_integer_count(samples, cols, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        brute_force_min_mixing(ControlQubit.from_alpha(0.5), samples, cols, SeededRng(0, 0))


# --- ensemble averages and the closed-form checks ----------------------------


def test_ensemble_average_identity_unitary_is_zero():
    inst = Dqc1Instance(n=1, unitary=I2, control=ControlQubit.from_alpha(1.0))
    ens = fourier_ensemble(I2)
    # every branch is a product state, and the orthogonal residual leaves
    # no purity dust
    assert ensemble_average(inst, ens) <= 1e-15


def test_ensemble_average_eigenbasis_is_zero():
    # eigenvectors of U pass through the circuit without entangling anything
    rng = SeededRng(131, 0)
    u = haar_unitary(4, rng)
    spec = eig_unitary(u)
    ens = PureEnsemble(weights=np.full(4, 0.25), states=spec.eigenvectors)
    inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(1.0))
    assert ensemble_average(inst, ens) < 1e-7


def test_ensemble_average_fourier_saturates_closed_form():
    rng = SeededRng(137, 0)
    for n in (1, 2, 3):
        u = haar_unitary(2**n, rng)
        inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_alpha(1.0))
        got = ensemble_average(inst, fourier_ensemble(u))
        assert abs(got - entpower_standard(u)) < 1e-10


def test_ensemble_average_sigma_z_fourier():
    inst = Dqc1Instance(n=1, unitary=SIGMA_Z, control=ControlQubit.from_alpha(1.0))
    got = ensemble_average(inst, fourier_ensemble(SIGMA_Z))
    assert abs(got - 1.0) < 1e-12
    assert abs(entpower_standard(SIGMA_Z) - 1.0) < 1e-15


def test_ensemble_average_alpha_scales_fourier_value():
    rng = SeededRng(139, 0)
    u = haar_unitary(4, rng)
    ens = fourier_ensemble(u)
    for alpha in (0.3, 0.8):
        inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(alpha))
        got = ensemble_average(inst, ens)
        assert abs(got - entpower_alpha(u, alpha)) < 1e-10


def test_ensemble_average_mode_equivalence_is_bit_exact():
    u = haar_unitary(4, SeededRng(149, 0))
    ens = fourier_ensemble(u)
    a = ensemble_average(
        Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(0.7)), ens
    )
    b = ensemble_average(
        Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_bloch((0.0, 0.0, 0.7))),
        ens,
    )
    assert a == b


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.0, 1.0),
)
@example(1, 0, 0.0, 0.0, 0.0)  # the fully mixed control: lambda gap 0
@example(2, 0, 0.0, 0.0, 1.0)  # p = (1, 0, 0): pure, but the gap is 0
@example(2, 0, -1.0, 0.0, 1.0)  # p = (0, 0, -1)
def test_ensemble_average_scales_by_the_lambda_gap(n, seed, cos_theta, phi, radius):
    # at any Bloch vector p the average is lambda_factor(p) times the fully
    # polarized one: the same kernel, scaled per member before the weighting
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    p = tuple(radius * np.array([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta]))
    dim = 2**n
    rng = SeededRng(seed, 0)
    u = haar_unitary(dim, rng)
    sampled = decompose_from_T(np.eye(dim) / dim, random_right_unitary(dim, 2 * dim, rng))
    control = ControlQubit.from_bloch(p)
    lam = lambda_factor(control)
    assume(lam == 0.0 or lam > 1e-300)  # a subnormal product keeps no relative precision
    for ens in (fourier_ensemble(u), sampled):
        pure = ensemble_average(Dqc1Instance(n, u, ControlQubit.from_alpha(1.0)), ens)
        got = ensemble_average(Dqc1Instance(n=n, unitary=u, control=control), ens)
        assert abs(got - lam * pure) <= 1e-15 * lam * pure


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ensemble_average_takes_the_same_bits_from_either_memory_order(n):
    # a single ensemble from decompose_from_T can come out F-ordered; a
    # column sum over that layout would round differently
    dim = 2**n
    rng = SeededRng(307, n)
    u = haar_unitary(dim, rng)
    inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_bloch((0.3, -0.2, 0.5)))
    for _ in range(5):
        ens = decompose_from_T(inst.system_state, random_right_unitary(dim, 2 * dim, rng))
        c_order = PureEnsemble(ens.weights, np.ascontiguousarray(ens.states))
        f_order = PureEnsemble(ens.weights, np.asfortranarray(ens.states))
        assert ensemble_average(inst, c_order) == ensemble_average(inst, f_order)


def _member_loop_average(inst, ens):
    """The branch kernel one member at a time: the oracle for the pass over
    all members.  Each register sum runs row by row, the order in which a sum
    over axis 0 of a C-ordered d x m array (m >= 2) adds, and U acts on all
    members in one product, whose columns a matrix-vector product would
    give other bits."""
    u_states = inst.unitary @ ens.states
    values = []
    for phi, u_phi in zip(ens.states.T, u_states.T):
        sq = functools.reduce(np.add, phi.conj() * phi).real
        residual = u_phi - functools.reduce(np.add, phi.conj() * u_phi) / sq * phi
        norm = np.sqrt(functools.reduce(np.add, (residual.conj() * residual).real))
        values.append(lambda_factor(inst.control) * (norm / np.sqrt(sq)))
    return float(np.dot(ens.weights, values))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ensemble_average_polarized_matches_member_loop_bit_for_bit(n):
    rng = SeededRng(223, n)
    dim = 2**n
    for _ in range(4):
        u = haar_unitary(dim, rng)
        inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_alpha(1.0))
        sampled = decompose_from_T(inst.system_state, random_right_unitary(dim, 2 * dim, rng))
        for ens in (fourier_ensemble(u), sampled):
            assert ensemble_average(inst, ens) == _member_loop_average(inst, ens)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bloch", [(0.0, 0.0, 1.0), (0.0, 0.0, 0.6), (0.3, -0.2, 0.5)])
def test_ensemble_average_stack_matches_single_calls_bit_for_bit(n, bloch):
    # the scorer is the one stacked form of ensemble_average: a stack of
    # draws scores each draw with the bits of a one-draw call, and within
    # roundoff of ensemble_average on the decomposition that draw selects
    dim = 2**n
    u = haar_unitary(dim, SeededRng(239, n))
    inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_bloch(bloch))
    t_stack = random_right_unitary(dim, 2 * dim, [SeededRng(241, idx) for idx in range(6)])
    score, mix = _DrawScorer(inst.unitary, inst.system_state), lambda_factor(inst.control)
    stacked = score(t_stack, mix)
    assert stacked.shape == (6,)
    for value, t_mat in zip(stacked, t_stack):
        assert value == score(t_mat[None], mix)[0]
        single = ensemble_average(inst, decompose_from_T(inst.system_state, t_mat))
        assert abs(value - single) <= 1e-15


def test_ensemble_average_rejects_wrong_realization():
    rng = SeededRng(151, 0)
    u = haar_unitary(2, rng)
    rho = np.diag([0.9, 0.1]).astype(np.complex128)
    inst = Dqc1Instance(
        n=1, unitary=u, control=ControlQubit.from_alpha(1.0), system_state=rho
    )
    with pytest.raises(ValueError, match="realize"):
        ensemble_average(inst, fourier_ensemble(u))


def test_entpower_bounds_frozen_qubit_case():
    rho = np.diag([0.9, 0.1]).astype(np.complex128)
    lower, upper = entpower_bounds(SIGMA_X, rho)
    assert abs(lower - 0.4) < 1e-12
    assert abs(upper - 1.0) < 1e-12


def test_entpower_bounds_maximally_mixed_register():
    rng = SeededRng(167, 0)
    for n in (1, 2, 3):
        dim = 2**n
        u = haar_unitary(dim, rng)
        lower, upper = entpower_bounds(u, np.eye(dim) / dim)
        assert abs(lower) < 1e-10
        assert abs(upper - entpower_standard(u)) < 1e-12


def test_entpower_bounds_commuting_pair():
    rng = SeededRng(173, 0)
    v = haar_unitary(4, rng)
    rho = v @ np.diag([0.4, 0.3, 0.2, 0.1]) @ v.conj().T
    u = v @ np.diag(np.exp(1j * np.array([0.1, 0.9, 1.7, 2.4]))) @ v.conj().T
    lower, upper = entpower_bounds(u, rho)
    assert abs(lower) < 1e-10
    assert upper > 0.1


def test_entpower_bounds_ordering():
    rng = SeededRng(179, 0)
    for _ in range(30):
        n = int(rng.gen.integers(1, 4))
        dim = 2**n
        u = haar_unitary(dim, rng)
        rho = random_density(dim, int(rng.gen.integers(1, dim + 1)), rng)
        lower, upper = entpower_bounds(u, rho)
        assert lower <= upper + 1e-9


def root_fidelity(u, rho):
    """Tr sqrt(U rho U^+ rho), read off the lower bound."""
    return 1.0 - entpower_bounds(u, rho)[0]


def test_entpower_bounds_root_fidelity_commuting():
    rho = np.diag([0.7, 0.2, 0.1]).astype(np.complex128)
    u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    assert abs(root_fidelity(u, rho) - 1.0) < 1e-12


def test_entpower_bounds_root_fidelity_maximally_mixed():
    rng = SeededRng(3, 0)
    for n in (1, 2, 3):
        dim = 2**n
        u = haar_unitary(dim, rng)
        assert abs(root_fidelity(u, np.eye(dim) / dim) - 1.0) < 1e-12


def test_entpower_bounds_root_fidelity_flip_on_biased_state():
    # eigenvalues of (X rho X) rho are {0.09, 0.09}; the sum of roots is 0.6
    rho = np.diag([0.9, 0.1]).astype(np.complex128)
    assert abs(root_fidelity(SIGMA_X, rho) - 0.6) < 1e-12


def test_entpower_bounds_root_fidelity_on_pure_states_is_the_overlap_modulus():
    # for rho = |psi><psi| the root fidelity is |<psi|U|psi>| exactly: the
    # zero eigenvalues of a rank-1 register must contribute no root dust
    rng = SeededRng(14, 0)
    for n in range(1, 5):
        dim = 2**n
        for _ in range(10):
            u = haar_unitary(dim, rng)
            psi = rng.gen.standard_normal(dim) + 1j * rng.gen.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            want = abs(psi.conj() @ u @ psi)
            assert abs(root_fidelity(u, np.outer(psi, psi.conj())) - want) <= 1e-12


def test_brute_force_entpower_saturates_on_mixed_register():
    rng = SeededRng(181, 0)
    for n in (1, 2):
        u = haar_unitary(2**n, rng)
        inst = Dqc1Instance(n=n, unitary=u, control=ControlQubit.from_alpha(1.0))
        got = brute_force_entpower(inst, samples=5, rng=SeededRng(2, 0))
        assert abs(got - entpower_standard(u)) < 1e-10


def test_brute_force_entpower_random_ensembles_stay_below_closed_form():
    rng = SeededRng(191, 0)
    u = haar_unitary(4, rng)
    inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(1.0))
    bound = entpower_standard(u)
    for k in range(50):
        t_mat = random_right_unitary(4, 8, SeededRng(k, 5))
        ens = decompose_from_T(inst.system_state, t_mat)
        assert ensemble_average(inst, ens) <= bound + 1e-9


def test_brute_force_entpower_biased_register():
    # register with unequal eigenvalues: the search runs on the rank-2
    # support and respects the closed-form upper bound
    u = haar_unitary(2, SeededRng(193, 0))
    rho = np.diag([0.9, 0.1]).astype(np.complex128)
    inst = Dqc1Instance(
        n=1, unitary=u, control=ControlQubit.from_alpha(1.0), system_state=rho
    )
    got = brute_force_entpower(inst, samples=200, rng=SeededRng(3, 0))
    _, upper = entpower_bounds(u, rho)
    assert got <= upper + 1e-9


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_brute_force_entpower_trivial_circuit_is_zero(alpha):
    # sqrt(1 - |overlap|^2) left about 1e-8 here; the norm of U phi's
    # component orthogonal to phi vanishes to roundoff
    inst = Dqc1Instance(
        n=2, unitary=np.eye(4, dtype=np.complex128), control=ControlQubit.from_alpha(alpha)
    )
    assert brute_force_entpower(inst, samples=20, rng=SeededRng(1, 0)) <= 1e-15
    ens = decompose_from_T(inst.system_state, random_right_unitary(4, 8, SeededRng(1, 1)))
    assert ensemble_average(inst, ens) <= 1e-15


def _brute_force_entpower_one_sample_at_a_time(inst, samples, rng):
    """Oracle: the search as a loop that draws and scores one sample at a
    time (no Fourier candidate; the register must not be maximally mixed)."""
    spec = eig_hermitian(inst.system_state)
    rank = int(np.sum(spec.eigenvalues > TOL_SPECTRAL))
    root = spec.eigenvectors[:, :rank] * np.sqrt(spec.eigenvalues[:rank])
    u_root = inst.unitary @ root
    mix = lambda_factor(inst.control)
    best = -np.inf
    for _ in range(samples):
        t_mat = random_right_unitary(rank, 2 * inst.dim, rng)
        members = root @ t_mat
        weights = np.sum(np.abs(members) ** 2, axis=0)
        branch = _branch_entanglement(members, u_root @ t_mat, weights)
        best = max(best, float(np.dot(weights, mix * branch)))
    return best


@pytest.mark.parametrize("n,rank", [(1, 2), (2, 2), (2, 4), (3, 3)])
@pytest.mark.parametrize("entries", [1, 100, 2**10, 2**14])
def test_brute_force_entpower_stacks_match_a_per_sample_loop(monkeypatch, n, rank, entries):
    # a random register of the given rank: no Fourier candidate, so the
    # samples alone decide the result, which must not depend on stack size
    monkeypatch.setattr(dqc1.entpower, "MAX_STACK_ENTRIES", entries)
    dim = 2**n
    rho = random_density(dim, rank, SeededRng(263, n))
    u = haar_unitary(dim, SeededRng(269, n))
    for control in (ControlQubit.from_alpha(1.0), ControlQubit.from_bloch((0.3, -0.2, 0.5))):
        inst = Dqc1Instance(n=n, unitary=u, control=control, system_state=rho)
        got = brute_force_entpower(inst, samples=41, rng=SeededRng(271, n))
        want = _brute_force_entpower_one_sample_at_a_time(inst, 41, SeededRng(271, n))
        assert got == want
        assert got <= lambda_factor(control) * entpower_bounds(u, rho)[1] + 1e-9


@pytest.mark.parametrize("n", [2, 5])
def test_brute_force_entpower_trivial_circuit_stays_at_roundoff_across_stacks(n):
    # at n=5 the 20 samples span three stacks
    dim = 2**n
    for alpha in (1.0, 0.5):
        inst = Dqc1Instance(
            n=n, unitary=np.eye(dim, dtype=np.complex128), control=ControlQubit.from_alpha(alpha)
        )
        assert brute_force_entpower(inst, samples=20, rng=SeededRng(277, n)) <= 1e-15


def test_brute_force_min_mixing_stacks_match_a_per_sample_loop(monkeypatch):
    ctl = ControlQubit.from_bloch((0.2, -0.5, 0.6))
    rng = SeededRng(281, 0)
    want = min(
        mixing_factor(branch_coefficients(ctl, random_right_unitary(2, 4, rng)))
        for _ in range(30)
    )
    for entries in (1, 64, 2**14):
        monkeypatch.setattr(dqc1.entpower, "MAX_STACK_ENTRIES", entries)
        got = brute_force_min_mixing(ctl, 30, 4, SeededRng(281, 0), include_analytic=False)
        assert got == want


def test_brute_force_entpower_validation():
    u = haar_unitary(2, SeededRng(197, 0))
    inst = Dqc1Instance(n=1, unitary=u, control=ControlQubit.from_alpha(1.0))
    with pytest.raises(ValueError, match="samples"):
        brute_force_entpower(inst, samples=0, rng=SeededRng(0, 0))
    with pytest.raises(TypeError, match="rng"):  # a required parameter, no default
        brute_force_entpower(inst, samples=5)


@pytest.mark.parametrize(
    "n,rho,control",
    [
        (1, np.diag([0.9, 0.1]), ControlQubit.from_alpha(1.0)),
        (1, np.diag([0.9, 0.1]), ControlQubit.from_bloch((0.3, 0.0, 0.4))),
        (2, random_density(4, 2, SeededRng(199, 0)), ControlQubit.from_alpha(0.6)),
    ],
)
def test_brute_force_entpower_sample_matches_ensemble_average(n, rho, control):
    # one sample of the search scores the same decomposition that
    # decompose_from_T + ensemble_average build from the same draw
    u = haar_unitary(2**n, SeededRng(211, 0))
    inst = Dqc1Instance(n=n, unitary=u, control=control, system_state=rho)
    got = brute_force_entpower(inst, samples=1, rng=SeededRng(5, 0))
    rank = int(np.linalg.matrix_rank(rho))
    t_mat = random_right_unitary(rank, 2 * 2**n, SeededRng(5, 0))
    want = ensemble_average(inst, decompose_from_T(rho, t_mat))
    assert abs(got - want) < 1e-12


_CONTROLS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True).map(ControlQubit.from_alpha),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda p: np.linalg.norm(p) <= 1.0)
    .map(ControlQubit.from_bloch),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), _CONTROLS, st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(1, False, ControlQubit.from_alpha(1.0), 1, 5)
@example(2, False, ControlQubit.from_bloch((0.3, 0.0, 0.4)), 3, 5)
@example(5, True, ControlQubit.from_alpha(0.6), 4, 5)
@example(5, False, ControlQubit.from_bloch((0.3, -0.2, 0.5)), 2, 5)
def test_scored_draws_match_ensemble_average(n, full_rank, control, k, seed):
    # the sampled searches score Phi sqrt(M) T straight from a stack of
    # draws; decompose_from_T + ensemble_average build and check the same
    # decomposition one draw at a time
    dim = 2**n
    rng = SeededRng(seed, 0)
    rho = random_density(dim, dim if full_rank else int(rng.gen.integers(1, dim)), rng)
    u = haar_unitary(dim, rng)
    inst = Dqc1Instance(n=n, unitary=u, control=control, system_state=rho)
    score, mix = _DrawScorer(inst.unitary, inst.system_state), lambda_factor(control)
    t_stack = random_right_unitary(score.rank, 2 * dim, [rng] * k)
    members = score.root @ t_stack
    realized = members @ np.swapaxes(members.conj(), -1, -2)
    assert np.max(np.abs(realized - rho)) <= TOL_SPECTRAL
    scores = score(t_stack, mix)
    assert scores.shape == (k,)
    for j, t_mat in enumerate(t_stack):
        assert abs(scores[j] - ensemble_average(inst, decompose_from_T(rho, t_mat))) <= 1e-15
        assert score(t_stack[j : j + 1], mix)[0] == scores[j]


def test_branch_coefficients_container():
    coeffs = BranchCoefficients(
        xs=np.array([0.5, 0.5]), ys=np.array([0.5, -0.5])
    )
    np.testing.assert_allclose(np.abs(coeffs.xs) ** 2 + np.abs(coeffs.ys) ** 2, [0.5, 0.5])
    assert abs(mixing_factor(coeffs) - 1.0) < 1e-15


@pytest.mark.parametrize(
    "make",
    [
        lambda: PureEnsemble(weights=[0.5, 0.5], states=np.eye(2)),
        lambda: BranchCoefficients(xs=np.array([0.5, 0.5]), ys=np.array([0.5, -0.5])),
    ],
    ids=["PureEnsemble", "BranchCoefficients"],
)
def test_an_array_container_compares_and_hashes_by_identity(make):
    # its fields are arrays: == raised numpy's "truth value of an array is
    # ambiguous", and hash() a TypeError
    a, b = make(), make()
    assert a == a and a != b and not (a == b)
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_pure_ensemble_rejects_an_empty_ensemble():
    with pytest.raises(ValueError, match="empty"):
        PureEnsemble(weights=[], states=np.zeros((2, 0)))


@pytest.mark.parametrize("samples", [True, False, 2.0, 2.5, "3", None])
def test_brute_force_entpower_samples_must_be_an_integer(samples):
    inst = Dqc1Instance(n=1, unitary=SIGMA_X, control=ControlQubit.from_alpha(1.0))
    with pytest.raises(ValueError, match="samples"):
        brute_force_entpower(inst, samples, SeededRng(0, 0))


@pytest.mark.parametrize("rank", [None, 3])  # None: the maximally mixed register
@pytest.mark.parametrize("spec", ["haar", "identity"])
def test_prepared_search_matches_brute_force_entpower_bit_for_bit(spec, rank):
    # one search prepared for every alpha gives the bits of a fresh
    # brute_force_entpower per alpha, Fourier candidate and draws alike
    n = 3
    u = unitary_from_spec(spec, n, SeededRng(283, 0))
    rho = None if rank is None else random_density(2**n, rank, SeededRng(293, 0))
    inst = Dqc1Instance(n, u, ControlQubit.from_alpha(1.0), system_state=rho)
    score = _DrawScorer(inst.unitary, inst.system_state)
    for a in (0.1, 0.5, 1.0):
        control = ControlQubit.from_alpha(a)
        want = brute_force_entpower(Dqc1Instance(n, u, control, rho), 30, SeededRng(307, 1))
        assert score.best(lambda_factor(control), 30, SeededRng(307, 1)) == want


def test_brute_force_entpower_eigensolves_only_a_register_other_than_i_over_d(monkeypatch):
    # the scorer decides the register's form once: the default register and
    # a given I/d are searched as the sweeps search them, with no eigensolve
    # of the register, and keep the Fourier candidate; a rank-2 register
    # gets its one eigensolve
    solved, real = [], dqc1.entpower.eig_hermitian
    monkeypatch.setattr(dqc1.entpower, "eig_hermitian", lambda rho: solved.append(rho) or real(rho))
    n, dim = 3, 8
    u = haar_unitary(dim, SeededRng(353, 0))
    rank2 = random_density(dim, 2, SeededRng(359, 0))
    for rho, eigensolves in ((None, 0), (np.eye(dim) / dim, 0), (rank2, 1)):
        solved.clear()
        inst = Dqc1Instance(n, u, ControlQubit.from_alpha(1.0), system_state=rho)
        found = brute_force_entpower(inst, 2, SeededRng(367, 0))
        assert len(solved) == eigensolves
        if rho is not rank2:  # two draws alone fall short of the candidate
            assert abs(found - entpower_standard(u)) <= 1e-14


@pytest.mark.parametrize("rank", [None, 3])  # None: the maximally mixed register
def test_scoring_a_stack_allocates_no_stack_sized_array(rank):
    # numpy reports its data buffers to tracemalloc: after a warm-up call, a
    # scorer writes members, U times them and the kernel's temporaries into
    # arrays it holds, so a full n=5 stack of 8 draws adds less than one
    # (8, d, 2d) complex array to the traced peak
    dim = 2**5
    u = haar_unitary(dim, SeededRng(311, 0))
    rho = None if rank is None else random_density(dim, rank, SeededRng(313, 0))
    score = _DrawScorer(u, rho)
    t_stack = random_right_unitary(score.rank, 2 * dim, [SeededRng(317, 0)] * 8)
    assert len(t_stack) * dim * 2 * dim == dqc1.entpower.MAX_STACK_ENTRIES  # a full stack
    score(t_stack, 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        score(t_stack, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < dqc1.entpower.MAX_STACK_ENTRIES * np.dtype(complex).itemsize


@pytest.mark.parametrize("rank", [None, 3])
def test_held_work_arrays_carry_nothing_between_stacks(rank):
    # a full stack, a shorter last one, then the full one at another mix:
    # each scores as on a fresh scorer, and no returned array is a view of
    # the held ones
    dim = 2**5
    u = haar_unitary(dim, SeededRng(331, 0))
    rho = None if rank is None else random_density(dim, rank, SeededRng(337, 0))
    score = _DrawScorer(u, rho)
    full = random_right_unitary(score.rank, 2 * dim, [SeededRng(347, 0)] * 8)
    short = random_right_unitary(score.rank, 2 * dim, [SeededRng(347, 1)] * 3)
    for t_stack, mix in ((full, 1.0), (short, 1.0), (full, 0.3)):
        assert np.array_equal(score(t_stack, mix), _DrawScorer(u, rho)(t_stack, mix))
    scores = list(score.scores(0, 20, lambda a, b: [SeededRng(349, 0)] * (b - a), 0.5))
    assert [len(s) for s in scores] == [8, 8, 4]
    for a, b in itertools.combinations(scores, 2):
        assert not np.shares_memory(a, b)
