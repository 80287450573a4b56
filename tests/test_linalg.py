"""Tests for the dense linear-algebra layer."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from dqc1.linalg import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SeededRng,
    TOL_CONSTRUCT,
    TOL_SPECTRAL,
    _ginibre,
    eig_hermitian,
    eig_unitary,
    haar_unitary,
    is_density,
    is_right_unitary,
    is_unitary,
    kron,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    random_density,
    random_right_unitary,
    save_matrix,
    trace_overlap,
)
from dqc1.circuit import MAX_QUBITS
from dqc1.experiments import MAX_SAMPLES
from support import DEEP_JSON, clustered_unitaries, partial_trace

I2 = np.eye(2, dtype=np.complex128)


def unitary_within(u, tol):
    """U^dagger U is within tol * d of I entrywise: ``is_unitary``'s test at a
    tolerance of the caller's, here tighter than its ``TOL_SPECTRAL``."""
    return np.abs(u.conj().T @ u - np.eye(len(u))).max() <= tol * len(u)


def partial_trace_by_summation(rho, keep, da, db):
    """Independent reference: contract with explicit basis projectors."""
    rho = rho.reshape(da, db, da, db)
    if keep == "control":
        out = np.zeros((da, da), dtype=np.complex128)
        for k in range(db):
            out += rho[:, k, :, k]
    else:
        out = np.zeros((db, db), dtype=np.complex128)
        for k in range(da):
            out += rho[k, :, k, :]
    return out


def test_seeded_rng_reproducible():
    a = SeededRng(42, 3).gen.standard_normal(8)
    b = SeededRng(42, 3).gen.standard_normal(8)
    c = SeededRng(42, 4).gen.standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_seeded_rng_rejects_negative():
    with pytest.raises(ValueError):
        SeededRng(-1, 0)
    with pytest.raises(ValueError):
        SeededRng(0, -2)


@pytest.mark.parametrize(
    "seed,stream,name",
    [
        (1.5, 0, "seed"),  # once truncated to seed 1
        (1, 2.7, "stream"),  # once truncated to stream 2
        (True, 2, "seed"),  # once taken as seed 1
        ("3", 0, "seed"),  # once a bare "'<' not supported" from the comparison
        (0, False, "stream"),
        (np.float64(2.0), 0, "seed"),
        (None, 0, "seed"),
    ],
)
def test_seeded_rng_rejects_a_non_integer_or_bool_and_names_it(seed, stream, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
        SeededRng(seed, stream)


@pytest.mark.parametrize(
    "seed,lo,hi,name",
    [(1.5, 0, 3, "seed"), (True, 0, 3, "seed"), (0, 2.0, 3, "lo"), (0, -1, 3, "lo"), (0, 0, "3", "hi")],
)
def test_seeded_rng_streams_checks_its_arguments_once(seed, lo, hi, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
        SeededRng.streams(seed, lo, hi)


def assert_streams_match_seeded_rng(seed, lo, hi):
    streams = SeededRng.streams(seed, lo, hi)
    assert [(r.seed, r.stream) for r in streams] == [(seed, k) for k in range(lo, hi)]
    for k, got in zip(range(lo, hi), streams):
        want = SeededRng(seed, k).gen
        assert got.gen.bit_generator.state == want.bit_generator.state, k
        assert got.gen.standard_normal(3).tolist() == want.standard_normal(3).tolist(), k


# 2**128 has five words and every key from 2**32 on two: both fall back to
# one SeedSequence per stream, which the pin compares with itself
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128])
@pytest.mark.parametrize("lo,hi", [(0, 3003), (MAX_SAMPLES - 7, MAX_SAMPLES + 4), (2**32 - 3, 2**32 + 3)])
def test_seeded_rng_streams_pin_seeded_rng_bit_for_bit(seed, lo, hi):
    assert_streams_match_seeded_rng(seed, lo, hi)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.integers(0, 2**32), st.integers(0, 2**130)),
    st.one_of(st.integers(0, 3000), st.integers(2**32 - 20, 2**32 + 5), st.integers(0, 2**40)),
    st.integers(0, 12),
)
def test_seeded_rng_streams_equal_seeded_rng_over_any_range(seed, lo, span):
    assert_streams_match_seeded_rng(seed, lo, lo + span)


def test_seeded_rng_streams_take_numpy_integers_and_an_empty_range():
    assert SeededRng.streams(5, 7, 7) == []
    got = SeededRng.streams(np.int64(5), np.uint32(2), np.int16(4))
    assert [(r.seed, r.stream) for r in got] == [(5, 2), (5, 3)]
    assert {type(x) for r in got for x in (r.seed, r.stream)} == {int}
    for r in got:
        assert r.gen.bit_generator.state == SeededRng(5, r.stream).gen.bit_generator.state


def test_kron_identities():
    np.testing.assert_array_equal(kron(I2, I2), np.eye(4))
    np.testing.assert_array_equal(kron(SIGMA_Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))
    proj0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    np.testing.assert_array_equal(kron(proj0, I2 / 2), np.diag([0.5, 0.5, 0.0, 0.0]))


def test_kron_matches_numpy():
    rng = SeededRng(5, 0)
    a = haar_unitary(4, rng)
    b = haar_unitary(8, rng)
    np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=1e-15)


def test_kron_dimension_guard():
    with pytest.raises(ValueError, match="exceeds"):
        kron(np.eye(128), np.eye(64))


def test_partial_trace_projector():
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = 1.0  # |00><00|
    got = partial_trace(rho, keep="control")
    np.testing.assert_allclose(got, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, keep="control"), I2 / 2, atol=1e-15)
    np.testing.assert_allclose(partial_trace(rho, keep="system"), I2 / 2, atol=1e-15)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 4), (2, 8), (4, 2)])
def test_partial_trace_against_summation(da, db):
    rng = SeededRng(17, 0)
    for _ in range(5):
        g = rng.gen.standard_normal((da * db, da * db)) + 1j * rng.gen.standard_normal(
            (da * db, da * db)
        )
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for keep in ("control", "system"):
            got = partial_trace(rho, keep=keep, control_dim=da, system_dim=db)
            want = partial_trace_by_summation(rho, keep, da, db)
            np.testing.assert_allclose(got, want, atol=1e-13)
            assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_bad_keep():
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(4) / 4, keep="register")


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        partial_trace(np.eye(6) / 6, keep="control", control_dim=4)


def test_predicates():
    assert is_unitary(HADAMARD)
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.ones((2, 3)))
    assert is_density(I2 / 2)
    assert not is_density(SIGMA_Z)  # trace 0
    assert not is_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    assert is_right_unitary(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert not is_right_unitary(np.ones((2, 3)))
    assert not is_right_unitary(np.ones((3, 2)))  # more rows than columns


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predicates_reject_non_finite_entries(bad):
    # NaN fails every comparison, so a check written as "reject if > tol"
    # used to let it through: is_density([[nan, 0], [0, 1]]) was True
    assert not is_density(np.array([[bad, 0.0], [0.0, 1.0]]))
    assert not is_density(np.array([[0.5, bad], [bad, 0.5]]))
    assert not is_unitary(np.array([[bad, 0.0], [0.0, 1.0]]))
    assert not is_unitary(np.array([[1.0, 0.0], [0.0, 1j * bad]]))


def test_is_right_unitary_on_a_stack():
    stack = random_right_unitary(2, 4, [SeededRng(17, 0)] * 5)
    assert is_right_unitary(stack) and all(is_right_unitary(t) for t in stack)
    stack[2, 1, 3] += 1e-3  # one bad member fails the whole stack
    assert not is_right_unitary(stack[2])
    assert not is_right_unitary(stack)
    assert not is_right_unitary(np.ones((4, 3, 2)))


def test_eig_hermitian_diagonal():
    spec = eig_hermitian(SIGMA_Z)
    np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-15)


def test_eig_hermitian_alpha_control():
    rho = 0.5 * (I2 + 0.3 * SIGMA_Z)
    spec = eig_hermitian(rho)
    np.testing.assert_allclose(spec.eigenvalues, [0.65, 0.35], atol=1e-15)


def test_eig_hermitian_reconstructs():
    rng = SeededRng(23, 0)
    for _ in range(10):
        g = rng.gen.standard_normal((6, 6)) + 1j * rng.gen.standard_normal((6, 6))
        h = (g + g.conj().T) / 2
        spec = eig_hermitian(h)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        np.testing.assert_allclose(recon, h, atol=1e-10)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)  # descending


def test_a_spectrum_compares_and_hashes_by_identity():
    # its fields are arrays: == raised numpy's "truth value of an array is
    # ambiguous", and hash() a TypeError
    a, b = eig_hermitian(SIGMA_Z), eig_hermitian(SIGMA_Z)
    assert a == a and a != b and not (a == b)
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_unitary_identity():
    spec = eig_unitary(np.eye(4))
    np.testing.assert_allclose(spec.eigenvalues, np.ones(4), atol=1e-15)
    np.testing.assert_allclose(
        spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(4), atol=1e-12
    )


def test_eig_unitary_sigma_x():
    spec = eig_unitary(SIGMA_X)
    # phase order puts -1 (angle pi) after +1 (angle 0)
    np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)
    for k in range(2):
        v = spec.eigenvectors[:, k]
        np.testing.assert_allclose(SIGMA_X @ v, spec.eigenvalues[k] * v, atol=1e-12)
        np.testing.assert_allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_eig_unitary_haar_reconstructs():
    rng = SeededRng(31, 0)
    u = haar_unitary(8, rng)
    spec = eig_unitary(u)
    resid = u @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.max(np.abs(resid)) < 1e-10
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_eig_unitary_degenerate_basis_is_orthonormal():
    # X (x) X has eigenvalues +-1, each doubly degenerate; the raw
    # eigensolver basis inside each block need not be orthogonal.
    u = np.kron(SIGMA_X, SIGMA_X)
    spec = eig_unitary(u)
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10
    resid = u @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.max(np.abs(resid)) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 3)).flatmap(lambda n: clustered_unitaries(2**n)))
def test_eig_unitary_diagonalizes_clustered_spectra_with_an_orthonormal_basis(u):
    # eigenphases clustered down to 1e-14 apart, or +-I: the polar factor
    # keeps the basis orthonormal and still an eigenbasis
    spec = eig_unitary(u)
    d = len(u)
    vecs = spec.eigenvectors
    assert np.abs(u @ vecs - vecs * spec.eigenvalues).max() <= TOL_SPECTRAL * d
    assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() <= TOL_CONSTRUCT * d


def test_eig_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        eig_unitary(np.diag([1.0, 2.0]))


def test_trace_overlap_matches_dense_product():
    rng = SeededRng(12, 0)
    for n in range(1, 6):
        dim = 2**n
        for rank in sorted({1, dim // 2 or 1, dim}):
            u = haar_unitary(dim, rng)
            rho = random_density(dim, rank, rng)
            assert abs(trace_overlap(u, rho) - np.trace(u @ rho)) < 1e-13
    with pytest.raises(ValueError, match=r"^rho must be a 2x2 matrix, got shape \(4, 4\)$"):
        trace_overlap(np.eye(2), np.eye(4) / 4)


def test_normalized_trace_is_exact():
    rng = SeededRng(13, 0)
    for n in range(1, 8):
        u = haar_unitary(2**n, rng)
        t = normalized_trace(u)
        assert type(t) is complex
        assert t == complex(np.trace(u)) / 2**n
        assert t == complex(np.trace(u @ (np.eye(2**n) / 2**n)))


def test_haar_unitary_is_unitary():
    rng = SeededRng(9, 0)
    for dim in (1, 2, 5, 8):
        u = haar_unitary(dim, rng)
        assert unitary_within(u, 1e-12)
    assert abs(abs(haar_unitary(1, rng)[0, 0]) - 1.0) < 1e-12
    # a sweep's instance trusts its Haar unitary: at every register size it
    # builds, it passes the check Dqc1Instance would run (TOL_SPECTRAL * d)
    for n in range(1, MAX_QUBITS + 1):
        for seed in (0, 42):
            assert is_unitary(haar_unitary(2**n, SeededRng(seed, 0)))


def test_haar_unitary_deterministic():
    a = haar_unitary(4, SeededRng(1234, 0))
    b = haar_unitary(4, SeededRng(1234, 0))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
@pytest.mark.parametrize("seed", [0, 5, 1234])
def test_haar_unitary_batch_of_one_matches_single_draw(dim, seed):
    # a square right-unitary draw is the transpose of a Haar one, bit for bit
    single = haar_unitary(dim, SeededRng(seed, 0))
    batched = random_right_unitary(dim, dim, [SeededRng(seed, 0)])
    assert batched.shape == (1, dim, dim)
    np.testing.assert_array_equal(single, batched[0].T)


@pytest.mark.parametrize("dim", [1, 2, 8, 32])
def test_haar_unitary_over_streams_matches_one_call_per_stream(dim):
    streams = [SeededRng(11, idx) for idx in range(1, 8)]
    stack = random_right_unitary(dim, dim, streams)
    assert stack.shape == (7, dim, dim)
    for idx, t_mat in enumerate(stack, start=1):
        np.testing.assert_array_equal(t_mat.T, haar_unitary(dim, SeededRng(11, idx)))


def _phase_fixed_ginibre_q(gen, shape):
    """The construction the samplers must keep: a real then an imaginary
    Ginibre block from the stream, LAPACK's QR, and R's diagonal phases
    moved into Q."""
    g = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [0, 1234])
def test_haar_unitary_bits_are_the_phase_fixed_qr_of_one_ginibre_draw(dim, seed):
    gen = SeededRng(seed, 3).gen
    rng = SeededRng(seed, 3)
    np.testing.assert_array_equal(haar_unitary(dim, rng), _phase_fixed_ginibre_q(gen, (dim, dim)))
    assert rng.gen.standard_normal() == gen.standard_normal()  # nothing else drawn


def test_haar_unitary_batch_members_are_unitary():
    stack = random_right_unitary(4, 4, [SeededRng(21, 0)] * 6)
    assert stack.shape == (6, 4, 4)
    for u in stack:
        assert unitary_within(u, 1e-12)


def test_haar_trace_moment_against_scipy():
    """E|Tr U|^2 = 1 under the Haar measure, cross-checked with an
    independently implemented sampler."""
    rng = SeededRng(123, 0)
    ours = np.mean(
        [abs(np.trace(haar_unitary(4, rng))) ** 2 for _ in range(10**4)]
    )
    theirs = unitary_group.rvs(4, size=10**4, random_state=np.random.default_rng(7))
    ref = np.mean(np.abs(np.trace(theirs, axis1=-2, axis2=-1)) ** 2)
    assert abs(ours - 1.0) < 0.05
    assert abs(ref - 1.0) < 0.05


def test_random_density_properties():
    rng = SeededRng(77, 0)
    rho1 = random_density(4, 1, rng)
    assert abs(np.sum(np.abs(rho1) ** 2) - 1.0) < 1e-10  # rank 1 means pure
    rho = random_density(2, 2, rng)
    evals = np.linalg.eigvalsh(rho)
    assert abs(evals.sum() - 1.0) < 1e-12
    assert evals.min() >= -1e-12
    with pytest.raises(ValueError):
        random_density(4, 5, rng)


def test_random_right_unitary():
    rng = SeededRng(13, 0)
    t = random_right_unitary(2, 4, rng)
    assert t.shape == (2, 4)
    assert is_right_unitary(t, 1e-12)
    full = random_right_unitary(3, 3, rng)
    assert unitary_within(full, 1e-12)
    with pytest.raises(ValueError):
        random_right_unitary(5, 3, rng)


@pytest.mark.parametrize("rows,cols,k", [(1, 1, 3), (2, 4, 50), (4, 8, 256), (32, 64, 8)])
def test_random_right_unitary_stacks_match_per_call_draws(rows, cols, k):
    # one stream per member, and one stream listed k times, both give the
    # bits of k separate calls in order
    streams = [SeededRng(31, idx) for idx in range(k)]
    stack = random_right_unitary(rows, cols, streams)
    assert stack.shape == (k, rows, cols)
    for idx, t_mat in enumerate(stack):
        np.testing.assert_array_equal(t_mat, random_right_unitary(rows, cols, SeededRng(31, idx)))
    repeated = random_right_unitary(rows, cols, [SeededRng(37, 0)] * k)
    assert repeated.shape == (k, rows, cols)
    rng = SeededRng(37, 0)
    for t_mat in repeated:
        np.testing.assert_array_equal(t_mat, random_right_unitary(rows, cols, rng))
    assert is_right_unitary(repeated)


def test_random_right_unitary_draws_rows_times_cols_normals():
    # the thin draw reads a cols x rows Ginibre block, half a square one
    # when rows = cols / 2
    gen = SeededRng(41, 0).gen
    rng = SeededRng(41, 0)
    thin = _phase_fixed_ginibre_q(gen, (8, 4))
    np.testing.assert_array_equal(random_right_unitary(4, 8, rng), thin.T)
    assert rng.gen.standard_normal() == gen.standard_normal()


@pytest.mark.parametrize("rows,cols,k", [(1, 1, 3), (2, 4, 50), (4, 8, 256), (32, 64, 8)])
def test_a_stream_listed_k_times_gives_the_bits_of_one_k_block_draw(rows, cols, k):
    # a draw is a list of streams, one block per entry in order: the same
    # stream k times reads k blocks in turn, as one (k, 2, rows, cols) draw
    h = SeededRng(53, 0).gen.standard_normal((k, 2, rows, cols))
    np.testing.assert_array_equal(_ginibre(rows, cols, [SeededRng(53, 0)] * k), h[:, 0] + 1j * h[:, 1])
    one = SeededRng(53, 1).gen.standard_normal((2, rows, cols))
    np.testing.assert_array_equal(_ginibre(rows, cols, [SeededRng(53, 1)]), [one[0] + 1j * one[1]])


def test_random_right_unitary_haar_moments():
    # Haar on the Stiefel manifold: every entry of a rows x cols draw has
    # E|T_ij|^2 = 1/cols and E|T_ij|^4 = 2/(cols (cols + 1))
    rows, cols, draws = 4, 16, 20000
    stack = random_right_unitary(rows, cols, [SeededRng(43, 0)] * draws)
    assert is_right_unitary(stack)
    power = np.abs(stack) ** 2
    assert abs(power.mean() - 1.0 / cols) < 1e-12  # exact: rows are unit vectors
    fourth = (power**2).mean()
    assert abs(fourth - 2.0 / (cols * (cols + 1))) < 0.02 * 2.0 / (cols * (cols + 1))
    # and no entry is biased: per-entry second moments all near 1/cols
    assert np.max(np.abs(power.mean(axis=0) * cols - 1.0)) < 0.05


def test_matrix_json_round_trip(tmp_path):
    rng = SeededRng(2, 0)
    a = haar_unitary(4, rng)
    payload = matrix_to_json(a)
    assert payload["dim"] == 4
    np.testing.assert_array_equal(matrix_from_json(payload), a)

    path = tmp_path / "u.json"
    save_matrix(path, a)
    np.testing.assert_array_equal(load_matrix(path), a)
    # the on-disk form is plain JSON with separate real and imaginary parts
    raw = json.loads(path.read_text())
    assert set(raw) == {"dim", "re", "im"}


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})


_EYE2 = [[1.0, 0.0], [0.0, 1.0]]
_ZERO2 = [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "payload,key",
    [
        ({"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": _ZERO2}, "re"),
        ({"dim": 2, "re": _EYE2, "im": [[0.0, 0.0, 0.0], [0.0, 0.0]]}, "im"),
        ({"dim": 2, "re": [[1.0, 0.0]], "im": _ZERO2}, "re"),
        ({"dim": 2, "re": [[[1.0], 0.0], [0.0, 1.0]], "im": _ZERO2}, "re"),
        ({"dim": 2, "re": [["1", 0.0], [0.0, 1.0]], "im": _ZERO2}, "re"),
        ({"dim": 2, "re": _EYE2, "im": [[True, 0.0], [0.0, 0.0]]}, "im"),
        ({"dim": 2, "re": "eye", "im": _ZERO2}, "re"),
        ({"dim": 2, "re": [[10**400, 0.0], [0.0, 1.0]], "im": _ZERO2}, "re"),
        ({"dim": "2", "re": _EYE2, "im": _ZERO2}, "dim"),
        ({"dim": 2.0, "re": _EYE2, "im": _ZERO2}, "dim"),
        ({"dim": True, "re": [[1.0]], "im": [[0.0]]}, "dim"),
        ({"dim": 0, "re": [], "im": []}, "dim"),
        ({"dim": "2" * 5000, "re": _EYE2, "im": _ZERO2}, "dim"),
    ],
    ids=[
        "ragged-re",
        "ragged-im",
        "short-re",
        "nested-entry",
        "string-entry",
        "bool-entry",
        "re-not-a-list",
        "huge-entry",
        "string-dim",
        "float-dim",
        "bool-dim",
        "zero-dim",
        "long-string-dim",
    ],
)
def test_matrix_from_json_names_the_malformed_key(payload, key):
    # ragged rows used to leak numpy's "inhomogeneous shape" text, a string
    # dim to report matching shapes as a mismatch, a float dim passed, and
    # a 5000-character dim was echoed whole
    with pytest.raises(ValueError, match=f"key '{key}'") as info:
        matrix_from_json(payload)
    assert "inhomogeneous" not in str(info.value) and len(str(info.value)) < 200


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_load_matrix_rejects_non_finite_entries(tmp_path, part, bad):
    payload = matrix_to_json(np.eye(2, dtype=np.complex128) / 2)
    payload[part][1][0] = bad
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))  # NaN and Infinity are JSON tokens to Python
    with pytest.raises(ValueError, match="non-finite"):
        load_matrix(path)


def test_matrix_from_json_names_a_missing_im():
    with pytest.raises(ValueError, match=r"^matrix payload missing key 'im'$"):
        matrix_from_json({"dim": 2, "re": _EYE2})


@pytest.mark.parametrize(
    "text,problem",
    [
        ("{", r"not valid JSON \(Expecting property name"),
        ("[1, 2]", "expected a JSON object$"),
        (DEEP_JSON, r"not valid JSON \(maximum recursion depth exceeded"),  # was a RecursionError
    ],
    ids=["invalid-json", "json-array", "deep-json"],
)
def test_load_matrix_names_its_file_when_it_holds_no_json_object(tmp_path, text, problem):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {problem}"):
        load_matrix(path)


def test_eig_unitary_rejects_a_basis_that_does_not_diagonalize(monkeypatch):
    # a LAPACK that returned a wrong eigenbasis would be caught, not trusted
    evals = np.array([1.0, -1.0], dtype=complex)
    monkeypatch.setattr(np.linalg, "eig", lambda u: (evals, np.eye(2, dtype=complex)))
    with pytest.raises(ValueError, match="^orthonormalized eigenbasis does not diagonalize the unitary$"):
        eig_unitary(SIGMA_X)
