"""Tests for the one-clean-qubit circuit construction and evolution."""

import math

import numpy as np
import pytest

import dqc1.circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1.circuit import (
    MAX_QUBITS,
    ControlQubit,
    Dqc1Instance,
    _bloch_norm,
    diag_phase_unitary,
    final_control_closed,
    general_final_control,
    linear_entropy_closed,
    pauli_string,
    unitary_from_spec,
)
from dqc1.linalg import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Z,
    SeededRng,
    haar_unitary,
    is_unitary,
    kron,
    random_density,
    save_matrix,
    trace_overlap,
)
from support import partial_trace

I2 = np.eye(2, dtype=np.complex128)


def random_bloch(rng):
    v = rng.gen.standard_normal(3)
    v /= np.linalg.norm(v)
    return tuple(v * rng.gen.uniform(0.0, 1.0))


# --- control qubit -----------------------------------------------------------


def test_control_from_alpha_range():
    assert ControlQubit.from_alpha(1.0).bloch == (0.0, 0.0, 1.0)
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            ControlQubit.from_alpha(bad)


def test_control_from_bloch_norm_guard():
    ControlQubit.from_bloch((0.6, 0.0, 0.8))  # norm exactly 1 is allowed
    with pytest.raises(ValueError, match="norm"):
        ControlQubit.from_bloch((0.8, 0.0, 0.8))
    with pytest.raises(ValueError):
        ControlQubit.from_bloch((1.0, 0.0))
    # past the sphere within TOL_CONSTRUCT: scaled back, with a pure spectrum
    for p in ((0.0, 0.0, 1.0 + 1e-13), (0.6, 0.8 + 1e-13, 0.0), (-1.0 - 1e-12, 0.0, 0.0)):
        ctl = ControlQubit.from_bloch(p)
        assert ctl.bloch == tuple(x / _bloch_norm(p) for x in p)
        assert ctl.polarization == 1.0
        vecs, vals = ctl.eigensystem()
        assert vals.min() == 0.0
        np.testing.assert_allclose(vecs * vals @ vecs.conj().T, ctl.density(), atol=1e-15)


_UNIT = st.floats(-1.0, 1.0)
_BALL = st.tuples(_UNIT, _UNIT, _UNIT).filter(
    lambda p: math.sqrt(sum(x * x for x in p)) <= 1.0
)
_SPHERE = st.tuples(_UNIT, _UNIT, _UNIT).filter(
    lambda p: math.sqrt(sum(x * x for x in p)) > 1e-3
).map(lambda p: tuple(np.asarray(p) / np.linalg.norm(p)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_BALL, _SPHERE))
def test_control_from_bloch_accepts_finite_unit_ball(p):
    ctl = ControlQubit.from_bloch(p)
    p = tuple(float(x) for x in p)
    norm = _bloch_norm(p)
    # a normalized draw can land an ulp past the sphere: it is scaled back
    assert ctl.bloch == (p if norm <= 1.0 else tuple(x / norm for x in p))
    assert ctl.polarization <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    _BALL,
    st.integers(0, 2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_control_from_bloch_rejects_non_finite(p, idx, bad):
    p = list(p)
    p[idx] = bad
    with pytest.raises(ValueError, match="finite"):
        ControlQubit.from_bloch(p)


def test_control_constructors_build_equal_objects():
    for alpha in (0.5, 1.0):
        a = ControlQubit.from_alpha(alpha)
        b = ControlQubit.from_bloch((0.0, 0.0, alpha))
        c = ControlQubit(bloch=(0, 0, alpha))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert a.bloch == (0.0, 0.0, float(alpha))
    assert len({ControlQubit.from_alpha(0.5), ControlQubit.from_bloch((0, 0, 0.5))}) == 1


@pytest.mark.parametrize(
    "bloch, needle",
    [
        ((2.0, 0.0, 0.0), "norm"),
        ((0.8, 0.0, 0.8), "norm"),
        ((math.nan, 0.0, 0.0), "finite"),
        ((0.0, math.inf, 0.0), "finite"),
        ((0.0, 0.0, -math.inf), "finite"),
        ((1.0, 0.0), "three components"),
        ((0.1, 0.2, 0.3, 0.4), "three components"),
    ],
)
def test_control_direct_constructor_validates(bloch, needle):
    with pytest.raises(ValueError, match=needle):
        ControlQubit(bloch=bloch)


def test_control_polarization_exact_on_axis():
    # axis-aligned vectors bypass the sqrt so no rounding creeps in
    assert ControlQubit.from_alpha(0.3).polarization == 0.3
    assert ControlQubit.from_bloch((0.0, 0.0, -0.25)).polarization == 0.25


def test_control_density():
    np.testing.assert_allclose(
        ControlQubit.from_alpha(0.3).density(), np.diag([0.65, 0.35]), atol=1e-15
    )
    np.testing.assert_allclose(
        ControlQubit.from_bloch((1.0, 0.0, 0.0)).density(),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        atol=1e-15,
    )


def test_control_eigensystem_z_polarized_is_identity():
    vecs, vals = ControlQubit.from_alpha(0.4).eigensystem()
    np.testing.assert_array_equal(vecs, I2)
    np.testing.assert_array_equal(vals, [0.7, 0.3])
    vecs, vals = ControlQubit.from_bloch((0.0, 0.0, 0.0)).eigensystem()
    np.testing.assert_array_equal(vecs, I2)
    np.testing.assert_array_equal(vals, [0.5, 0.5])


def test_control_eigensystem_reconstructs():
    rng = SeededRng(41, 0)
    for _ in range(20):
        ctl = ControlQubit.from_bloch(random_bloch(rng))
        vecs, vals = ctl.eigensystem()
        np.testing.assert_allclose(
            (vecs * vals) @ vecs.conj().T, ctl.density(), atol=1e-14
        )
        np.testing.assert_allclose(vecs.conj().T @ vecs, I2, atol=1e-14)
        assert vals[0] >= vals[1]
        np.testing.assert_allclose(
            vals, [(1 + ctl.polarization) / 2, (1 - ctl.polarization) / 2], atol=1e-15
        )


# --- instance and evolution --------------------------------------------------


def test_instance_validation():
    u = haar_unitary(2, SeededRng(1, 0))
    ctl = ControlQubit.from_alpha(1.0)
    with pytest.raises(ValueError, match="n must"):
        Dqc1Instance(n=0, unitary=u, control=ctl)
    with pytest.raises(ValueError, match="n must"):
        Dqc1Instance(n=11, unitary=np.eye(2**11), control=ctl)
    with pytest.raises(ValueError, match="shape"):
        Dqc1Instance(n=2, unitary=u, control=ctl)
    with pytest.raises(ValueError, match="^unitary has a non-finite entry$"):
        Dqc1Instance(n=1, unitary=np.full((2, 2), np.nan), control=ctl)
    with pytest.raises(ValueError, match="not unitary"):
        Dqc1Instance(n=1, unitary=np.ones((2, 2)), control=ctl)
    with pytest.raises(ValueError, match="density"):
        Dqc1Instance(n=1, unitary=u, control=ctl, system_state=SIGMA_Z)


def test_public_instance_rejects_a_non_unitary_with_its_text():
    ctl = ControlQubit.from_alpha(1.0)
    for u in (np.ones((2, 2)), (1 + 1e-6) * haar_unitary(4, SeededRng(2, 0))):
        with pytest.raises(ValueError, match="^unitary is not unitary within tolerance$"):
            Dqc1Instance(n=len(u).bit_length() - 1, unitary=u, control=ctl)


def test_instance_default_register_is_maximally_mixed():
    inst = Dqc1Instance(n=2, unitary=np.eye(4), control=ControlQubit.from_alpha(1.0))
    np.testing.assert_array_equal(inst.system_state, np.eye(4) / 4)
    assert inst.dim == 4


def test_evolve_identity_unitary_gives_plus_control():
    marginal = general_final_control(ControlQubit.from_alpha(1.0), I2 / 2, I2)
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    np.testing.assert_allclose(marginal, plus, atol=1e-14)


def test_evolve_mixed_control_is_invariant():
    u = haar_unitary(4, SeededRng(3, 0))
    rho_n = random_density(4, 4, SeededRng(3, 1))
    marginal = general_final_control(ControlQubit.from_bloch((0.0, 0.0, 0.0)), rho_n, u)
    np.testing.assert_allclose(marginal, I2 / 2, atol=1e-13)


def test_evolve_matches_closed_form():
    """The dense oracle against the control marginal of the closed-form joint
    state (|0><0| (x) I + |1><1| (x) I + alpha |0><1| (x) U^+
    + alpha |1><0| (x) U) / 2d of a z-polarized control."""
    rng = SeededRng(19, 0)
    for n in (1, 2, 3):
        dim = 2**n
        for alpha in (0.25, 0.7, 1.0):
            u = haar_unitary(dim, rng)
            eye = np.eye(dim)
            joint = np.block([[eye, alpha * u.conj().T], [alpha * u, eye]]) / (2 * dim)
            np.testing.assert_allclose(
                general_final_control(ControlQubit.from_alpha(alpha), eye / dim, u),
                partial_trace(joint, keep="control", system_dim=dim),
                atol=1e-12,
            )


def test_final_control_marginal_and_expectations():
    """The control marginal is 1/2 [[1, a conj(t)], [a t, 1]], so the x and y
    expectations read off the two quadratures of t = Tr U / 2^n."""
    rng = SeededRng(29, 0)
    for n in (1, 2):
        u = haar_unitary(2**n, rng)
        alpha = 0.6
        t = np.trace(u) / 2**n
        marginal = general_final_control(
            ControlQubit.from_alpha(alpha), np.eye(2**n) / 2**n, u
        )
        want = 0.5 * np.array([[1.0, alpha * t.conjugate()], [alpha * t, 1.0]])
        np.testing.assert_allclose(marginal, want, atol=1e-13)
        assert abs(np.trace(marginal @ SIGMA_X).real - alpha * t.real) < 1e-13
        assert abs(np.trace((marginal @ (1j * SIGMA_X @ SIGMA_Z))).real - alpha * t.imag) < 1e-13


def _branch_marginal(phi, u):
    """Register marginal of the branch state, (|phi><phi| + U|phi><phi|U^+)/2,
    by tracing out the control of the dense pure state
    (|0>|phi> + |1>U|phi>)/sqrt(2)."""
    psi = np.concatenate([phi, u @ phi]) / np.sqrt(2.0)
    return partial_trace(np.outer(psi, psi.conj()), keep="system")


def test_reduced_system_state_matches_partial_trace():
    rng = SeededRng(37, 0)
    for n in (1, 2, 3):
        u = haar_unitary(2**n, rng)
        phi = rng.gen.standard_normal(2**n) + 1j * rng.gen.standard_normal(2**n)
        phi /= np.linalg.norm(phi)
        uphi = u @ phi
        np.testing.assert_allclose(
            _branch_marginal(phi, u),
            0.5 * (np.outer(phi, phi.conj()) + np.outer(uphi, uphi.conj())),
            atol=1e-13,
        )
    # a U eigenvector stays pure
    np.testing.assert_allclose(
        _branch_marginal(np.array([1.0, 0.0]), SIGMA_Z),
        [[1.0, 0.0], [0.0, 0.0]],
        atol=1e-15,
    )


def test_general_final_control_identity_unitary():
    rng = SeededRng(43, 0)
    for _ in range(10):
        ctl = ControlQubit.from_bloch(random_bloch(rng))
        rho_f = general_final_control(ctl, I2 / 2, I2)
        np.testing.assert_allclose(
            rho_f, HADAMARD @ ctl.density() @ HADAMARD, atol=1e-13
        )


def test_general_final_control_traceless_flip():
    ctl = ControlQubit.from_bloch((0.0, 0.0, 1.0))
    np.testing.assert_allclose(
        general_final_control(ctl, I2 / 2, SIGMA_X), I2 / 2, atol=1e-13
    )


_TRANSVERSE = st.tuples(_UNIT, _UNIT).filter(
    lambda q: math.sqrt(q[0] * q[0] + q[1] * q[1]) <= 1.0
).map(lambda q: (q[0], q[1], 0.0))


@st.composite
def _register(draw):
    # (U, rho_n) with n in 1..4 and rho_n of any rank 1..d.
    n = draw(st.integers(1, 4))
    dim = 2**n
    rank = draw(st.integers(1, dim))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)), 0)
    return haar_unitary(dim, rng), random_density(dim, rank, rng)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_BALL, _SPHERE, _TRANSVERSE), _register())
def test_final_control_closed_matches_dense_oracle(p, register):
    u, rho_n = register
    ctl = ControlQubit.from_bloch(p)
    np.testing.assert_allclose(
        final_control_closed(ctl, rho_n, u),
        general_final_control(ctl, rho_n, u),
        rtol=0.0,
        atol=1e-13,
    )


def test_linear_entropy_plug_ins():
    assert linear_entropy_closed((1.0, 0.0, 0.0), 0.83 + 0.2j) == 0.0
    assert linear_entropy_closed((0.0, 0.0, 1.0), 0.0) == 0.5


def test_linear_entropy_matches_evolution():
    rng = SeededRng(53, 0)
    for _ in range(25):
        n = int(rng.gen.integers(1, 4))
        dim = 2**n
        ctl = ControlQubit.from_bloch(random_bloch(rng))
        u = haar_unitary(dim, rng)
        rho_n = random_density(dim, dim, rng)
        rho_f = general_final_control(ctl, rho_n, u)
        direct = 1.0 - float(np.trace(rho_f @ rho_f).real)
        t = complex(np.trace(u @ rho_n))
        assert abs(linear_entropy_closed(ctl.bloch, t) - direct) < 1e-12


# --- unitary spec grammar ----------------------------------------------------


def test_pauli_string():
    np.testing.assert_array_equal(pauli_string("XZ"), np.kron(SIGMA_X, SIGMA_Z))
    np.testing.assert_array_equal(pauli_string("I"), I2)
    with pytest.raises(ValueError):
        pauli_string("XQ")
    with pytest.raises(ValueError):
        pauli_string("")


def test_diag_phase_unitary():
    u = diag_phase_unitary([0.0, np.pi / 2])
    np.testing.assert_allclose(u, np.diag([1.0, 1.0j]), atol=1e-15)
    with pytest.raises(ValueError):
        diag_phase_unitary([])
    with pytest.raises(ValueError, match="angle 3 is nan"):
        diag_phase_unitary([0.0, 0.0, 0.0, np.nan])
    with pytest.raises(ValueError, match="angle 0 is inf, angle 1 is -inf"):
        diag_phase_unitary([np.inf, -np.inf])


def test_unitary_from_spec_named_forms():
    np.testing.assert_array_equal(unitary_from_spec("identity", 2), np.eye(4))
    np.testing.assert_array_equal(
        unitary_from_spec("pauli:XZ", 2), np.kron(SIGMA_X, SIGMA_Z)
    )
    u = unitary_from_spec("diag-phase:0,1.5707963267948966", 1)
    np.testing.assert_allclose(u, np.diag([1.0, 1.0j]), atol=1e-15)
    h1 = unitary_from_spec("haar", 2, SeededRng(8, 0))
    h2 = unitary_from_spec("haar", 2, SeededRng(8, 0))
    np.testing.assert_array_equal(h1, h2)


def test_unitary_from_spec_file_round_trip(tmp_path):
    u = haar_unitary(4, SeededRng(6, 0))
    path = tmp_path / "u.json"
    save_matrix(path, u)
    np.testing.assert_array_equal(unitary_from_spec(f"file:{path}", 2), u)

    bad = tmp_path / "bad.json"
    save_matrix(bad, np.ones((4, 4)))
    with pytest.raises(ValueError, match="^spec file is not unitary within tolerance$"):
        unitary_from_spec(f"file:{bad}", 2)


@pytest.mark.parametrize(
    "spec,n",
    [
        ("haar", 1),  # no rng supplied
        ("pauli:XYZ", 2),  # wrong letter count
        ("diag-phase:0,0,0", 2),  # wrong angle count
        ("diag-phase:0,abc", 1),  # non-numeric
        ("diag-phase:0,0,0,nan", 2),  # non-finite
        ("diag-phase:inf,0", 1),
        ("rotation:0.4", 1),  # unknown form
    ],
)
def test_unitary_from_spec_rejects(spec, n):
    with pytest.raises(ValueError) as info:
        unitary_from_spec(spec, n)
    # its own errors name the spec first; diag_phase_unitary's keep their text
    own = not spec.endswith(("nan", "inf,0"))
    assert str(info.value).startswith("spec " if own else "diag-phase angles must be finite: ")


_NOT_A_FORM = "is not 'haar', 'identity', 'pauli:<letters>', 'diag-phase:<angles>' or 'file:<path>'"


@pytest.mark.parametrize(
    "spec,n,text",
    [
        ("haar", 1, "spec 'haar' requires a random stream"),
        ("pauli:XY", 1, "spec 'pauli:XY' has 2 letters, expected n=1"),
        ("diag-phase:0,0,0", 2, "spec 'diag-phase:0,0,0' has 3 angles, expected 2**n = 4"),
        ("diag-phase:0,abc", 1, "spec 'diag-phase:0,abc' has a non-numeric angle"),
        ("rotation", 1, f"spec 'rotation' {_NOT_A_FORM}"),
        ("HAAR", 1, f"spec 'HAAR' {_NOT_A_FORM}"),
    ],
)
def test_unitary_from_spec_error_text(spec, n, text):
    with pytest.raises(ValueError) as info:
        unitary_from_spec(spec, n)
    assert str(info.value) == text


def test_unitary_from_spec_names_an_unreadable_file_and_keeps_the_os_text(tmp_path):
    # a missing path raised a bare FileNotFoundError, a directory an IsADirectoryError
    for path, os_text in [(tmp_path / "absent.json", "No such file"), (tmp_path, "Is a directory")]:
        with pytest.raises(ValueError) as info:
            unitary_from_spec(f"file:{path}", 1)
        assert str(info.value).startswith("spec file cannot be read: ")
        assert os_text in str(info.value) and str(path) in str(info.value)
    save_matrix(tmp_path / "u.json", haar_unitary(4, SeededRng(6, 0)))
    with pytest.raises(ValueError, match=r"^spec file must be a 2x2 matrix, got shape \(4, 4\)$"):
        unitary_from_spec(f"file:{tmp_path / 'u.json'}", 1)


def test_diag_phase_lists_at_most_three_non_finite_angles():
    # 1024 NaN angles: three are named and the rest counted, not listed
    with pytest.raises(ValueError) as info:
        unitary_from_spec("diag-phase:" + ",".join(["nan"] * 1024), 10)
    assert str(info.value) == (
        "diag-phase angles must be finite: "
        "angle 0 is nan, angle 1 is nan, angle 2 is nan (and 1021 more)"
    )


N_RANGE = f"n must be an integer in \\[1, {MAX_QUBITS}\\]"


@pytest.mark.parametrize("n", [-1, 0, MAX_QUBITS + 1])
@pytest.mark.parametrize("spec", ["identity", "haar", "pauli:X"])
def test_unitary_from_spec_rejects_register_size_first(spec, n):
    # checked before anything of size 2**n is built
    with pytest.raises(ValueError, match=f"^{N_RANGE}, got {n}$"):
        unitary_from_spec(spec, n, SeededRng(0, 0))


@pytest.mark.parametrize(
    "spec",
    [
        lambda n: "identity",
        lambda n: "pauli:" + ("XYZI" * 3)[:n],
        lambda n: "diag-phase:" + ",".join(str(0.37 * k) for k in range(2**n)),
    ],
    ids=["identity", "pauli", "diag-phase"],
)
def test_exact_spec_unitaries_pass_the_instance_check_at_every_size(spec):
    # a sweep's instance trusts these as it trusts a Haar QR (test_linalg)
    for n in range(1, MAX_QUBITS + 1):
        assert is_unitary(unitary_from_spec(spec(n), n))


@pytest.mark.parametrize("n", [True, 1.0])
def test_register_size_must_be_an_integer(n):
    # True was taken as n=1, and 1.0 failed inside 2**n-sized code with
    # "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match=f"^{N_RANGE}, got {n}$"):
        Dqc1Instance(n=n, unitary=np.eye(2), control=ControlQubit.from_alpha(1.0))
    with pytest.raises(ValueError, match=f"^{N_RANGE}, got {n}$"):
        unitary_from_spec("identity", n)


@pytest.mark.parametrize("rank", [None, 2])  # None: the maximally mixed register
def test_instance_keeps_its_overlap_from_first_use(monkeypatch, rank):
    # the instance takes t by trace_overlap's unchecked core: construction
    # checked U and the register
    calls = []
    real = dqc1.circuit._trace_overlap

    def counting(u, rho):
        calls.append(1)
        return real(u, rho)

    monkeypatch.setattr(dqc1.circuit, "_trace_overlap", counting)
    rho = None if rank is None else random_density(8, rank, SeededRng(43, 0))
    u = haar_unitary(8, SeededRng(47, 0))
    inst = Dqc1Instance(3, u, ControlQubit.from_alpha(0.5), system_state=rho)
    assert calls == []  # construction does not take t
    t = inst.overlap
    assert repr(t) == repr(trace_overlap(inst.unitary, inst.system_state))  # bit for bit
    assert inst.overlap == t and calls == [1]  # taken once, then kept


def overlap_unitaries(n):
    """The readout's unitaries at n qubits, labelled, each with its negation:
    Haar, I, Z...Z, XYXY..., and a diag-phase of angles 0 and pi, whose trace
    quadratures are zero, signed zero or exact."""
    specs = ["haar", "identity", "pauli:" + "Z" * n, "pauli:" + ("XY" * n)[:n]]
    specs.append("diag-phase:" + ",".join(("0", repr(math.pi))[k % 2] for k in range(2**n)))
    for spec in specs:
        u = unitary_from_spec(spec, n, SeededRng(11, 0))
        yield spec, u
        yield "-" + spec, -u


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_default_register_overlap_has_the_bits_of_the_public_sum(n):
    # the default register is I/d in F order, so rho.T is C-contiguous like U;
    # the product's entries and t's repr, signed zeros included, are those of
    # the public sum on a C-ordered np.eye(d) / d
    ctl, d = ControlQubit.from_alpha(0.5), 2**n
    for label, u in overlap_unitaries(n):
        inst = Dqc1Instance(n, u, ctl)
        assert inst.system_state.flags.f_contiguous, label
        assert repr(inst.overlap) == repr(trace_overlap(u, np.eye(d) / d)), label


def test_a_given_register_keeps_the_transposed_product():
    # a non-symmetric register: t sums U_ij rho_ji, the entries of U * rho.T
    u, ctl = haar_unitary(8, SeededRng(3, 1)), ControlQubit.from_alpha(0.5)
    for rho in (random_density(8, 3, SeededRng(4, 0)), np.asfortranarray(random_density(8, 8, SeededRng(4, 1)))):
        assert np.max(np.abs(rho - rho.T)) > 0.01
        inst = Dqc1Instance(3, u, ctl, system_state=rho)
        assert repr(inst.overlap) == repr(complex(np.sum(u * rho.T)))
        assert abs(inst.overlap - np.trace(u @ rho)) < 1e-14


def test_an_instance_compares_and_hashes_by_identity():
    # its fields hold arrays: == raised numpy's "truth value of an array is
    # ambiguous" and hash() a TypeError
    u, ctl = haar_unitary(4, SeededRng(3, 0)), ControlQubit.from_alpha(0.5)
    a, b = Dqc1Instance(2, u, ctl), Dqc1Instance(2, u, ctl)
    assert a == a and a != b and not (a == b)
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
