"""The package's one trust boundary: every public function checks its
arguments at entry and rejects a bad one with an error that names it, and
never returns a number for something that is neither a unitary nor a
density matrix where one is expected."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dqc1.circuit import (
    ControlQubit,
    Dqc1Instance,
    diag_phase_unitary,
    final_control_closed,
    general_final_control,
    linear_entropy_closed,
    unitary_from_spec,
)
from dqc1.cli import main
from dqc1.entpower import (
    PureEnsemble,
    branch_coefficients,
    brute_force_entpower,
    brute_force_min_mixing,
    decompose_from_T,
    ensemble_average,
    entpower_alpha,
    entpower_bounds,
    entpower_standard,
    fourier_ensemble,
)
from dqc1.experiments import ConfigError, ExperimentConfig
from dqc1.linalg import (
    HADAMARD,
    SIGMA_X,
    SeededRng,
    eig_hermitian,
    eig_unitary,
    haar_unitary,
    is_density,
    is_right_unitary,
    is_unitary,
    kron,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    random_density,
    random_right_unitary,
    trace_overlap,
)
from dqc1.measurement import (
    error_budget,
    estimate_trace,
    expect_pauli,
    rounds_for_budget,
    sample_shots,
    total_complexity,
)

I2 = np.eye(2, dtype=np.complex128)
NAN2 = np.full((2, 2), np.nan)
PURE = ControlQubit.from_alpha(1.0)
FOUR_STATES = PureEnsemble(np.full(4, 0.25), np.eye(4))  # an ensemble of I/4


# --- regressions: each returned a wrong number or failed inside numpy -------


@pytest.mark.parametrize(
    "name,call",
    [
        ("u", lambda: entpower_standard(2 * I2)),  # returned 0.0
        ("u", lambda: entpower_bounds(2 * I2, I2 / 2)),  # returned (-1.0, 0.0)
        ("a", lambda: eig_hermitian(NAN2)),  # returned NaN eigenvalues
        ("u", lambda: trace_overlap(NAN2, I2 / 2)),  # returned NaN
        ("rho", lambda: trace_overlap(I2, NAN2)),
        ("u", lambda: normalized_trace(NAN2)),  # returned NaN
        ("t", lambda: rounds_for_budget(error_budget(1, 1, 0.5, 0.5), 1.0, complex(math.nan, 1))),
        ("p", lambda: linear_entropy_closed((2, 0, 0), 1)),  # returned -1.5
        ("p and t", lambda: linear_entropy_closed((0, 0, 1), 2)),
        ("n", lambda: total_complexity(1.5, 2)),  # returned 3.0
        ("n", lambda: total_complexity(True, 2)),  # returned 2
        ("target", lambda: decompose_from_T(NAN2, I2)),  # "ensemble is empty"
        ("rho_n", lambda: entpower_bounds(I2, math.nan)),  # "shape mismatch"
        ("rho_n", lambda: entpower_bounds(I2, NAN2)),  # "SVD did not converge"
        # broadcast errors
        ("ens", lambda: ensemble_average(Dqc1Instance(1, I2, PURE), FOUR_STATES)),
        ("u", lambda: general_final_control(PURE, I2 / 2, np.eye(4))),
        ("u", lambda: eig_unitary(np.zeros((0, 0)))),  # numpy's zero-size reduction
        ("rows", lambda: random_right_unitary(-1, 3, SeededRng(0))),  # "negative dimensions"
        ("dim", lambda: haar_unitary(2.5, SeededRng(0))),  # numpy's TypeError
        ("rank", lambda: random_density(2, 1.5, SeededRng(0))),
        ("spec", lambda: unitary_from_spec(5, 1)),  # AttributeError from spec.startswith
        ("alpha", lambda: ControlQubit.from_alpha("x")),  # TypeError from <
        ("alpha", lambda: entpower_alpha(I2, "x")),
        ("T", lambda: branch_coefficients(PURE, "ab")),  # "complex() arg is a malformed string"
        ("T", lambda: decompose_from_T(I2 / 2, "ab")),
        ("phases", lambda: diag_phase_unitary(["a"])),  # "could not convert string to float"
        ("weights", lambda: PureEnsemble(["a"], [[1]])),
        ("states", lambda: PureEnsemble([1], [["a"]])),
        # rejected before any allocation: numpy's "array is too big", then
        # MemoryErrors after asking for 149 GiB
        pytest.param("dim", lambda: haar_unitary(10**10, SeededRng(0)), id="huge-dim-haar"),
        pytest.param("dim", lambda: random_density(10**10, 1, SeededRng(0)), id="huge-dim-rho"),
        pytest.param("cols", lambda: random_right_unitary(1, 10**10, SeededRng(0)), id="huge-cols"),
    ],
)
def test_a_bad_argument_is_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


def test_is_unitary_of_an_empty_matrix_is_false():
    # raised numpy's zero-size reduction error
    assert is_unitary(np.zeros((0, 0))) is False
    assert is_density(np.zeros((0, 0))) is False
    assert is_right_unitary("abc") is False  # raised numpy's "malformed string"


# --- integers too long for Python to print -------------------------------------


def test_a_huge_integer_is_named_by_its_size():
    with pytest.raises(ConfigError, match=r"^field 'n': <\d+-bit int> outside"):
        ExperimentConfig("verify-theorem1", 10**5000)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got <\d+-bit int>$"):
        SeededRng(-(10**5000))


def test_cli_run_rejects_a_config_with_a_huge_integer(tmp_path, capsys):
    # json.loads raises a bare ValueError past Python's int-to-str digit limit
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "verify-theorem1", "n": 1' + "0" * 5000 + "}")
    assert main(["run", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: config ") and len(line) < 100


# --- the property: hostile values at every checked parameter --------------------


def _finite(x):
    """Every number in a result, however nested, is finite."""
    if isinstance(x, dict):
        return _finite(list(x.values()))
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    if isinstance(x, (int, float, complex, np.number, np.ndarray)):
        return bool(np.isfinite(x).all())
    return _finite(list(vars(x).values())) if hasattr(x, "__dict__") else True


def _close(a, b):
    return np.allclose(a, b, atol=1e-9)


def _entpower(u):
    return math.sqrt(max(0.0, 1.0 - abs(np.trace(u) / len(u)) ** 2))


#: Count parameters: (call with the value, check of a returned result, the
#: names an error may give).  A check also fails on a truncated count.
_COUNTS = {
    "SeededRng seed": (lambda x: SeededRng(x), lambda r, x: r.seed == x, ("seed",)),
    "SeededRng stream": (lambda x: SeededRng(0, x), lambda r, x: r.stream == x, ("stream",)),
    "haar_unitary dim": (
        lambda x: haar_unitary(x, SeededRng(1)),
        lambda r, x: r.shape == (x, x) and is_unitary(r),
        ("dim",),
    ),
    "random_density dim": (
        lambda x: random_density(x, 1, SeededRng(1)),
        lambda r, x: r.shape == (x, x) and is_density(r),
        ("dim",),
    ),
    "random_density rank": (
        lambda x: random_density(4, x, SeededRng(1)),
        lambda r, x: is_density(r) and np.linalg.matrix_rank(r, tol=1e-9) == x,
        ("rank",),
    ),
    "random_right_unitary rows": (
        lambda x: random_right_unitary(x, 4, SeededRng(1)),
        lambda r, x: r.shape == (x, 4) and is_right_unitary(r),
        ("rows",),
    ),
    "random_right_unitary cols": (
        lambda x: random_right_unitary(2, x, SeededRng(1)),
        lambda r, x: r.shape == (2, x) and is_right_unitary(r),
        ("cols", "rows"),
    ),
    "random_right_unitary count": (
        lambda x: random_right_unitary(1, 3, SeededRng(1), x),
        lambda r, x: r.shape == ((1, 3) if x is None else (x, 1, 3)) and is_right_unitary(r),
        ("count",),
    ),
    "brute_force_min_mixing samples": (
        lambda x: brute_force_min_mixing(ControlQubit.from_alpha(0.5), x, 4, SeededRng(1)),
        lambda r, x: abs(r - 0.5) < 1e-9,
        ("samples",),
    ),
    "brute_force_min_mixing cols": (
        lambda x: brute_force_min_mixing(ControlQubit.from_alpha(0.5), 3, x, SeededRng(1)),
        lambda r, x: abs(r - 0.5) < 1e-9,
        ("cols",),
    ),
    "brute_force_entpower samples": (
        lambda x: brute_force_entpower(Dqc1Instance(1, HADAMARD, PURE), x, SeededRng(1)),
        lambda r, x: abs(r - _entpower(HADAMARD)) < 1e-9,
        ("samples",),
    ),
    "sample_shots shots": (
        lambda x: sample_shots(0.5, x, SeededRng(1)),
        lambda r, x: type(r) is int and 0 <= r <= x,
        ("shots",),
    ),
    "estimate_trace shots": (  # t = 1: every x shot reads +1
        lambda x: estimate_trace(Dqc1Instance(1, I2, PURE), x, SeededRng(1)),
        lambda r, x: r.shots_x == r.shots_y == x and r.mean_x == 1.0,
        ("shots",),
    ),
    "total_complexity n": (lambda x: total_complexity(x, 2.5), lambda r, x: r == 2.5 * x, ("n",)),
    "unitary_from_spec n": (
        lambda x: unitary_from_spec("identity", x),
        lambda r, x: np.array_equal(r, np.eye(2**x)),
        ("n",),
    ),
    "Dqc1Instance n": (
        lambda x: Dqc1Instance(x, I2, PURE),
        lambda r, x: x == r.n == 1,
        ("n", "unitary"),
    ),
}

_HOSTILE_COUNTS = st.one_of(
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([True, False, None, "3", np.int64(3), np.float64(2.0), -(10**5000), 2.0]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_COUNTS)), x=_HOSTILE_COUNTS)
def test_a_count_is_taken_whole_or_rejected_by_name(case, x):
    call, check, names = _COUNTS[case]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call(x)
    except (ValueError, TypeError) as err:
        assert str(err).startswith(tuple(f"{name} " for name in names)), (case, x, err)
        return
    assert _finite(result) and check(result, x), (case, x, result)


def _unitary(dim=None):
    return lambda a: is_unitary(a) and dim in (None, len(a))


def _density(dim=None):
    return lambda a: is_density(a) and dim in (None, len(a))


#: Matrix parameters: (when a value is valid, call with it, check of a
#: returned result, the names an error may give).  The other arguments are
#: fixed valid 2x2 matrices, so a valid value of another size must be
#: rejected, by its own name or its partner's.
_MATRICES = {
    "trace_overlap u": (
        lambda a: True,
        lambda a: trace_overlap(a, I2 / 2),
        lambda r, a: _close(r, np.trace(a) / 2),
        ("u", "rho"),
    ),
    "trace_overlap rho": (
        lambda a: True,
        lambda a: trace_overlap(SIGMA_X, a),
        lambda r, a: _close(r, np.trace(SIGMA_X @ a)),
        ("rho",),
    ),
    "normalized_trace u": (
        lambda a: True, normalized_trace, lambda r, a: _close(r, np.trace(a) / len(a)), ("u",)
    ),
    "kron a": (lambda a: True, lambda a: kron(a, I2), lambda r, a: _close(r, np.kron(a, I2)), ("a",)),
    "matrix_to_json a": (
        lambda a: True, matrix_to_json, lambda r, a: np.array_equal(matrix_from_json(r), a), ("a",)
    ),
    "expect_pauli rho_f": (
        lambda a: len(a) == 2,
        lambda a: expect_pauli(a, "x"),
        lambda r, a: _close(r, np.trace(a @ SIGMA_X).real),
        ("rho_f",),
    ),
    "eig_hermitian a": (
        lambda a: np.max(np.abs(a - a.conj().T)) <= 1e-10,
        eig_hermitian,
        lambda r, a: _close((r.eigenvectors * r.eigenvalues) @ r.eigenvectors.conj().T, a),
        ("a",),
    ),
    "eig_unitary u": (
        _unitary(),
        eig_unitary,
        lambda r, a: _close((r.eigenvectors * r.eigenvalues) @ r.eigenvectors.conj().T, a),
        ("u",),
    ),
    "entpower_standard u": (
        _unitary(), entpower_standard, lambda r, a: _close(r, _entpower(a)), ("u",)
    ),
    "entpower_alpha u": (
        _unitary(),
        lambda a: entpower_alpha(a, 0.5),
        lambda r, a: _close(r, 0.5 * _entpower(a)),
        ("u",),
    ),
    "fourier_ensemble u": (
        _unitary(),
        fourier_ensemble,
        lambda r, a: _close(r.density(), np.eye(len(a)) / len(a)),
        ("u",),
    ),
    "entpower_bounds u": (
        _unitary(2),
        lambda a: entpower_bounds(a, I2 / 2),
        lambda r, a: r[0] <= r[1] + 1e-9 and _close(r[1], _entpower(a)),
        ("u", "rho_n"),
    ),
    "entpower_bounds rho_n": (
        _density(2),
        lambda a: entpower_bounds(SIGMA_X, a),
        lambda r, a: r[0] <= r[1] + 1e-9,
        ("rho_n",),
    ),
    "decompose_from_T target": (
        lambda a: is_density(a) and np.linalg.matrix_rank(a, tol=1e-10) <= 2,
        lambda a: decompose_from_T(a, np.eye(2, 4)),
        lambda r, a: _close(r.density(), a),
        ("target", "T"),
    ),
    "Dqc1Instance unitary": (
        _unitary(2),
        lambda a: Dqc1Instance(1, a, PURE),
        lambda r, a: _close(r.overlap, np.trace(a) / 2),
        ("unitary",),
    ),
    "Dqc1Instance system_state": (
        _density(2),
        lambda a: Dqc1Instance(1, SIGMA_X, PURE, a),
        lambda r, a: _close(r.overlap, np.trace(SIGMA_X @ a)),
        ("system_state",),
    ),
    "general_final_control rho_n": (
        _density(2),
        lambda a: general_final_control(PURE, a, SIGMA_X),
        lambda r, a: _close(r, final_control_closed(PURE, a, SIGMA_X)),
        ("rho_n", "u"),
    ),
    "general_final_control u": (
        _unitary(2),
        lambda a: general_final_control(PURE, I2 / 2, a),
        lambda r, a: _close(r, final_control_closed(PURE, I2 / 2, a)),
        ("u",),
    ),
    "final_control_closed rho_n": (
        _density(2),
        lambda a: final_control_closed(PURE, a, SIGMA_X),
        lambda r, a: _close(r[0, 1], 0.5 * np.conj(np.trace(SIGMA_X @ a))),
        ("rho_n", "u"),
    ),
    "final_control_closed u": (
        _unitary(2),
        lambda a: final_control_closed(PURE, I2 / 2, a),
        lambda r, a: _close(r[1, 0], 0.5 * np.trace(a) / 2),
        ("u",),
    ),
}

_ENTRIES = st.complex_numbers(max_magnitude=1e3) | st.sampled_from([math.nan, math.inf, -math.inf])
_HOSTILE_MATRICES = st.one_of(
    st.sampled_from(
        [
            I2,
            SIGMA_X,
            HADAMARD,
            I2 / 2,
            np.diag([1.0, 0.0]),
            2 * HADAMARD,  # 2U where a unitary is expected
            I2,  # trace 2 where a density matrix is expected
            np.eye(4) / 4,  # valid, but not 2x2
            NAN2,
            np.full((2, 2), np.inf),
            np.zeros((0, 0)),
            np.ones((2, 3)),
            np.ones(2),
            math.nan,
            True,
            "abc",
            "1",
            None,
        ]
    ),
    arrays(np.complex128, st.sampled_from([(2, 2), (1, 1), (2, 3), (0, 0), (2,)]), elements=_ENTRIES),
    st.text(max_size=3),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_MATRICES)), a=_HOSTILE_MATRICES)
def test_a_matrix_is_checked_or_rejected_by_name(case, a):
    valid, call, check, names = _MATRICES[case]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call(a)
    except (ValueError, TypeError) as err:
        assert str(err).startswith(tuple(f"{name} " for name in names)), (case, a, err)
        return
    # returned: the argument was valid, and so is the result
    a = np.asarray(a, dtype=np.complex128)
    assert a.ndim == 2 and a.shape[0] == a.shape[1] > 0 and valid(a), (case, a, result)
    assert _finite(result) and check(result, a), (case, a, result)
