"""The package's one trust boundary: every public function checks its
arguments at entry and rejects a bad one with an error that names it, and
never returns a number for something that is neither a unitary nor a
density matrix where one is expected."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from dqc1.experiments import ConfigError, ExperimentConfig, run_experiment
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
    entpower_from_rounds,
    error_budget,
    estimate_trace,
    expect_pauli,
    readout_alpha,
    rounds_for_budget,
    sample_shots,
)

I2 = np.eye(2, dtype=np.complex128)
NAN2 = np.full((2, 2), np.nan)
HUGE2 = np.full((2, 2), 1e200)  # finite, but its square overflows
PURE = ControlQubit.from_alpha(1.0)
FOUR_STATES = PureEnsemble(np.full(4, 0.25), np.eye(4))  # an ensemble of I/4
TWO_STATES = PureEnsemble(np.full(2, 0.5), np.eye(2))  # an ensemble of I/2
BUDGET = error_budget(1, 1, 0.5, 0.5)


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
        # accepted: a string control, and a bool alpha as alpha 1.0
        pytest.param("control", lambda: Dqc1Instance(1, I2, control="x"), id="control-not-a-qubit"),
        pytest.param("alpha", lambda: ControlQubit.from_alpha(True), id="alpha-bool"),
        # accepted: a bool where a real number belongs
        pytest.param("p", lambda: sample_shots(True, 10, SeededRng(0)), id="p-bool-shots"),
        pytest.param("eps_x", lambda: error_budget(True, 1, 0.5, 0.5), id="eps_x-bool"),
        pytest.param("alpha", lambda: entpower_alpha(I2, True), id="alpha-bool-entpower"),
        pytest.param("alpha", lambda: rounds_for_budget(BUDGET, True, 1 + 1j), id="alpha-bool-rounds"),
        pytest.param("alpha", lambda: entpower_from_rounds(True, 1, 10), id="alpha-bool-from-rounds"),
        pytest.param("m", lambda: entpower_from_rounds(1, True, 10), id="m-bool"),
        pytest.param("rounds", lambda: entpower_from_rounds(1, 0, True), id="rounds-bool"),
        pytest.param("t", lambda: rounds_for_budget(BUDGET, 1.0, True), id="t-bool-rounds"),
        pytest.param("bloch", lambda: ControlQubit(bloch=(True, 0, 0)), id="bloch-bool"),
        pytest.param("p", lambda: linear_entropy_closed((True, 0, 0), 0), id="p-bool-entropy"),
        pytest.param("t", lambda: linear_entropy_closed((0, 0, 1), True), id="t-bool-entropy"),
        # TypeErrors from a comparison or a conversion, naming no parameter
        pytest.param("p", lambda: sample_shots("x", 10, SeededRng(0)), id="p-str-shots"),
        pytest.param("eps_x", lambda: error_budget("x", 1, 0.5, 0.5), id="eps_x-str"),
        pytest.param("pe_x", lambda: error_budget(1, 1, "x", 0.5), id="pe_x-str"),
        pytest.param("alpha", lambda: rounds_for_budget(BUDGET, "x", 1 + 1j), id="alpha-str-rounds"),
        pytest.param("alpha", lambda: entpower_from_rounds("x", 1, 10), id="alpha-str-from-rounds"),
        pytest.param("m", lambda: entpower_from_rounds(1, "x", 10), id="m-str"),
        pytest.param("rounds", lambda: entpower_from_rounds(1, 0, "x"), id="rounds-str"),
        pytest.param("t", lambda: rounds_for_budget(BUDGET, 1.0, "x"), id="t-str-rounds"),
        pytest.param("t", lambda: rounds_for_budget(BUDGET, 1.0, None), id="t-none-rounds"),
        pytest.param("bloch", lambda: ControlQubit.from_bloch(5), id="bloch-not-iterable"),
        pytest.param("bloch", lambda: ControlQubit.from_bloch(None), id="bloch-none"),
        pytest.param("bloch", lambda: ControlQubit(bloch="abc"), id="bloch-str"),
        pytest.param("p", lambda: linear_entropy_closed("ab", 1), id="p-str-entropy"),
        pytest.param("p", lambda: linear_entropy_closed(5, 1), id="p-not-iterable-entropy"),
        pytest.param("t", lambda: linear_entropy_closed((0, 0, 1), "x"), id="t-str-entropy"),
        pytest.param("axis", lambda: expect_pauli(I2 / 2, ["x"]), id="axis-unhashable"),
        # m divided by an eps^2 that underflows, or took ln of an overflowed 1/pe
        pytest.param("eps_x", lambda: error_budget(1e-200, 1, 0.5, 0.5), id="eps_x-square-zero"),
        pytest.param("eps_y", lambda: error_budget(1, 1e-200, 0.5, 0.5), id="eps_y-square-zero"),
        pytest.param("pe_x", lambda: error_budget(1, 1, 1e-320, 0.5), id="pe_x-inverse-inf"),
        pytest.param("pe_y", lambda: error_budget(1, 1, 0.5, 1e-320), id="pe_y-inverse-inf"),
        # each term of m finite, their sum not: the larger term's eps is named
        pytest.param("eps_x", lambda: error_budget(1.2e-154, 1.3e-154, 0.1, 0.1), id="eps_x-sum"),
        pytest.param("eps_y", lambda: error_budget(1, 1e-160, 0.5, 0.5), id="eps_y-term"),
        # a tiny alpha: the round count overflowed to inf, or divided by zero
        pytest.param("alpha", lambda: rounds_for_budget(BUDGET, 1e-160, 1 + 1j), id="alpha-tiny-inf"),
        pytest.param("alpha", lambda: rounds_for_budget(BUDGET, 1e-320, 1 + 1j), id="alpha-tiny-zero"),
        # objects: AttributeErrors and TypeErrors from deep inside
        pytest.param("rng", lambda: sample_shots(0.5, 10, None), id="rng-shots"),
        pytest.param("rng", lambda: estimate_trace(Dqc1Instance(1, I2, PURE), 10, None), id="rng-estimate"),
        pytest.param("inst", lambda: estimate_trace("x", 10, SeededRng(0)), id="inst-estimate"),
        pytest.param("budget", lambda: rounds_for_budget("x", 1.0, 1 + 1j), id="budget"),
        pytest.param("inst", lambda: ensemble_average("x", TWO_STATES), id="inst-ensemble-average"),
        pytest.param(
            "ens", lambda: ensemble_average(Dqc1Instance(1, I2, PURE), "x"), id="ens-not-an-ensemble"
        ),
        pytest.param("rng", lambda: brute_force_min_mixing(PURE, 5, 4, None), id="rng-min-mixing"),
        pytest.param(
            "control", lambda: brute_force_min_mixing("x", 5, 4, SeededRng(0)), id="control-min-mixing"
        ),
        pytest.param("inst", lambda: brute_force_entpower("x", 5, SeededRng(0)), id="inst-search"),
        pytest.param(
            "rng", lambda: brute_force_entpower(Dqc1Instance(1, I2, PURE), 5, None), id="rng-search"
        ),
        pytest.param("control", lambda: branch_coefficients("x", np.eye(2)), id="control-branch"),
        pytest.param("coeffs", lambda: mixing_factor("x"), id="coeffs"),
        pytest.param("control", lambda: lambda_factor("x"), id="control-lambda"),
        pytest.param("control", lambda: analytic_min_T("x"), id="control-analytic"),
        pytest.param("control", lambda: general_final_control("x", I2 / 2, I2), id="control-dense"),
        pytest.param("control", lambda: final_control_closed("x", I2 / 2, I2), id="control-closed"),
        pytest.param("control", lambda: readout_alpha("x"), id="control-readout"),
        pytest.param("rng", lambda: haar_unitary(2, None), id="rng-haar"),
        pytest.param("rng", lambda: random_density(2, 1, None), id="rng-density"),
        pytest.param("rng", lambda: random_right_unitary(1, 2, None), id="rng-right-unitary"),
        pytest.param("rng", lambda: random_right_unitary(1, 2, [None]), id="rng-stream-list"),
        # returned a (0, 1, 2) stack
        pytest.param("rng", lambda: random_right_unitary(1, 2, []), id="rng-empty-stream-list"),
        pytest.param("rng", lambda: unitary_from_spec("haar", 1, "x"), id="rng-spec"),
        # a real array dropped the imaginary part of a complex one, with a ComplexWarning
        pytest.param("weights", lambda: PureEnsemble(np.array([0.5, 0.5 + 0.1j]), I2), id="weights-complex"),
        pytest.param("phases", lambda: diag_phase_unitary(np.array([0.0, 1j])), id="phases-complex"),
    ],
)
def test_a_bad_argument_is_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


@pytest.mark.parametrize(
    "name,call",
    [
        ("states", lambda: PureEnsemble(np.full(2, 0.5), np.full((2, 2), np.inf))),
        ("T", lambda: branch_coefficients(PURE, np.full((2, 2), np.inf))),
        ("T", lambda: decompose_from_T(I2 / 2, np.full((2, 2), np.inf))),
    ],
)
def test_a_non_finite_array_is_rejected_before_numpy_warns(name, call):
    # a norm or a Gram product of inf entries warned "invalid value" first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} "):
            call()


@pytest.mark.parametrize(
    "call,text",
    [
        (lambda: PureEnsemble(np.full(2, 0.5), HUGE2), "states must be finite, normalized columns"),
        (lambda: PureEnsemble(np.full(2, 1e308), I2), "weights sum to inf, expected 1"),
        (lambda: branch_coefficients(PURE, HUGE2), "T rows are not orthonormal (T T^+ != I)"),
        (lambda: decompose_from_T(I2 / 2, HUGE2), "T must be a 2-D matrix with orthonormal rows (T T^+ = I)"),
        (lambda: fourier_ensemble(HUGE2), "u is not unitary within tolerance"),
        (lambda: eig_hermitian(np.array([[0, 1e308], [-1e308, 0]])), "a is not Hermitian within tolerance"),
    ],
    ids=["states", "weights", "branch-T", "decompose-T", "unitary", "hermitian"],
)
def test_a_huge_finite_array_is_rejected_before_numpy_warns(call, text):
    # a norm, a sum or a Gram product of entries past 1e154 overflows: numpy
    # warned "overflow encountered" before the check raised its own error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    assert str(info.value) == text


def test_a_huge_finite_array_fails_the_predicates_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_right_unitary(np.full((2, 4), 1e200)) is False
        assert is_unitary(HUGE2) is False
        assert is_density(np.diag([1e308, 1e308])) is False
        assert is_density(np.full((2, 2), 1e308 * (1 + 1j))) is False


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


def _estimate(shots):
    """estimate_trace at t = 1, with the stderr of a single shot, NaN by
    design, set to 0 so that the rest of the result must be finite."""
    est = estimate_trace(Dqc1Instance(1, I2, PURE), shots, SeededRng(1))
    return est if est.shots_x > 1 else replace(est, stderr_x=0.0, stderr_y=0.0)


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
        lambda x: _estimate(x),
        lambda r, x: r.shots_x == r.shots_y == x and r.mean_x == 1.0,
        ("shots",),
    ),
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
    _taken_or_named(*_COUNTS[case], case, x)


def _quietly(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return call(*args)


def _near(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


#: Real parameters, as :data:`_COUNTS`; a check also says when the value is
#: valid, so that an invalid one returned fails.  Every other argument is valid.
_REALS = {
    "ControlQubit.from_alpha alpha": (
        ControlQubit.from_alpha, lambda r, x: 0 < x <= 1 and r.bloch == (0, 0, float(x)), ("alpha",)
    ),
    "ControlQubit bloch": (
        lambda x: ControlQubit((0.0, x, 0.0)),
        lambda r, x: abs(x) <= 1 + 1e-12 and _near(r.bloch[1], x),
        ("bloch",),
    ),
    "entpower_alpha alpha": (
        lambda x: entpower_alpha(SIGMA_X, x), lambda r, x: 0 <= x <= 1 and r == abs(x), ("alpha",)
    ),
    "linear_entropy_closed p": (
        lambda x: linear_entropy_closed((x, 0, 0), 0),
        lambda r, x: abs(x) <= 1 + 1e-12 and _near(r, 0.5 * (1 - x * x)),
        ("p",),
    ),
    "linear_entropy_closed t": (
        lambda x: linear_entropy_closed((0, 0, 1), x),
        lambda r, x: abs(x) <= 1 + 1e-12 and _near(r, 0.5 * (1 - abs(x) ** 2)),
        ("t", "p and t"),
    ),
    "sample_shots p": (
        lambda x: sample_shots(x, 10, SeededRng(1)),
        lambda r, x: -1e-12 <= x <= 1 + 1e-12 and 0 <= r <= 10,
        ("p",),
    ),
    "error_budget eps_x": (
        lambda x: error_budget(x, 1, 0.5, 0.5),
        lambda r, x: x > 0 and r.eps_x == x and math.isfinite(r.m),
        ("eps_x",),
    ),
    "error_budget eps_y": (
        lambda x: error_budget(1, x, 0.5, 0.5),
        lambda r, x: x > 0 and r.eps_y == x and math.isfinite(r.m),
        ("eps_y",),
    ),
    "error_budget pe_x": (
        lambda x: error_budget(1, 1, x, 0.5),
        lambda r, x: 0 < x < 1 and r.pe_x == x and math.isfinite(r.m),
        ("pe_x",),
    ),
    "error_budget pe_y": (
        lambda x: error_budget(1, 1, 0.5, x),
        lambda r, x: 0 < x < 1 and r.pe_y == x and math.isfinite(r.m),
        ("pe_y",),
    ),
    "rounds_for_budget alpha": (  # ln 2 / (alpha / 2)^2 on each axis
        lambda x: rounds_for_budget(BUDGET, x, 0.5 + 0.5j),
        lambda r, x: 0 < x <= 1 and _near(r, math.log(2) / (x * 0.5) ** 2),
        ("alpha",),
    ),
    "rounds_for_budget t": (  # a quadrature of t that is zero drops its axis, with a warning
        lambda x: _quietly(rounds_for_budget, BUDGET, 1.0, x),
        lambda r, x: _near(r, max(math.log(2) / (q * q) for q in (x.real, x.imag) if q)),
        ("t", "alpha"),
    ),
    "entpower_from_rounds alpha": (
        lambda x: entpower_from_rounds(x, 0.0, 10.0), lambda r, x: 0 < x <= 1 and _near(r, x), ("alpha",)
    ),
    "entpower_from_rounds m": (
        lambda x: entpower_from_rounds(1.0, x, 1e3),
        lambda r, x: 0 <= x <= 1e3 and _near(r, math.sqrt(1 - x / 1e3)),
        ("m", "budget"),
    ),
    "entpower_from_rounds rounds": (
        lambda x: entpower_from_rounds(1.0, 1.0, x),
        lambda r, x: x >= 1 and _near(r, math.sqrt(1 - 1 / x)),
        ("rounds", "budget"),
    ),
    "ExperimentConfig alpha": (
        lambda x: ExperimentConfig("verify-theorem2", 1, alpha=x),
        lambda r, x: 0 < x <= 1 and r.alpha == float(x),
        ("field 'alpha':",),
    ),
    "ExperimentConfig alphas": (
        lambda x: ExperimentConfig("verify-theorem2", 1, alphas=[0.5, x]),
        lambda r, x: 0 < x <= 1 and r.alphas == (0.5, float(x)),
        ("field 'alphas':",),
    ),
}

_HOSTILE_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.5, 1.5),
    st.integers(-3, 3),
    st.sampled_from(
        [True, False, None, "0.5", "x", [0.5], 0.5j, complex(1.7e308, 1.7e308)]
        + [-0.0, 1e-320, 1 + 1e-13, 1e200]
        + [np.float64(0.5), np.float32(0.25), np.int64(1), Fraction(1, 3), 10**5000, -(10**5000)]
    ),
)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_REALS)), x=_HOSTILE_REALS)
def test_a_real_is_taken_or_rejected_by_name(case, x):
    _taken_or_named(*_REALS[case], case, x)


def _taken_or_named(call, check, names, case, x):
    """``call(x)`` either raises an error that starts with one of ``names``
    or returns a finite result that passes ``check``."""
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
        lambda r, a: _close(r, np.trace(a / 2)),
        ("u", "rho"),
    ),
    "trace_overlap rho": (
        lambda a: True,
        lambda a: trace_overlap(SIGMA_X, a),
        lambda r, a: _close(r, np.trace(SIGMA_X @ a)),
        ("rho",),
    ),
    "normalized_trace u": (
        lambda a: True, normalized_trace, lambda r, a: _close(r, np.trace(a / len(a))), ("u",)
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

#: Finite entries from 1e150 up to the largest float: a norm, a sum or a
#: Gram product of those past 1e154 overflows.
_HUGE = st.floats(1e150, allow_infinity=False) | st.floats(max_value=-1e150, allow_infinity=False)
_ENTRIES = st.one_of(
    st.complex_numbers(max_magnitude=1e3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.builds(complex, _HUGE, _HUGE | st.just(0.0)),
)
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
# a finite matrix whose sums or eigenvalues pass the largest float
@example("normalized_trace u", np.full((2, 2), 1.7e308))
@example("trace_overlap rho", np.full((2, 2), 1.7e308))
@example("expect_pauli rho_f", np.full((2, 2), 1.7e308))
@example("eig_hermitian a", np.full((2, 2), 1.7e308))
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


# --- the property: hostile arrays, stream lists and spec strings ----------------


def _spec_rows(experiment, field, x):
    """A two-sample sweep with ``field`` set to ``x``, run in process."""
    return run_experiment(ExperimentConfig(experiment, 1, samples=2, seed=1, **{field: x}))


def _within_closed_forms(rows):
    """Every row of a verify sweep passes its ``dqc1 verify`` check."""
    return all(
        r.measured <= r.reference + 1e-9 if r.param_name == "sample" else r.deviation <= 1e-9
        for r in rows
    )


_STREAMS = [SeededRng(1), SeededRng(2, 3)]
_HOSTILE_ARRAYS = st.one_of(
    _HOSTILE_MATRICES,
    arrays(
        np.complex128,
        st.sampled_from([(2,), (3,), (0,), (2, 4), (1, 2, 4), (0, 2, 4), (3, 2, 3)]),
        elements=_ENTRIES,
    ),
    arrays(np.float64, st.sampled_from([(1,), (2,), (3,)]), elements=st.floats(-1.0, 2.0) | _HUGE),
    st.sampled_from(
        [
            [0.5, 0.5],
            [0.25, 0.75],
            np.array([0.5, 0.5 + 1e-3j]),  # a real parameter would drop the imaginary part
            [0.5, 0.5 + 0j],
            [0.5, -0.5],
            [1.0, 0.0],
            [0.5, math.inf],
            [[0.5, 0.5]],
            np.eye(2, 4),
            np.eye(2, 4)[::-1],
            random_right_unitary(2, 4, SeededRng(3)),
            random_right_unitary(2, 3, [SeededRng(3)] * 3),
            np.zeros((0, 2, 4)),
            np.ones((2, 0)),
        ]
    ),
)
_HOSTILE_STREAM_LISTS = st.one_of(
    st.lists(st.sampled_from(_STREAMS), max_size=4),
    st.lists(st.sampled_from(_STREAMS + [None, 1, "x", 1.5]), min_size=1, max_size=3),
    st.sampled_from(
        [_STREAMS[0], tuple(_STREAMS), (), "ab", b"ab", range(2), None, 0, set(_STREAMS[:1])]
        + [np.array(_STREAMS[:1]), iter(_STREAMS), {0: _STREAMS[0]}]
    ),
)
_HOSTILE_SPECS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["haar", "identity", "pauli:X", "pauli:", "pauli:XY", "pauli:Q", "HAAR", " haar"]
        + ["diag-phase:0,1", "diag-phase:0", "diag-phase:nan,0", "diag-phase:1e400,0"]
        + ["diag-phase:0,,1", "diag-phase:a,b", "diag-phase:1e300,0", "file:", "file:/nonexistent"]
        + ["file:" + "x" * 5000, "maximally-mixed", "random", "random:1", "random:2", "random:3"]
        + ["random:0", "random:-1", "random:1.5", "random:", "random:١", "random:" + "9" * 5000]
        + [None, 5, ["haar"], b"haar", True]
    ),
)

#: Parameters that take an array, a stream list or a spec string, as
#: :data:`_COUNTS` with the strategy of their hostile values last.  The other
#: arguments are valid.
_SHAPED = {
    "PureEnsemble weights": (
        lambda x: PureEnsemble(x, I2),
        lambda r, x: np.array_equal(r.weights, np.asarray(x, np.float64))
        and r.weights.min() > 0
        and _close(r.density(), np.diag(r.weights)),
        ("weights", "states"),
        _HOSTILE_ARRAYS,
    ),
    "PureEnsemble states": (
        lambda x: PureEnsemble(np.full(2, 0.5), x),
        lambda r, x: r.states.shape[1] == 2 and _close(np.linalg.norm(r.states, axis=0), 1.0),
        ("states",),
        _HOSTILE_ARRAYS,
    ),
    "branch_coefficients T": (
        lambda x: branch_coefficients(PURE, x),
        lambda r, x: is_right_unitary(x, 1e-10)
        and _close(np.sum(np.abs(r.xs) ** 2 + np.abs(r.ys) ** 2, axis=-1), 1.0),
        ("T",),
        _HOSTILE_ARRAYS,
    ),
    "decompose_from_T T": (
        lambda x: decompose_from_T(I2 / 2, x),
        lambda r, x: _close(r.density(), I2 / 2),
        ("T",),
        _HOSTILE_ARRAYS,
    ),
    "random_right_unitary rng": (
        lambda x: random_right_unitary(1, 2, x),
        lambda r, x: r.shape == ((1, 2) if isinstance(x, SeededRng) else (len(x), 1, 2))
        and is_right_unitary(r),
        ("rng",),
        _HOSTILE_STREAM_LISTS,
    ),
    "ExperimentConfig unitary": (
        lambda x: _spec_rows("verify-theorem1", "unitary", x),
        lambda r, x: [row.param_name for row in r] == ["fourier", "sample", "sample"]
        and _within_closed_forms(r),
        ("field 'unitary':",),
        _HOSTILE_SPECS,
    ),
    "ExperimentConfig rho": (
        lambda x: _spec_rows("verify-theorem3", "rho", x),
        lambda r, x: len(r) == 5 and _within_closed_forms(r),
        ("field 'rho':",),
        _HOSTILE_SPECS,
    ),
}


@settings(max_examples=700, deadline=None, derandomize=True)
@given(case_x=st.sampled_from(sorted(_SHAPED)).flatmap(lambda c: st.tuples(st.just(c), _SHAPED[c][3])))
def test_an_array_stream_list_or_spec_is_taken_or_rejected_by_name(case_x):
    case, x = case_x
    _taken_or_named(*_SHAPED[case][:3], case, x)
