"""Tests for control readout, shot sampling, and the rounds bookkeeping."""

import math
import warnings

import numpy as np
import pytest

from dqc1.circuit import (
    ControlQubit,
    Dqc1Instance,
    diag_phase_unitary,
    final_control_closed,
    pauli_string,
)
from dqc1.linalg import SIGMA_X, SeededRng, haar_unitary, random_density
from dqc1.measurement import (
    MAX_SHOTS,
    entpower_from_rounds,
    error_budget,
    estimate_trace,
    expect_pauli,
    rounds_for_budget,
    sample_shots,
)

I2 = np.eye(2, dtype=np.complex128)


def test_expect_pauli_plus_state():
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    assert abs(expect_pauli(plus, "x") - 1.0) < 1e-15
    assert abs(expect_pauli(plus, "y")) < 1e-15
    assert abs(expect_pauli(plus, "z")) < 1e-15


def test_expect_pauli_maximally_mixed():
    for axis in ("x", "y", "z"):
        assert expect_pauli(I2 / 2, axis) == 0.0


def test_expect_pauli_validation():
    with pytest.raises(ValueError, match="2x2"):
        expect_pauli(np.eye(4) / 4, "x")
    with pytest.raises(ValueError, match="axis"):
        expect_pauli(I2 / 2, "w")


def test_sample_shots_edges():
    rng = SeededRng(0, 0)
    assert sample_shots(0.0, 100, rng) == 0
    assert sample_shots(1.0, 100, rng) == 100
    # tiny numerical overshoot is clamped, a real overshoot is rejected
    assert sample_shots(1.0 + 1e-14, 10, rng) == 10
    with pytest.raises(ValueError):
        sample_shots(1.1, 10, rng)
    with pytest.raises(ValueError):
        sample_shots(0.5, 0, rng)


def test_sample_shots_binomial_spread():
    # 4 sigma band around p = 0.5 at a million shots
    count = sample_shots(0.5, 10**6, SeededRng(21, 0))
    assert abs(count / 10**6 - 0.5) < 0.002


def test_sample_shots_takes_counts_up_to_max_shots():
    # the bound is a count the binomial sampler takes, and the estimator's
    # 2 * hits - shots stays exact in float64 there
    hits = sample_shots(0.5, MAX_SHOTS, SeededRng(23, 0))
    assert abs(hits / MAX_SHOTS - 0.5) < 1e-6
    assert float(2 * hits - MAX_SHOTS) == 2.0 * hits - MAX_SHOTS
    for shots in (MAX_SHOTS + 1, 10**30):  # 10**30 overflowed numpy's C long
        with pytest.raises(ValueError, match="shots"):
            sample_shots(0.5, shots, SeededRng(23, 0))


def test_sample_shots_deterministic():
    a = sample_shots(0.37, 10**4, SeededRng(5, 2))
    b = sample_shots(0.37, 10**4, SeededRng(5, 2))
    assert a == b


def test_estimate_trace_identity_unitary():
    inst = Dqc1Instance(n=1, unitary=I2, control=ControlQubit.from_alpha(1.0))
    est = estimate_trace(inst, 10**4, SeededRng(0, 0))
    # <sigma_x> = 1 so the x readout is deterministic
    assert est.mean_x == 1.0
    assert abs(est.trace_estimate - 1.0) < 5 / 100


def test_estimate_trace_traceless_unitary():
    u = pauli_string("XX")
    inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(1.0))
    est = estimate_trace(inst, 10**5, SeededRng(1, 0))
    assert abs(est.trace_estimate) < 0.02


def test_estimate_trace_quarter_phase():
    """U = diag(1,1,1,i) has normalized trace (3+i)/4; a million shots pin
    both quadratures to three decimal places."""
    u = diag_phase_unitary([0.0, 0.0, 0.0, np.pi / 2])
    inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(1.0))
    est = estimate_trace(inst, 10**6, SeededRng(0, 1))
    assert abs(est.trace_estimate.real - 0.75) < 0.005
    assert abs(est.trace_estimate.imag - 0.25) < 0.005
    assert est.shots_x == est.shots_y == 10**6
    assert est.n == 2 and est.alpha == 1.0


def test_estimate_trace_deterministic():
    u = haar_unitary(4, SeededRng(9, 0))
    inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(0.5))
    a = estimate_trace(inst, 1000, SeededRng(3, 1))
    b = estimate_trace(inst, 1000, SeededRng(3, 1))
    assert a == b


def test_estimate_trace_alpha_rescales_noise():
    # the estimator divides by alpha, so smaller polarization means a
    # noisier estimate at the same shot count
    u = haar_unitary(4, SeededRng(14, 0))
    t = complex(np.trace(u)) / 4
    errs = {}
    for alpha in (0.2, 1.0):
        inst = Dqc1Instance(n=2, unitary=u, control=ControlQubit.from_alpha(alpha))
        sq = []
        for seed in range(40):
            est = estimate_trace(inst, 2000, SeededRng(seed, 1))
            sq.append(abs(est.trace_estimate - t) ** 2)
        errs[alpha] = math.sqrt(float(np.mean(sq)))
    assert errs[0.2] > 2.0 * errs[1.0]


def test_estimate_trace_never_evolves_the_joint_state(monkeypatch):
    import dqc1.circuit
    import dqc1.measurement

    def dense_oracle(*args):
        raise AssertionError("estimate_trace called the dense oracle")

    monkeypatch.setattr(dqc1.circuit, "general_final_control", dense_oracle)
    monkeypatch.setattr(
        dqc1.measurement, "general_final_control", dense_oracle, raising=False
    )
    rng = SeededRng(4, 0)
    u = haar_unitary(8, rng)
    rho = random_density(8, 3, rng)
    inst = Dqc1Instance(
        n=3, unitary=u, control=ControlQubit.from_alpha(0.7), system_state=rho
    )
    est = estimate_trace(inst, 10**5, SeededRng(4, 1))
    assert abs(est.trace_estimate - np.trace(u @ rho)) < 0.05


def test_estimate_trace_stderr_single_shot():
    inst = Dqc1Instance(n=1, unitary=I2, control=ControlQubit.from_alpha(1.0))
    est = estimate_trace(inst, 1, SeededRng(0, 0))
    assert math.isnan(est.stderr_x) and math.isnan(est.stderr_y)


def test_estimate_trace_rejects_unusable_control():
    u = haar_unitary(2, SeededRng(2, 0))
    transverse = Dqc1Instance(
        n=1, unitary=u, control=ControlQubit.from_bloch((0.5, 0.0, 0.5))
    )
    with pytest.raises(ValueError, match="z-polarized"):
        estimate_trace(transverse, 100, SeededRng(0, 0))
    dead = Dqc1Instance(
        n=1, unitary=u, control=ControlQubit.from_bloch((0.0, 0.0, 0.0))
    )
    with pytest.raises(ValueError, match="no signal"):
        estimate_trace(dead, 100, SeededRng(0, 0))
    # the smallest subnormals leave a signal whose reciprocal overflows
    faint = Dqc1Instance(n=1, unitary=u, control=ControlQubit.from_alpha(1e-320))
    with pytest.raises(ValueError, match="alpha=1e-320 is too small"):
        estimate_trace(faint, 100, SeededRng(0, 0))


def _one_axis_rounds(eps, pe, alpha):
    # with both quadratures 1, each axis asks ln(1/pe) / (alpha * eps)^2 rounds
    return rounds_for_budget(error_budget(eps, eps, pe, pe), alpha, 1.0 + 1.0j)


def test_rounds_required_plug_in():
    assert abs(_one_axis_rounds(0.1, math.exp(-1.0), 1.0) - 100.0) < 1e-12


def test_rounds_required_quadratic_scaling():
    base = _one_axis_rounds(0.1, 0.05, 0.8)
    assert abs(_one_axis_rounds(0.1, 0.05, 0.4) - 4.0 * base) < 1e-9 * base
    assert abs(_one_axis_rounds(0.05, 0.05, 0.8) - 4.0 * base) < 1e-9 * base


def test_rounds_required_validation():
    with pytest.raises(ValueError):
        _one_axis_rounds(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        _one_axis_rounds(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        _one_axis_rounds(0.1, 0.5, 0.0)


def test_error_budget_weight():
    budget = error_budget(0.1, 0.2, math.exp(-1.0), math.exp(-4.0))
    assert abs(budget.m - 200.0) < 1e-9
    sym = error_budget(0.1, 0.1, 0.5, 0.5)
    assert abs(sym.m - 2.0 * math.log(2.0) / 0.01) < 1e-9
    with pytest.raises(ValueError):
        error_budget(0.0, 0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        error_budget(0.1, 0.1, 0.5, 1.5)
    for eps in (math.inf, math.nan, 1e200):  # 1e200 squares past the float range
        with pytest.raises(ValueError, match="eps_y must be positive with a finite square"):
            error_budget(0.1, eps, 0.5, 0.5)


def test_rounds_for_budget_real_target_drops_an_axis():
    budget = error_budget(0.1, 0.1, math.exp(-1.0), math.exp(-1.0))
    with pytest.warns(RuntimeWarning, match="axis dropped"):
        rounds = rounds_for_budget(budget, 1.0, 0.5 + 0.0j)
    assert abs(rounds - 400.0) < 1e-9


def test_rounds_for_budget_zero_target():
    budget = error_budget(0.1, 0.1, 0.5, 0.5)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ValueError, match="both quadratures"):
            rounds_for_budget(budget, 1.0, 0.0j)


def test_rounds_for_budget_mismatch_takes_larger():
    budget = error_budget(0.1, 0.1, math.exp(-1.0), math.exp(-1.0))
    with pytest.warns(RuntimeWarning, match="disagree"):
        rounds = rounds_for_budget(budget, 1.0, 0.5 + 0.25j)
    assert abs(rounds - 1.0 / (0.1 * 0.25) ** 2) < 1e-9


def test_rounds_for_budget_tuned_axes_agree_silently():
    t = 0.3 + 0.4j
    alpha = 0.7
    target = 2500.0
    eps_x = 1.0 / (alpha * math.sqrt(target) * abs(t.real))
    eps_y = 1.0 / (alpha * math.sqrt(target) * abs(t.imag))
    budget = error_budget(eps_x, eps_y, math.exp(-1.0), math.exp(-1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        rounds = rounds_for_budget(budget, alpha, t)
    assert abs(rounds - target) < 1e-9 * target


def test_entpower_from_rounds():
    assert entpower_from_rounds(1.0, 0.0, 10.0) == 1.0
    assert abs(entpower_from_rounds(0.5, 100.0, 1600.0) - math.sqrt(0.1875)) < 1e-15
    # budget exactly exhausted
    assert entpower_from_rounds(0.5, 25.0, 100.0) == 0.0
    with pytest.raises(ValueError, match="not achievable"):
        entpower_from_rounds(0.5, 100.0, 100.0)
    with pytest.raises(ValueError):
        entpower_from_rounds(0.5, 1.0, 0.0)


def test_complexity_composition_is_exact():
    """Deriving a round count from a tuned budget and mapping it back to an
    entangling power reproduces the closed form to machine precision."""
    rng = SeededRng(61, 0)
    pe = math.exp(-1.0)
    for _ in range(20):
        u = haar_unitary(4, rng)
        alpha = float(rng.gen.uniform(0.1, 1.0))
        t = complex(np.trace(u)) / 4
        target = float(rng.gen.uniform(100.0, 10000.0))
        eps_x = 1.0 / (alpha * math.sqrt(target) * abs(t.real))
        eps_y = 1.0 / (alpha * math.sqrt(target) * abs(t.imag))
        budget = error_budget(eps_x, eps_y, pe, pe)
        rounds = rounds_for_budget(budget, alpha, t)
        got = entpower_from_rounds(alpha, budget.m, rounds)
        want = alpha * math.sqrt(1.0 - abs(t) ** 2)
        assert abs(got - want) < 1e-12


def _readout_through_final_control_closed(inst, shots, rng):
    """estimate_trace's means and estimate, with the marginal taken by
    final_control_closed from the instance's arrays: the oracle for the
    instance's kept t."""
    rho_f = final_control_closed(inst.control, inst.system_state, inst.unitary)
    means = []
    for axis in ("x", "y"):
        hits = sample_shots((1.0 + expect_pauli(rho_f, axis)) / 2.0, shots, rng)
        means.append((2.0 * hits - shots) / shots)
    return means, complex(means[0], means[1]) / inst.control.bloch[2]


@pytest.mark.parametrize("rank", [None, 1, 3])  # None: the maximally mixed register
@pytest.mark.parametrize("n", [1, 3])
def test_estimate_trace_reads_the_kept_overlap_bit_for_bit(n, rank):
    dim = 2**n
    rho = None if rank is None else random_density(dim, min(rank, dim), SeededRng(31, n))
    u = haar_unitary(dim, SeededRng(37, n))
    inst = Dqc1Instance(n, u, ControlQubit.from_alpha(0.7), system_state=rho)
    for shots in (1, 10, 10**6):
        est = estimate_trace(inst, shots, SeededRng(41, shots))
        means, want = _readout_through_final_control_closed(inst, shots, SeededRng(41, shots))
        assert [est.mean_x, est.mean_y] == means
        assert est.trace_estimate == want


@pytest.mark.parametrize("shots", [10.5, 10.0, True, "10", None])
def test_shots_must_be_an_integer(shots):
    inst = Dqc1Instance(n=1, unitary=I2, control=ControlQubit.from_alpha(1.0))
    with pytest.raises(ValueError, match="shots"):
        sample_shots(0.5, shots, SeededRng(0, 0))
    with pytest.raises(ValueError, match="shots"):
        estimate_trace(inst, shots, SeededRng(0, 0))


def test_shots_may_be_a_numpy_integer():
    inst = Dqc1Instance(n=1, unitary=I2, control=ControlQubit.from_alpha(1.0))
    est = estimate_trace(inst, np.int64(100), SeededRng(0, 0))
    assert est == estimate_trace(inst, 100, SeededRng(0, 0))


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_sample_shots_rejects_a_non_finite_probability(p):
    with pytest.raises(ValueError, match=r"^p must lie in \[-1e-12, 1.000000000001\], got "):
        sample_shots(p, 10, SeededRng(0, 0))


@pytest.mark.parametrize(
    "alpha,m,rounds,field",
    [
        (1.0, math.nan, 10.0, "m"),
        (1.0, math.inf, 10.0, "m"),
        (1.0, 1.0, math.nan, "rounds"),
        (1.0, 1.0, math.inf, "rounds"),
        (math.nan, 1.0, 10.0, "alpha"),
        (0.0, 0.0, 10.0, "alpha"),
        (1.5, 0.0, 10.0, "alpha"),
    ],
)
def test_entpower_from_rounds_rejects_non_finite_inputs(alpha, m, rounds, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        entpower_from_rounds(alpha, m, rounds)
