"""Test-side helpers: the partial trace the dense circuit checks use, a
reader for the results files ``write_results`` writes, and strategies for the
hard but legal inputs of the property tests."""

import csv
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from dqc1.experiments import ResultRow
from dqc1.linalg import TOL_SPECTRAL, SeededRng, haar_unitary

#: JSON nested past the decoder's recursion limit, which ``json.loads`` meets
#: with a RecursionError from a depth of about 1000
DEEP_JSON = "[" * 10_000 + "]" * 10_000

HEADER = ("experiment", "param_name", "param_value", "measured", "reference", "deviation", "seed")


def partial_trace(rho, keep, control_dim=2, system_dim=None):
    """Trace out one factor of a control (x) system operator, control factor
    first; ``system_dim`` defaults to ``dim // control_dim``."""
    dim = rho.shape[0]
    if system_dim is None:
        system_dim = dim // control_dim
    if control_dim * system_dim != dim:
        raise ValueError(f"dimension mismatch: {control_dim} * {system_dim} != {dim}")
    if keep not in ("control", "system"):
        raise ValueError(f"keep must be 'control' or 'system', got {keep!r}")
    blocks = np.asarray(rho).reshape(control_dim, system_dim, control_dim, system_dim)
    axes = (1, 3) if keep == "control" else (0, 2)
    return np.trace(blocks, axis1=axes[0], axis2=axes[1])


def read_results(path):
    """Rows of a results file: JSON by its ``.json`` suffix, else CSV, whose
    header must be the one ``write_results`` writes."""
    path = Path(path)
    if path.suffix == ".json":
        return [ResultRow(**entry) for entry in json.loads(path.read_text())]
    with path.open(newline="") as handle:
        header, *records = csv.reader(handle)
    if tuple(header) != HEADER:
        raise ValueError(f"unexpected CSV header: {header}")
    return [ResultRow(rec[0], rec[1], *map(float, rec[2:6]), int(rec[6])) for rec in records]


_ANGLE = st.floats(0.0, 2.0 * math.pi)
_SIGN = st.sampled_from((1.0, -1.0))


def _south(p1, sign, delta):
    p3 = delta - 1.0
    return p1, sign * math.sqrt(max(0.0, 1.0 - p3 * p3 - p1 * p1)), p3


#: Bloch vectors on the unit sphere and at the chart edges of ``analytic_min_T``:
#: p3 = 0, p3 -> -1 with p1 near 1e-9, and p1 -> +-1.
BLOCH_EDGES = st.one_of(
    st.tuples(st.floats(0.0, math.pi), _ANGLE).map(
        lambda a: (math.sin(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.sin(a[1]), math.cos(a[0]))
    ),
    _ANGLE.map(lambda a: (math.cos(a), math.sin(a), 0.0)),
    st.builds(_south, st.floats(5e-10, 2e-9) | st.floats(-2e-9, -5e-10), _SIGN, st.floats(0.0, 1e-8)),
    st.builds(
        lambda sign, eps, a: (sign * math.sqrt(1.0 - eps), math.sqrt(eps) * math.cos(a), math.sqrt(eps) * math.sin(a)),
        _SIGN,
        st.floats(0.0, 1e-6),
        _ANGLE,
    ),
)


@st.composite
def clustered_unitaries(draw, dim):
    """V diag(e^{i phi}) V^dagger, its phases in a cluster of spread 10^-k
    (k <= 14, or 0, which at phi = 0 or pi is +-I), one of them drawn apart
    from the cluster if ``dim`` > 2."""
    phi0, k = draw(st.sampled_from((0.0, math.pi)) | _ANGLE), draw(st.integers(1, 15))
    spread = 10.0**-k if k <= 14 else 0.0
    phases = phi0 + spread * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    if dim > 2 and draw(st.booleans()):
        phases[-1] = phi0 + draw(st.floats(0.5, math.pi))
    v = haar_unitary(dim, SeededRng(draw(st.integers(0, 2**32 - 1)), 0))
    return (v * np.exp(1j * phases)) @ v.conj().T


@st.composite
def hard_registers(draw, dim):
    """Register states V diag(lambda) V^dagger, some eigenvalues at 0, 1e-16 or
    TOL_SPECTRAL * (1 +- 1e-3) and at least one of order 1."""
    small = (0.0, 1e-16, TOL_SPECTRAL * (1.0 - 1e-3), TOL_SPECTRAL * (1.0 + 1e-3))
    vals = np.array(draw(st.lists(st.sampled_from(small) | st.floats(0.1, 1.0), min_size=dim, max_size=dim)))
    vals[0] = draw(st.floats(0.1, 1.0))
    big = vals >= 0.1
    vals[big] *= (1.0 - vals[~big].sum()) / vals[big].sum()
    v = haar_unitary(dim, SeededRng(draw(st.integers(0, 2**32 - 1)), 1))
    return (v * vals) @ v.conj().T
