"""Test-side helpers: the partial trace the dense circuit checks use, and a
reader for the results files ``write_results`` writes."""

import csv
import json
from pathlib import Path

import numpy as np

from dqc1.experiments import ResultRow

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
