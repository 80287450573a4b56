"""The shape list of tools/identity.py: every sweep in it is a valid config, and
every experiment and bundled config has a sweep, so that none skips the check."""

import importlib.util
from pathlib import Path

import pytest

from dqc1.experiments import EXPERIMENTS, config_from_dict

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


@pytest.mark.parametrize("name", list(identity.SWEEPS))
def test_each_sweep_shape_is_a_valid_config(tmp_path, name):
    config_from_dict(identity.config(ROOT, name, str(tmp_path)))


def test_every_experiment_and_bundled_config_has_a_sweep_shape(tmp_path):
    experiments = {identity.config(ROOT, name, str(tmp_path))["experiment"] for name in identity.SWEEPS}
    assert experiments == set(EXPERIMENTS)
    bundled = {f"configs/{path.name}" for path in (ROOT / "configs").glob("*.json")}
    assert bundled <= set(identity.SWEEPS)


def test_long_seeds_and_the_pinned_run_name_sweeps():
    assert set(identity.LONG_SEEDS) | {identity.PINNED} <= set(identity.SWEEPS)
