"""Command-line front end.

Subcommands: ``run`` (config-driven sweep), ``estimate-trace`` (one
finite-shot estimation), ``entpower`` (closed-form entangling power), and
``verify`` (self-checks of the three closed-form results against sampling;
a failed check names up to ten of its failing sweep points).

Exit codes: 0 success, 2 invalid input (bad flags, bad config, bad files),
1 runtime failure (including a failed verification).
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import fields
from pathlib import Path

from .circuit import ControlQubit, unitary_from_spec
from .entpower import _entpower_alpha
from .experiments import (
    _EXPERIMENTS,
    _FIELDS,
    ConfigError,
    ExperimentConfig,
    check_rows,
    config_from_dict,
    config_payload,
    run_experiment,
    write_results,
)
from .linalg import SeededRng, _normalized_trace, brief
from .measurement import _estimate_trace

_F = "{:.17g}".format


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqc1",
        description="One-clean-qubit circuit simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    given = dict(argument_default=argparse.SUPPRESS)  # an unset flag leaves the config's value
    p_run = sub.add_parser("run", help="run a config-driven parameter sweep", **given)
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--out", help="override the output path")
    p_run.add_argument("--format", choices=("csv", "json"))
    p_run.add_argument("--n", type=int, help="override the register size")
    p_run.add_argument("--alpha", type=float, help="override the polarization")
    p_run.add_argument("--shots", help="override the shots grid (comma-separated)")

    default = {f.name: f.default for f in fields(ExperimentConfig)}  # a config's defaults
    p_est = sub.add_parser("estimate-trace", help="finite-shot trace estimation")
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--alpha", type=float, default=default["alpha"])
    p_est.add_argument("--unitary", default=default["unitary"])
    p_est.add_argument("--shots", type=int, required=True)
    p_est.add_argument("--seed", type=int, default=default["seed"])

    p_ep = sub.add_parser("entpower", help="closed-form entangling power")
    p_ep.add_argument("--n", type=int, required=True)
    p_ep.add_argument("--alpha", type=float, default=default["alpha"])
    p_ep.add_argument("--unitary", default=default["unitary"])
    p_ep.add_argument("--seed", type=int, default=default["seed"])

    p_ver = sub.add_parser("verify", help="check a closed form against sampling", **given)
    p_ver.add_argument("target", choices=("theorem1", "theorem2", "theorem3"))
    p_ver.add_argument("--n", type=int, default=2)
    p_ver.add_argument("--samples", type=int)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--alpha", type=float, default=0.6)
    p_ver.add_argument("--unitary")
    return parser


def _cmd_run(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    payload = config_payload(path.read_text())
    payload.update((key, value) for key, value in vars(args).items() if key in _FIELDS)
    if "shots" in vars(args):
        try:
            payload["shots"] = [int(x) for x in args.shots.split(",")]
        except ValueError:
            raise ConfigError(f"--shots must be comma-separated integers, got {brief(args.shots)}")
    cfg = config_from_dict(payload)
    out = cfg.out if cfg.out is not None else f"results.{cfg.format}"
    parent = Path(out).parent
    if not parent.is_dir():  # rejected before the sweep, not after it
        raise ConfigError(f"field 'out': {brief(str(parent))} is not an existing directory")
    if Path(out).is_dir():
        raise ConfigError(f"field 'out': {brief(out)} is a directory, not a file")
    rows = run_experiment(cfg)
    try:
        write_results(rows, out, cfg.format)
    except OSError as err:
        raise ConfigError(f"field 'out': {err}") from None
    print(f"{cfg.experiment}: wrote {len(rows)} rows to {out}")
    return 0


def _cmd_estimate_trace(args) -> int:
    u = unitary_from_spec(args.unitary, args.n, SeededRng(args.seed, 0))
    control, exact = ControlQubit.from_alpha(args.alpha), _normalized_trace(u)  # u: built, or checked
    est = _estimate_trace(args.n, control, exact, args.shots, SeededRng(args.seed, 1))
    err = abs(est.trace_estimate - exact)
    print(f"n={args.n} alpha={_F(args.alpha)} shots={args.shots} seed={args.seed}")
    print(f"estimate  re={_F(est.trace_estimate.real)} im={_F(est.trace_estimate.imag)}")
    print(f"exact     re={_F(exact.real)} im={_F(exact.imag)}")
    print(f"abs_error {_F(err)}  stderr_x {_F(est.stderr_x)}  stderr_y {_F(est.stderr_y)}")
    return 0


def _cmd_entpower(args) -> int:
    u = unitary_from_spec(args.unitary, args.n, SeededRng(args.seed, 0))
    t = _normalized_trace(u)  # u is built, or checked by unitary_from_spec
    value = _entpower_alpha(u, args.alpha)
    print(f"n={args.n} alpha={_F(args.alpha)} unitary={args.unitary}")
    print(f"normalized_trace re={_F(t.real)} im={_F(t.imag)} abs={_F(abs(t))}")
    print(f"entangling_power {_F(value)}")
    return 0


def _cmd_verify(args) -> int:
    experiment = f"verify-{args.target}"
    payload = {key: value for key, value in vars(args).items() if key in _FIELDS}
    payload["experiment"] = experiment
    if _EXPERIMENTS[experiment].reads_rho:
        payload["rho"] = "random"  # each point draws its own register
    cfg = config_from_dict(payload)
    checks = check_rows(cfg, run_experiment(cfg))
    for line, bad in checks:
        print(f"{args.target}: {line}: {'FAIL' if bad else 'PASS'}")
        if bad:
            more = f" and {len(bad) - 10} more" if len(bad) > 10 else ""
            print(f"{args.target}:   failing points: {', '.join(bad[:10])}{more}")
    return 1 if any(bad for _, bad in checks) else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "run": _cmd_run,
        "estimate-trace": _cmd_estimate_trace,
        "entpower": _cmd_entpower,
        "verify": _cmd_verify,
    }
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as err:  # a ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # anything else is a runtime failure
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


def _entry() -> int:
    """The ``dqc1`` process: :func:`main` after freezing what import built
    (numpy's and dqc1's modules, classes and functions), so that no
    collection scans those again, the one at exit least of all."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(_entry())
