"""Check that dqc1's seeded outputs keep their bytes: ``python tools/identity.py BASE HEAD``.

BASE and HEAD are source trees (checkouts, worktrees or exports); each run is a fresh ``python`` on
``<tree>/src`` that must exit 0. On HEAD each sweep runs with ``workers`` 1, 2, 3 and unset, under
``-X dev -W error::ResourceWarning``, and must write one results file and no stderr. Against another
BASE, each sweep's results file and each command's or demo's stdout must also be BASE's. It prints a
line per shape and a count, and exits 1 at the first difference; ``. .`` checks the workers alone.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: name -> config. None is the bundled config the name is the path of, and "{tmp}" is the scratch
#: directory, where MATRICES writes. Every sweep runs at seed 42, and at those of LONG_SEEDS.
SWEEPS = {
    **dict.fromkeys(f"configs/verify-theorem{k}.json" for k in (1, 2, 3)),
    # stacked searches: 300 samples at n=3 span three stacks; verify-theorem1 stacks 8 draws at
    # n=5, 2 at n=6 (five stacks to a serial range) and 1 from n=7; n=1 makes ranges of 375
    "entpower-n3": {"experiment": "entpower-vs-alpha", "n": 3, "samples": 300},
    "theorem1-n1": {"experiment": "verify-theorem1", "n": 1, "samples": 1500},
    "theorem1-n5": {"experiment": "verify-theorem1", "n": 5, "samples": 200},
    "theorem1-n6": {"experiment": "verify-theorem1", "n": 6, "samples": 40},
    "theorem1-n7": {"experiment": "verify-theorem1", "n": 7, "samples": 20},
    # set-ups: the trace constants, a fixed register, and a file unitary and register checked once
    "trace-n3": {"experiment": "trace-vs-shots", "n": 3, "shots": [10, 1000, 100000]},
    "complexity-n3": {"experiment": "complexity-curve", "n": 3, "shots": [10, 1000, 100000]},
    "theorem3-mixed": dict(experiment="verify-theorem3", n=2, rho="maximally-mixed", unitary="pauli:XY", samples=30),
    "theorem3-files": dict(
        experiment="verify-theorem3", n=2, unitary="file:{tmp}/u.json", rho="file:{tmp}/rho.json", samples=30
    ),
    # a readout samples from the Tr U / d it reports (at n=5, not an instance's overlap), and
    # exact, zero and signed-zero quadratures keep their bits
    "trace-n5": {"experiment": "trace-vs-shots", "n": 5, "alpha": 0.05, "shots": [1, 10, 10**6, 10**15]},
    **{f"trace-quadratures-{k}": {"experiment": "trace-vs-shots", "n": 3, "unitary": u, "shots": [10, 1000]} for k, u in
       enumerate(("identity", "pauli:ZZZ", "pauli:XYZ", "diag-phase:" + ",".join(["0", "3.141592653589793"] * 4)), 1)},
    # the benchmark's sweeps: the n=9 readout and n=5 search, set up before the fork, and the
    # 2001 points of verify-cli, whose two workers claim nine ranges from one pipe
    "trace-n9": {"experiment": "trace-vs-shots", "n": 9, "alpha": 0.8, "shots": [10**k for k in range(1, 7)]},
    "entpower-n5": {"experiment": "entpower-vs-alpha", "n": 5, "samples": 50},
    "theorem1-n2": {"experiment": "verify-theorem1", "n": 2, "samples": 2000},
}

#: A verify-theorem1 range hashes its streams at once for a seed of up to four 32-bit words
#: (2^64+5 has three); past that (2^128), and in any pointwise sweep, each point has its own.
LONG_SEEDS = {"configs/verify-theorem1.json": (2**64 + 5, 2**128), "configs/verify-theorem2.json": (2**128,)}
LONG_SEEDS |= dict.fromkeys(("configs/verify-theorem3.json", "trace-n3"), (2**128,))

#: Pinned to one CPU, this sweep's 2-worker run forks no pool and writes the serial rows. A larger
#: one need not: one CPU gives OpenBLAS one thread, which changes the last bits from n=7 on.
PINNED = "entpower-n5"

MATRICES = """import sys; from dqc1 import *; save_matrix(sys.argv[1] + "/u.json", haar_unitary(4, SeededRng(5)))
save_matrix(sys.argv[1] + "/rho.json", random_density(4, 3, SeededRng(6)))"""

#: name -> python arguments, which must print BASE's stdout: estimate-trace reads 1 shot by
#: inversion and 10^15 by BTPE, verify theorem2 has the analytic candidate, and
#: brute_force_entpower runs the scorer's general-register path, which no sweep runs.
COMMANDS = {f"dqc1 {args}": ["-m", "dqc1.cli", *args.split()] for args in (
    "estimate-trace --n 9 --unitary haar --shots 1000 --seed 42",
    "estimate-trace --n 2 --unitary pauli:XY --shots 1000 --seed 42",
    "estimate-trace --n 5 --alpha 0.05 --shots 1 --seed 42",
    "estimate-trace --n 5 --alpha 0.05 --shots 1000000000000000 --seed 42",
    "verify theorem2 --samples 50",
    "entpower --n 3 --alpha 0.5 --seed 42",
)} | {
    "brute_force_entpower on general registers": ["-c", """from dqc1 import *
for n, rank, samples in ((3, 2, 300), (2, 4, 1200)):
    rho, control = random_density(2**n, rank, SeededRng(6, n)), ControlQubit.from_bloch((0.3, -0.2, 0.5))
    inst = Dqc1Instance(n, haar_unitary(2**n, SeededRng(5, n)), control, system_state=rho)
    print(repr(brute_force_entpower(inst, samples, SeededRng(7, n))))"""],
    "brute_force_entpower on default registers": ["-c", """from dqc1 import *
for n, alpha, samples in ((3, 1.0, 300), (3, 0.3, 300), (7, 1.0, 5)):
    inst = Dqc1Instance(n, haar_unitary(2**n, SeededRng(5, n)), ControlQubit.from_alpha(alpha))
    print(repr(brute_force_entpower(inst, samples, SeededRng(7, n))))"""],
}


def config(head, name, tmp):
    """The config of sweep ``name``, its files in ``tmp`` and with no ``workers``."""
    text = json.dumps(SWEEPS[name]) if SWEEPS[name] else Path(head, name).read_text()
    return {key: value for key, value in json.loads(text.replace("{tmp}", tmp)).items() if key != "workers"}


def python(shape, tree, args, dev=False, pin=False):
    """Stdout of ``python *args`` in ``tree``, under ``-X dev`` and with no stderr if ``dev``, on one CPU if ``pin``."""
    cpu, flags = {min(os.sched_getaffinity(0))}, ["-X", "dev", "-W", "error::ResourceWarning"] * dev
    proc = subprocess.run([sys.executable, *flags, *args], cwd=tree, capture_output=True, env=dict(
        os.environ, PYTHONPATH=str(tree / "src")), preexec_fn=(lambda: os.sched_setaffinity(0, cpu)) if pin else None)
    if proc.returncode or dev and proc.stderr:
        sys.exit(f"FAIL {shape} on {tree}: exit {proc.returncode}, stderr:\n{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def results(shape, tree, payload, seed, tmp, workers=None, pin=False, dev=False):
    """The results file of ``dqc1 run`` on ``payload`` with ``workers``."""
    (cfg := Path(tmp, "config.json")).write_text(json.dumps({**payload, **({"workers": workers} if workers else {})}))
    (out := Path(tmp, "results")).unlink(missing_ok=True)
    python(shape, tree, ["-m", "dqc1.cli", "run", str(cfg), "--seed", str(seed), "--out", str(out)], dev, pin)
    return out.read_bytes()


def main(base, head):
    base, head = Path(base).resolve(), Path(head).resolve()
    demos = (f"demos/{path.name}" for path in sorted(head.glob("demos/*.py")))
    others = {**COMMANDS, **{demo: [demo] for demo in demos if (base / demo).exists()}} if base != head else {}
    counts = []  # each shape's number of checks
    with tempfile.TemporaryDirectory() as tmp:
        python("the matrix files", head, ["-c", MATRICES, tmp])
        for name in SWEEPS:
            payload, pinned = config(head, name, tmp), name == PINNED
            runs = [(1,), (2,), (3,), (None,)] + [(2, True)] * pinned  # (workers, pin); workers None: unset
            checks = ["workers 1, 2, 3, unset"] + ["2 on one CPU"] * pinned + ["= BASE"] * (base != head)
            for shape, seed in ((f"{name} --seed {seed}", seed) for seed in (42, *LONG_SEEDS.get(name, ()))):
                if len(outs := {results(shape, head, payload, seed, tmp, *run, dev=True) for run in runs}) > 1:
                    sys.exit(f"FAIL {shape}: the results differ across {' and '.join(checks[: 1 + pinned])}")
                if base != head and results(shape, base, payload, seed, tmp) not in outs:
                    sys.exit(f"FAIL {shape} against BASE")
                counts.append(len(checks))
                print(f"ok {shape}: {'; '.join(checks)}", flush=True)
        for shape, args in others.items():
            if python(shape, head, args, dev=True) != python(shape, base, args):
                sys.exit(f"FAIL {shape} against BASE")
            counts.append(1)
            print(f"ok {shape}: = BASE", flush=True)
    print(f"identity: {len(counts)} shapes, {sum(counts)} checks, all byte-identical")


if __name__ == "__main__":
    main(*sys.argv[1:]) if len(sys.argv) == 3 else sys.exit("usage: python tools/identity.py BASE HEAD")
