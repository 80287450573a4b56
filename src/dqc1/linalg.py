"""Dense complex linear algebra for small multi-qubit systems.

Everything works on plain ``numpy.ndarray`` with ``complex128`` entries.
Matrices are never wrapped in a class; validation helpers (:func:`is_unitary`,
:func:`is_density`) and explicit tolerances take the place of a type system.

Tolerances follow a three-level ladder: ``TOL_CONSTRUCT`` for exact algebraic
constructions, ``TOL_SPECTRAL`` for results of an eigensolve, and
``TOL_VERIFY`` for quantities accumulated over many samples.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL_CONSTRUCT = 1e-12
TOL_SPECTRAL = 1e-10
TOL_VERIFY = 1e-9

#: Largest matrix side the package builds, by :func:`kron` or by a random
#: draw (2**12, i.e. 12 qubits).
MAX_KRON_DIM = 4096


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past Python's int-to-str digit limit
            return f"<{x.bit_length()}-bit int>"


#: ``repr`` of a rejected value for a one-line error, cut in the middle to 40 characters.
_BRIEF = _Brief()
_BRIEF.maxstring = _BRIEF.maxother = 40
brief = _BRIEF.repr


def is_integer(x) -> bool:
    """An int, numpy's included, that is not a bool: what a count must be."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _hash_steps(init: int, mult: int, start: int, count: int):
    """Xor and multiplier of seed_seq hash steps start.. (constant multiplied before use)."""
    h = [init * pow(mult, j, 2**32) % 2**32 for j in range(start, start + count + 1)]
    return np.array(h[:-1], np.uint32), np.array(h[1:], np.uint32)


#: O'Neill's seed_seq hash as numpy's ``SeedSequence`` runs it: steps 16..19
#: of its entropy hash take a one-word spawn key, each mixed into one pool word
#: by ``mix(x, y) = 0xCA01F9DD x - 0x4973F715 y`` and an xorshift, and eight
#: steps of its output hash make ``generate_state(4, uint64)``.
_KEY_HASH = _hash_steps(0x43B0D7E5, 0x931E8875, 16, 4)
_OUT_HASH = _hash_steps(0x8B51F9DD, 0x58F38DED, 0, 8)


class SeededRng:
    """Reproducible random stream identified by a (seed, stream) pair.

    The same pair always replays the same draw sequence.  Distinct stream
    indices under one seed give statistically independent streams, which is
    how per-point randomness in parameter sweeps stays deterministic no
    matter how the points are scheduled.

    Attributes
    ----------
    seed, stream : int
        The identifying pair.
    gen : numpy.random.Generator
        The underlying stateful generator.  Consumers draw from this.
    """

    def __init__(self, seed: int, stream: int = 0):
        _check_count("seed", seed, 0)
        _check_count("stream", stream, 0)
        self.seed, self.stream = int(seed), int(stream)
        self.gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        )

    @classmethod
    def streams(cls, seed: int, lo: int, hi: int) -> list[SeededRng]:
        """``[SeededRng(seed, k) for k in range(lo, hi)]``, bit for bit, from
        one ``SeedSequence``: NEP 19 keeps its mixing stable, and a seed of at
        most four words leaves the pool of ``SeedSequence(seed)`` equal to the
        spawned one's before its key word, so only that word and the output
        hash are mixed here, for all keys at once.  A longer seed or a key of
        2**32 or more takes one ``SeededRng`` each."""
        for name, x in (("seed", seed), ("lo", lo), ("hi", hi)):
            _check_count(name, x, 0)
        if seed >= 2**128 or hi > 2**32:
            return [cls(seed, k) for k in range(lo, hi)]
        from numpy.random.bit_generator import ISeedSequence

        class Words(ISeedSequence):  # the words PCG64 would ask SeedSequence for
            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words

        key = (np.arange(lo, hi, dtype=np.uint32)[:, None] ^ _KEY_HASH[0]) * _KEY_HASH[1]
        pool = np.random.SeedSequence(int(seed)).pool * 0xCA01F9DD - (key ^ key >> 16) * 0x4973F715
        out = (np.tile(pool ^ pool >> 16, 2) ^ _OUT_HASH[0]) * _OUT_HASH[1]
        words = (out ^ out >> 16).astype("<u4").view("<u8").astype(np.uint64)
        rngs = [cls.__new__(cls) for _ in words]
        for k, rng, w in zip(range(lo, hi), rngs, words):
            rng.seed, rng.stream = int(seed), k
            rng.gen = np.random.Generator(np.random.PCG64(Words(w)))
        return rngs

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_count(name: str, x, lo: int, hi: int | None = None) -> None:
    """``x`` is an int, numpy's included, not a bool, in [lo, hi] (hi None: no limit)."""
    if not (is_integer(x) and lo <= x and (hi is None or x <= hi)):
        want = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {want}, got {brief(x)}")


def _is_real(x, lo: float = -math.inf, hi: float = math.inf, ends: str = "[]") -> bool:
    """``x`` is a real number, numpy's included, not a bool, finite, and in the
    interval from lo to hi, its ends open or closed as ``ends`` marks: "(]" etc."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        x = float(x)  # compared as a float, not in a numpy type's own precision
    except OverflowError:  # an int past the float range
        return False
    above = lo < x if ends[0] == "(" else lo <= x
    return math.isfinite(x) and above and (x < hi if ends[1] == ")" else x <= hi)


def _check_real(name: str, x, lo=-math.inf, hi=math.inf, ends="[]", want=None) -> None:
    """:func:`_is_real`, or a ValueError that names ``x`` and says what it
    must do: lie in the interval, or ``want`` if given."""
    if not _is_real(x, lo, hi, ends):
        want = want or f"lie in {ends[0]}{lo}, {hi}{ends[1]}"
        raise ValueError(f"{name} must {want}, got {brief(x)}")


def _check_complex(name: str, z) -> complex:
    """``z`` as a complex: a number, numpy's included, not a bool, of finite modulus."""
    try:
        if isinstance(z, numbers.Complex) and not isinstance(z, bool) and math.isfinite(abs(complex(z))):
            return complex(z)
    except OverflowError:  # a part or the modulus past the float range
        pass
    raise ValueError(f"{name} must be a finite complex number, got {brief(z)}")


def _check_type(name: str, x, cls: type) -> None:
    """``x`` is an instance of ``cls``: the check of a public entry's object argument."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {brief(x)}")


def _check_path(path) -> Path:
    """``path``, a str or an os.PathLike, as a Path: the check of a file argument."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a str or an os.PathLike, got {brief(path)}")
    return Path(path)


def _as_array(name: str, x, dtype=np.complex128) -> np.ndarray:
    """``x`` as an array of ``dtype``, or a ValueError that names it; a real
    ``dtype`` takes no complex ``x``, whose imaginary part it would drop."""
    real = np.dtype(dtype).kind == "f"
    try:
        if real and np.iscomplexobj(x):
            raise TypeError
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {'real' if real else 'numeric'}, got {brief(x)}") from None


def _check_matrix(name: str, a, dim: int | None = None) -> np.ndarray:
    """``a`` as a complex array: finite, nonempty, square, and dim x dim if given."""
    a = _as_array(name, a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0 or dim not in (None, len(a)):
        want = "a nonempty square matrix" if dim is None else f"a {dim}x{dim} matrix"
        raise ValueError(f"{name} must be {want}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def _check_unitary(name: str, u, dim: int | None = None) -> np.ndarray:
    """:func:`_check_matrix`, and unitary within ``TOL_SPECTRAL``."""
    if not is_unitary(u := _check_matrix(name, u, dim)):
        raise ValueError(f"{name} is not unitary within tolerance")
    return u


def _check_density(name: str, rho, dim: int | None = None) -> np.ndarray:
    """:func:`_check_matrix`, and a density matrix within ``TOL_SPECTRAL``."""
    if not is_density(rho := _check_matrix(name, rho, dim)):
        raise ValueError(f"{name} is not a {len(rho)}x{len(rho)} density matrix")
    return rho


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, refused above :data:`MAX_KRON_DIM`."""
    a, b = _check_matrix("a", a), _check_matrix("b", b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_KRON_DIM:
        raise ValueError(
            f"kron result dimension {out_dim} exceeds the configured maximum {MAX_KRON_DIM}"
        )
    return np.kron(a, b)


def trace_overlap(u: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(U rho) as the elementwise sum of U_ij rho_ji: O(d^2), never forms
    the product U rho.  A sum that overflows is rejected, even where its
    terms would cancel, by the operand with the larger entries."""
    return _trace_overlap(u := _check_matrix("u", u), _check_matrix("rho", rho, len(u)))


def _trace_overlap(u: np.ndarray, rho: np.ndarray) -> complex:
    """:func:`trace_overlap` of operands already checked."""
    with np.errstate(all="ignore"):  # huge entries' products or sum are inf or nan
        t = complex(np.sum(u * rho.T))
        if not np.isfinite(t):  # named by the operand with the larger entries
            big, other = ("u", "rho") if np.abs(u).max() >= np.abs(rho).max() else ("rho", "u")
            raise ValueError(f"{big} is too large: its trace overlap with {other} overflows while summed")
    return t


def normalized_trace(u: np.ndarray) -> complex:
    """Tr U / d, the quantity the one-clean-qubit readout estimates, as the
    sum of the diagonal divided by d first: d is a power of two, so each
    division is exact, and the sum never passes the largest diagonal entry."""
    return _normalized_trace(_check_matrix("u", u))


def _normalized_trace(u: np.ndarray) -> complex:
    """:func:`normalized_trace` of a ``u`` already checked."""
    return complex(np.sum(np.diagonal(u) / len(u)))


def is_unitary(a: np.ndarray) -> bool:
    """Finite, nonempty, square, and a^dagger a within ``TOL_SPECTRAL * d`` of I, entrywise."""
    try:
        a = _check_matrix("a", a)
    except ValueError:
        return False
    dim = a.shape[0]
    with np.errstate(all="ignore"):  # a huge entry's Gram entry is inf or nan: False
        return bool(np.max(np.abs(a.conj().T @ a - np.eye(dim))) <= TOL_SPECTRAL * dim)


def is_density(a: np.ndarray) -> bool:
    """Finite, nonempty, and within ``TOL_SPECTRAL`` Hermitian, of unit trace and eigenvalues >= 0."""
    try:
        a = _check_matrix("a", a)
    except ValueError:
        return False
    with np.errstate(all="ignore"):  # a huge entry's difference or trace is inf: False
        hermitian = np.max(np.abs(a - a.conj().T)) <= TOL_SPECTRAL
        trace = np.trace(a)
        if not (hermitian and abs(trace.real - 1.0) <= TOL_SPECTRAL and abs(trace.imag) <= TOL_SPECTRAL):
            return False
    evals = np.linalg.eigvalsh(a)
    return bool(evals.min() >= -TOL_SPECTRAL)


def is_right_unitary(t: np.ndarray, tol: float = TOL_CONSTRUCT) -> bool:
    """Rows orthonormal: t @ t^dagger equals the identity on the row space.

    ``t`` may be a stack of matrices (leading axes); the result is True only
    if every member passes.  ``tol``, a finite real >= 0, scales with the row length.
    """
    _check_real("tol", tol, 0, math.inf, "[)")
    try:
        t = _as_array("t", t)
    except ValueError:
        return False
    if t.ndim < 2 or t.shape[-2] > t.shape[-1] or not np.isfinite(t).all():
        return False
    with np.errstate(all="ignore"):  # a huge entry's Gram entry is inf or nan: False
        gram = t @ np.swapaxes(t.conj(), -1, -2)
        err = np.max(np.abs(gram - np.eye(t.shape[-2])), initial=0.0)
    return bool(err <= tol * t.shape[-1])


def eig_hermitian(a: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Ties keep the eigensolver's first-occurrence order.  Raises if the input
    is not Hermitian within ``TOL_SPECTRAL``.
    """
    a = _check_matrix("a", a)
    with np.errstate(all="ignore"):  # a huge entry's difference is inf, and rejected
        hermitian = np.max(np.abs(a - a.conj().T)) <= TOL_SPECTRAL
    if not hermitian:
        raise ValueError("a is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(a)
    if not np.isfinite(evals).all():  # LAPACK scales a huge matrix, and overflows scaling back
        raise ValueError("a has an eigenvalue past the largest float")
    order = np.arange(len(evals))[::-1]  # eigh is ascending; stable reversal
    return Spectrum(evals[order].copy(), evecs[:, order].copy())


def eig_unitary(u: np.ndarray) -> Spectrum:
    """Eigendecomposition of a unitary with an orthonormal eigenbasis.

    LAPACK's general eigensolver does not promise orthogonal eigenvectors
    for (near-)degenerate eigenvalues, so the basis is replaced by the polar
    factor W Vh of its eigenvector matrix V = W S Vh: the closest unitary to
    V, orthonormal by construction.  Non-orthogonality of V only couples
    vectors of nearby eigenvalues, so the polar factor stays an eigenbasis;
    the result is checked by max|U V - V Lambda| <= TOL_SPECTRAL * d.
    Eigenvalues come back sorted by phase angle.
    """
    return _eig_unitary(_check_unitary("u", u))


def _eig_unitary(u: np.ndarray) -> Spectrum:
    """:func:`eig_unitary` of a unitary the package built or checked."""
    evals, evecs = np.linalg.eig(u)
    w, _, vh = np.linalg.svd(evecs)
    evecs = w @ vh
    if np.max(np.abs(u @ evecs - evecs * evals)) > TOL_SPECTRAL * u.shape[0]:
        raise ValueError("orthonormalized eigenbasis does not diagonalize the unitary")
    order = np.argsort(np.mod(np.angle(evals), 2.0 * np.pi), kind="stable")
    return Spectrum(evals[order], evecs[:, order])


def _ginibre(rows: int, cols: int, streams: Sequence[SeededRng]) -> np.ndarray:
    """A stack of complex Ginibre ``rows x cols`` blocks, one per stream in
    list order, each one ``standard_normal`` draw of shape ``(2, rows, cols)``,
    real part first: a stream listed k times gives one ``(k, 2, rows, cols)`` draw."""
    h, lo = np.empty((len(streams), 2, rows, cols)), 0
    for rng, run in itertools.groupby(streams):  # a run of one stream in one call, same bits
        k = len(list(run))
        rng.gen.standard_normal(out=h[lo : lo + k])
        lo += k
    g = np.empty((len(streams), rows, cols), dtype=np.complex128)
    g.real, g.imag = h[:, 0], h[:, 1]
    return g


def _phase_fixed_qr(rows: int, cols: int, streams: Sequence[SeededRng]) -> np.ndarray:
    """Q factors of one stacked QR of :func:`_ginibre` blocks, the phases of
    each R's diagonal moved into its Q so that Q is Haar rather than
    QR-convention biased; each Q has the bits of a stack of one."""
    q, r = np.linalg.qr(_ginibre(rows, cols, streams))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def haar_unitary(dim: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed unitary: the phase-fixed QR of a complex Ginibre matrix."""
    _check_count("dim", dim, 1, MAX_KRON_DIM)
    _check_type("rng", rng, SeededRng)
    return _phase_fixed_qr(dim, dim, [rng])[0]


def random_density(dim: int, rank: int, rng: SeededRng) -> np.ndarray:
    """Random density matrix of the given rank (Ginibre G: rho = GG^+/Tr)."""
    _check_count("dim", dim, 1, MAX_KRON_DIM)
    _check_count("rank", rank, 1, dim)
    _check_type("rng", rng, SeededRng)
    g = _ginibre(dim, rank, [rng])[0]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_right_unitary(rows: int, cols: int, rng: SeededRng | Sequence[SeededRng]) -> np.ndarray:
    """Haar-random ``rows x cols`` matrix with orthonormal rows (a point of
    the complex Stiefel manifold): the transpose of the phase-fixed thin QR
    of a ``cols x rows`` Ginibre block.

    The first k columns of a phase-fixed QR depend only on the first k
    Ginibre columns, so the thin factor is distributed as the first ``rows``
    columns of a Haar unitary of size ``cols`` (Mezzadri, "How to generate
    random matrices from the classical compact groups", math-ph/0609050),
    at O(cols rows^2) cost and with ``rows * cols`` complex normals per draw.
    A nonempty sequence of streams stacks one draw per entry, in order, each
    with the bits of a call of its own; ``[rng] * k`` gives k draws in turn.
    """
    _check_count("cols", cols, 1, MAX_KRON_DIM)
    _check_count("rows", rows, 1, cols)
    streams = [rng] if isinstance(rng, SeededRng) else rng
    listed = isinstance(streams, Sequence) and len(streams) > 0
    if not (listed and all(map(isinstance, streams, itertools.repeat(SeededRng)))):  # at C speed
        raise ValueError(f"rng must be a SeededRng or a nonempty list of them, got {brief(rng)}")
    t_stack = np.swapaxes(_phase_fixed_qr(cols, rows, streams), -1, -2)
    return t_stack if streams is rng else t_stack[0]


def matrix_to_json(a: np.ndarray) -> dict:
    """Row-major dict form: {"dim": d, "re": [[...]], "im": [[...]]}."""
    a = _check_matrix("a", a)
    return {
        "dim": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`.  ``dim`` must be a positive integer
    and ``re`` and ``im`` each ``dim`` rows of ``dim`` finite numbers; an
    error names the key at fault."""
    for key in ("dim", "re", "im"):
        if key not in payload:
            raise ValueError(f"matrix payload missing key {key!r}")
    _check_count("matrix payload key 'dim'", dim := payload["dim"], 1)
    parts = []
    for key in ("re", "im"):
        rows = payload[key]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows
        ):
            raise ValueError(f"matrix payload key {key!r}: expected rows of JSON numbers")
        parts.append(_check_matrix(f"matrix payload key {key!r}", rows, dim).real)
    return parts[0] + 1j * parts[1]


def save_matrix(path: str | Path, a: np.ndarray) -> None:
    _check_path(path).write_text(json.dumps(matrix_to_json(a)) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    file = _check_path(path)  # before the try, whose handler would rewrap its error
    try:
        payload = json.loads(file.read_text())
    except (ValueError, RecursionError) as err:  # bad JSON, a too-long int, too deep a nesting
        raise ValueError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return matrix_from_json(payload)
