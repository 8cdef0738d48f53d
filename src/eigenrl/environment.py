"""The black-box side of the eigensolver.

An :class:`Environment` holds a run's hidden Hermitian operators as one
stack, with their unitary propagators ``exp(-i tau O)`` and their exact
spectra: a stack of one when every repetition shares the operator, one
operator per repetition when each draws its own.  The learning layer is only
ever handed the batched black box that ``harness._black_box`` builds from the
``unitaries`` stack; the spectra, ``eigensystem``, exist for scoring and
verification and are never imported by the protocol module (a structural
test keeps it that way).

Random operators are drawn from the Gaussian unitary ensemble,
``(G + G^dag)/2`` with standard complex Gaussian ``G``, then rescaled so the
spectral range ``lambda_max - lambda_min`` equals 2.  With the default
``tau = 1`` the relevant phases ``lambda * tau`` then stay well inside one
period regardless of dimension.  The draws of many seeds share one seeding
pass, :func:`eigenrl.seeding.generators`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg, seeding
from .errors import ConfigError, finite_number, read_json


@dataclass(frozen=True)
class SingleQubitSpec:
    """Eigenbasis angles and eigenvalues of a single-qubit operator.

    The eigenvectors are
    ``|v0> = cos(alpha/2)|0> + e^{i beta} sin(alpha/2)|1>`` and
    ``|v1> = sin(alpha/2)|0> - e^{i beta} cos(alpha/2)|1>``, carrying
    eigenvalues ``lambda0`` and ``lambda1`` respectively.
    """

    alpha: float
    beta: float
    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 2.0 * math.pi:
            raise ConfigError(f"alpha must lie in [0, 2pi], got {self.alpha}")
        if not 0.0 <= self.beta <= math.pi:
            raise ConfigError(f"beta must lie in [0, pi], got {self.beta}")

    def basis_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        c = math.cos(0.5 * self.alpha)
        s = math.sin(0.5 * self.alpha)
        phase = complex(math.cos(self.beta), math.sin(self.beta))
        v0 = np.array([c, phase * s])
        v1 = np.array([s, -phase * c])
        return v0, v1


@dataclass(frozen=True)
class Environment:
    """A stack of hidden Hermitian operators, with propagators and spectra.

    ``operators`` and ``unitaries`` have shape (B, d, d), and ``eigensystem``
    holds (B, d) eigenvalues and (B, d, d) eigenvectors: B is 1 when the
    repetitions share one operator.  Every array is read-only.
    """

    operators: np.ndarray
    unitaries: np.ndarray
    eigensystem: linalg.Eigensystem = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def env_from_matrix(operator: np.ndarray, tau: float) -> Environment:
    """The environment of one Hermitian matrix, or of each matrix of a
    (B, d, d) stack, all diagonalized in one call; ConfigError unless
    ``tau`` is a finite number whose product with every eigenvalue, the
    propagator's phase, is finite."""
    operators = np.array(operator, dtype=np.complex128, order="C", ndmin=3)
    linalg.require_dim(linalg.require_square(operators[0]))
    tau = finite_number(tau, "tau")
    system = linalg.eig_hermitian(operators)
    phase = abs(tau) * float(np.abs(system.eigenvalues).max(initial=0.0))
    if not math.isfinite(phase):
        raise ConfigError(f"tau {tau} times the largest eigenvalue magnitude overflows")
    unitaries = linalg.unitary_from_eigensystem(system, tau)
    for array in (operators, unitaries, system.eigenvalues, system.eigenvectors):
        array.setflags(write=False)
    return Environment(operators=operators, unitaries=unitaries, eigensystem=system)


def _draw_gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    g /= math.sqrt(2.0)
    return 0.5 * (g + g.conj().T)


def env_random(dim: int, tau: float, seeds: Sequence[int] | np.ndarray) -> Environment:
    """One GUE-distributed hidden operator per non-negative integer seed,
    rescaled to spectral range 2.

    The generators are seeded in one array pass, ``seeding.generators``, each
    with the stream NumPy's default generator gives for its seed.  The draws'
    spreads come from one eigenvalue-only pass over the stack,
    ``linalg.spectral_spread``; the rescaled draws are then diagonalized in
    one call.  Each member has the bits that a build of its seed alone
    gives.
    """
    linalg.require_dim(dim)
    rngs = seeding.generators(seeds)
    draws = np.stack([_draw_gue(rng, dim) for rng in rngs])
    spread = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    while len(pending):
        spread[pending] = linalg.spectral_spread(draws[pending])
        # degenerate draws are measure zero; redraw defensively
        pending = pending[spread[pending] <= 1e-9]
        for i in pending:
            draws[i] = _draw_gue(rngs[i], dim)
    return env_from_matrix(draws * (2.0 / spread)[:, None, None], tau)


def env_single_qubit(spec: SingleQubitSpec, tau: float) -> Environment:
    """Operator with the eigenbasis and eigenvalues of ``spec``."""
    v0, v1 = spec.basis_vectors()
    operator = spec.lambda0 * np.outer(v0, v0.conj()) + spec.lambda1 * np.outer(
        v1, v1.conj()
    )
    return env_from_matrix(operator, tau)


def env_spin_x(tau: float) -> Environment:
    """The x spin-half operator {{0, 1/2}, {1/2, 0}}."""
    operator = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)
    return env_from_matrix(operator, tau)


def bell_states() -> np.ndarray:
    """Columns: (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2,
    (|01>-|10>)/sqrt2."""
    s = 1.0 / math.sqrt(2.0)
    out = np.zeros((4, 4), dtype=np.complex128)
    out[[0, 3], 0] = s, s
    out[[0, 3], 1] = s, -s
    out[[1, 2], 2] = s, s
    out[[1, 2], 3] = s, -s
    return out


def env_bell(tau: float) -> Environment:
    """Two-qubit operator whose eigenvectors are the four Bell states.

    The symmetric/antisymmetric pairs carry eigenvalues +-1 on the
    {|00>, |11>} block and +-2 on the {|01>, |10>} block.
    """
    b = bell_states()
    weights = (1.0, -1.0, 2.0, -2.0)
    operator = sum(
        w * np.outer(b[:, i], b[:, i].conj()) for i, w in enumerate(weights)
    )
    return env_from_matrix(operator, tau)


def parse_matrix(doc, what: str, keys=("dim", "entries_re", "entries_im")) -> np.ndarray:
    """The complex matrix of a ``{dim, entries_re, entries_im, ...}`` document.

    ``doc`` must hold exactly ``keys``; ``dim`` is an integer in
    [MIN_DIM, MAX_DIM], and each entries list holds ``dim`` rows of ``dim``
    finite JSON numbers (real and imaginary parts, row-major).
    """
    if not isinstance(doc, dict) or set(doc) != set(keys):
        raise ConfigError(f"{what} needs exactly the keys {sorted(keys)}")
    dim = linalg.require_dim(doc["dim"], f"{what} dim")
    parts = []
    for key in ("entries_re", "entries_im"):
        rows = doc[key]
        if not (isinstance(rows, list) and len(rows) == dim
                and all(isinstance(row, list) and len(row) == dim for row in rows)):
            raise ConfigError(f"{what} {key} must be {dim} lists of {dim} numbers")
        parts.append([[finite_number(v, f"{what} {key} entry") for v in row] for row in rows])
    return np.array(parts[0]) + 1j * np.array(parts[1])


def save_operator(path: str, operator: np.ndarray, tau: float) -> None:
    """Write an operator file: ``dim``, ``tau`` and row-major entries."""
    operator = np.asarray(operator, dtype=np.complex128)
    payload = {
        "dim": linalg.require_square(operator),
        "tau": tau,
        "entries_re": operator.real.tolist(),
        "entries_im": operator.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2))
        fh.write("\n")


def load_operator(path: str) -> tuple[np.ndarray, float]:
    """The Hermitian operator and ``tau`` of an operator file; raises
    ConfigError on any defect."""
    doc = read_json(path, "operator")
    operator = parse_matrix(doc, f"operator {path}", ("dim", "tau", "entries_re", "entries_im"))
    tau = finite_number(doc["tau"], "tau")
    linalg.require_hermitian(operator, f"operator {path}")
    return operator, tau
