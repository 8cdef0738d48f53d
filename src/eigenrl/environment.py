"""The black-box side of the eigensolver.

An :class:`Environment` wraps a hidden Hermitian operator together with its
unitary propagator ``exp(-i tau O)``.  The learning layer is only ever
handed the batched black box that ``harness._black_box`` builds from the
environments' ``unitary``; the exact spectrum stays behind
:meth:`Environment.eigensystem_oracle`, which exists for scoring and
verification and is never imported by the protocol module (a structural
test keeps it that way).

Random operators are drawn from the Gaussian unitary ensemble,
``(G + G^dag)/2`` with standard complex Gaussian ``G``, then rescaled so the
spectral range ``lambda_max - lambda_min`` equals 2.  With the default
``tau = 1`` the relevant phases ``lambda * tau`` then stay well inside one
period regardless of dimension.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import BadDim, ConfigError
from .linalg import MAX_DIM, MIN_DIM


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
    """Hidden Hermitian operator plus its cached propagator and spectrum."""

    dim: int
    operator: np.ndarray
    tau: float
    unitary: np.ndarray
    eigensystem: linalg.Eigensystem = field(repr=False, compare=False)

    def eigensystem_oracle(self) -> linalg.Eigensystem:
        """Exact spectrum of the hidden operator (verification side only).

        The decomposition that built the propagator, shared by every call;
        its arrays are read-only.
        """
        return self.eigensystem


def _environments(operators: np.ndarray, tau: float) -> list[Environment]:
    """One environment per operator of a (B, d, d) stack, all diagonalized
    in one stacked call."""
    system = linalg.eig_hermitian(operators)
    system.eigenvalues.setflags(write=False)
    system.eigenvectors.setflags(write=False)
    envs = []
    for operator, values, vectors in zip(operators, system.eigenvalues, system.eigenvectors):
        member = linalg.Eigensystem(eigenvalues=values, eigenvectors=vectors)
        envs.append(Environment(
            dim=len(operator),
            operator=operator.copy(),
            tau=tau,
            unitary=linalg.unitary_from_eigensystem(member, tau),
            eigensystem=member,
        ))
    return envs


def env_from_matrix(operator: np.ndarray, tau: float) -> Environment:
    operator = np.asarray(operator, dtype=np.complex128)
    dim = linalg.require_square(operator)
    if not MIN_DIM <= dim <= MAX_DIM:
        raise BadDim(f"dim must lie in [{MIN_DIM}, {MAX_DIM}], got {dim}")
    linalg.require_hermitian(operator)
    return _environments(operator[None], tau)[0]


def _draw_gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    g /= math.sqrt(2.0)
    return 0.5 * (g + g.conj().T)


def envs_random(dim: int, tau: float, seeds: list[int]) -> list[Environment]:
    """One GUE-distributed hidden operator per seed, rescaled to spectral
    range 2.

    Every draw is diagonalized in one stacked call, twice: for its spread,
    then rescaled.  Each environment has the bits ``env_random`` gives for
    its seed.
    """
    if not MIN_DIM <= dim <= MAX_DIM:
        raise BadDim(f"dim must lie in [{MIN_DIM}, {MAX_DIM}], got {dim}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = np.stack([_draw_gue(rng, dim) for rng in rngs])
    spread = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    while len(pending):
        values = linalg.eig_hermitian(draws[pending]).eigenvalues
        spread[pending] = values[:, -1] - values[:, 0]
        # degenerate draws are measure zero; redraw defensively
        pending = pending[spread[pending] <= 1e-9]
        for i in pending:
            draws[i] = _draw_gue(rngs[i], dim)
    return _environments(draws * (2.0 / spread)[:, None, None], tau)


def env_random(dim: int, tau: float, seed: int) -> Environment:
    """GUE-distributed hidden operator, rescaled to spectral range 2."""
    return envs_random(dim, tau, [seed])[0]


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


def finite_number(value, what: str) -> float:
    """``value`` as a float if it is a finite number and not a bool."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def read_json(path: str, what: str):
    """The JSON document in the ``what`` file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, an int too long
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def parse_matrix(doc, what: str, keys=("dim", "entries_re", "entries_im")) -> np.ndarray:
    """The complex matrix of a ``{dim, entries_re, entries_im, ...}`` document.

    ``doc`` must hold exactly ``keys``; ``dim`` is an integer in
    [MIN_DIM, MAX_DIM], and each entries list holds ``dim`` rows of ``dim``
    finite JSON numbers (real and imaginary parts, row-major).
    """
    if not isinstance(doc, dict) or set(doc) != set(keys):
        raise ConfigError(f"{what} needs exactly the keys {sorted(keys)}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or not MIN_DIM <= dim <= MAX_DIM:
        raise ConfigError(f"{what} dim must be an integer in [{MIN_DIM}, {MAX_DIM}], got {dim!r}")
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
    defect = linalg.hermiticity_defect(operator)
    if defect > linalg.HERMITICITY_TOL:
        raise ConfigError(
            f"operator {path} is not Hermitian: max |H - H^dag| = {defect:.3e} "
            f"exceeds {linalg.HERMITICITY_TOL:.1e}"
        )
    return operator, tau
