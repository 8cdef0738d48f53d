"""Independent reference implementations used to cross-check the package.

Nothing in here may call into :mod:`eigenrl.linalg`'s diagonalizer or the
closed-form rotation block: these are the second route of every dual-route
test, so they are built only from elementary numpy operations, series
expansions and, for one qubit, closed-form trigonometry.

The single-qubit route restates in trigonometric form what the matrix
route computes numerically.  A pair ``(theta, phi)`` stands for the state
``cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>`` with ``theta`` in [0, pi]
and ``phi`` in [0, 2pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eigenrl.environment import SingleQubitSpec
from eigenrl.errors import ConfigError, EigenrlError

TWO_PI = 2.0 * math.pi
#: slack beyond which a squared amplitude > 1 is treated as a hard error
CLAMP_TOL = 1e-12


def expm_series(a: np.ndarray, order: int = 24) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring a Taylor polynomial.

    Accurate to well below 1e-12 for the small, bounded-norm matrices the
    tests feed it; deliberately avoids any eigendecomposition.
    """
    a = np.asarray(a, dtype=np.complex128)
    norm = float(np.linalg.norm(a, ord=np.inf))
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    small = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for n in range(1, order + 1):
        term = term @ small / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def propagator(h: np.ndarray, tau: float) -> np.ndarray:
    """Reference ``exp(-i tau H)``."""
    return expm_series(-1j * tau * np.asarray(h, dtype=np.complex128))


def subspace_generators(a: int, b: int, dim: int) -> tuple[np.ndarray, ...]:
    """Spin-half generators on the span of basis states ``a`` and ``b``."""
    ket_a = np.zeros(dim, dtype=np.complex128)
    ket_b = np.zeros(dim, dtype=np.complex128)
    ket_a[a] = 1.0
    ket_b[b] = 1.0
    ab = np.outer(ket_a, ket_b.conj())
    ba = np.outer(ket_b, ket_a.conj())
    aa = np.outer(ket_a, ket_a.conj())
    bb = np.outer(ket_b, ket_b.conj())
    sx = 0.5 * (ab + ba)
    sy = -0.5j * (ab - ba)
    sz = 0.5 * (aa - bb)
    return sx, sy, sz


def rotation_via_series(
    a: int, b: int, dim: int, phi_x: float, phi_y: float, phi_z: float
) -> np.ndarray:
    """Two-level rotation built as three explicit exponentials (x first)."""
    sx, sy, sz = subspace_generators(a, b, dim)
    return (
        expm_series(-1j * phi_y * sy)
        @ expm_series(-1j * phi_z * sz)
        @ expm_series(-1j * phi_x * sx)
    )


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniformly random pure state."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    for c in vec:
        if abs(c) > 1e-12:
            return vec * (c.conjugate() / abs(c))
    return vec


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One Jacobi step zeroing a[p, q]: A <- J^dag A J, V <- V J (in place)."""
    apq = a[p, q]
    mag = abs(apq)
    phase = apq / mag
    theta = 0.5 * math.atan2(2.0 * mag, a[p, p].real - a[q, q].real)
    c = math.cos(theta)
    s = math.sin(theta)
    sp = s * phase
    spc = s * phase.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + spc * col_q
    a[:, q] = -sp * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + sp * row_q
    a[q, :] = -spc * row_p + c * row_q

    col_p = v[:, p].copy()
    col_q = v[:, q].copy()
    v[:, p] = c * col_p + spc * col_q
    v[:, q] = -sp * col_p + c * col_q


def eig_hermitian_scalar(h: np.ndarray, budget: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """The one-matrix cyclic Jacobi diagonalizer, one rotation at a time.

    Returns ``(eigenvalues, eigenvectors)`` with the package's conventions:
    ascending eigenvalues, column eigenvectors whose first component above
    1e-12 is real and positive, ties broken by comparing the phase-fixed
    components.  Raises ``RuntimeError`` if ``budget`` sweeps do not
    converge.  This is the reference the stacked diagonalizer must match
    bit for bit.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    a = h.copy()
    v = np.eye(n, dtype=np.complex128)
    stop = 1e-13 * max(1.0, float(np.max(np.abs(a)))) if n else 0.0

    for _ in range(budget):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > stop:
                    _jacobi_rotate(a, v, p, q)
                    rotated = True
        if not rotated:
            break
    else:
        off = float(np.max(np.abs(a - np.diag(a.diagonal()))))
        if off > stop:
            raise RuntimeError(f"off-diagonal {off:.3e} after {budget} sweeps")

    values = a.diagonal().real.copy()
    columns = [_phase_fixed(v[:, l].copy()) for l in range(n)]
    key = [tuple((float(c.real), float(c.imag)) for c in col) for col in columns]
    order = sorted(range(n), key=lambda l: (float(values[l]), key[l]))
    eigenvalues = np.array([values[l] for l in order])
    eigenvectors = np.column_stack([columns[l] for l in order]) if n else v
    return eigenvalues, eigenvectors


# ---------------------------------------------------------------------------
# closed-form single-qubit route


@dataclass(frozen=True)
class BlochAngles:
    """Polar/azimuthal angles of a single-qubit state."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < TWO_PI:
            raise ConfigError(f"phi must lie in [0, 2pi), got {self.phi}")


@dataclass(frozen=True)
class OverlapAngles:
    """Relative angles between a probe state and an evolved state.

    ``cos^2(delta_theta / 2)`` is the probability of finding the evolved
    state back in the probe; ``psi0``/``psi1`` are the phases of the two
    overlap amplitudes and ``delta_phi = psi1 - psi0``.
    """

    delta_theta: float
    delta_phi: float
    psi0: float
    psi1: float


def wrap_phase(phi: float) -> float:
    """Reduce an angle to [0, 2pi)."""
    out = math.fmod(phi, TWO_PI)
    return out + TWO_PI if out < 0.0 else out


def state_from_angles(angles: BlochAngles) -> np.ndarray:
    half = 0.5 * angles.theta
    return np.array(
        [
            math.cos(half),
            complex(math.cos(angles.phi), math.sin(angles.phi)) * math.sin(half),
        ]
    )


def angles_from_state(psi: np.ndarray) -> BlochAngles:
    """Read (theta, phi) off a normalized single-qubit state."""
    if psi.shape != (2,):
        raise ConfigError(f"expected a single-qubit state, got shape {psi.shape}")
    c0, c1 = complex(psi[0]), complex(psi[1])
    theta = 2.0 * math.atan2(abs(c1), abs(c0))
    if abs(c0) < 1e-15 or abs(c1) < 1e-15:
        phi = 0.0  # azimuth is pure gauge at the poles
    else:
        phi = wrap_phase(math.atan2(c1.imag, c1.real) - math.atan2(c0.imag, c0.real))
    return BlochAngles(theta=min(theta, math.pi), phi=phi)


class AngleDomain(EigenrlError):
    """Closed-form angle update produced an out-of-domain intermediate."""


def _half_angle_from_weight(s: float) -> float:
    """Angle whose half-cosine squared is ``s``, clamping round-off."""
    if s > 1.0 + CLAMP_TOL:
        raise AngleDomain(f"squared amplitude {s} exceeds 1 beyond tolerance")
    s = min(max(s, 0.0), 1.0)
    return 2.0 * math.acos(math.sqrt(s))


def evolved_bloch_angles(
    spec: SingleQubitSpec, tau: float, angles: BlochAngles
) -> BlochAngles:
    """Angles of ``exp(-i tau O)`` applied to the state ``angles``.

    ``O`` is the operator described by ``spec``; only the half-difference
    ``lambda = (lambda1 - lambda0)/2`` enters, the mean eigenvalue being a
    global phase.
    """
    half = 0.5 * angles.theta
    ct, st = math.cos(half), math.sin(half)
    lam_tau = 0.5 * (spec.lambda1 - spec.lambda0) * tau
    cl, sl = math.cos(lam_tau), math.sin(lam_tau)
    ca, sa = math.cos(spec.alpha), math.sin(spec.alpha)
    d = angles.phi - spec.beta
    cd, sd = math.cos(d), math.sin(d)

    a0 = ct * cl - sd * st * sa * sl
    b0 = ct * ca * sl + cd * st * sa * sl
    a1 = st * cl + sd * ct * sa * sl
    b1 = -st * ca * sl + cd * ct * sa * sl

    theta_bar = _half_angle_from_weight(a0 * a0 + b0 * b0)
    phi_bar = wrap_phase(angles.phi + math.atan2(b1, a1) - math.atan2(b0, a0))
    return BlochAngles(theta=theta_bar, phi=phi_bar)


def overlap_angles(probe: BlochAngles, evolved: BlochAngles) -> OverlapAngles:
    """Relative angles of ``evolved`` in the orthonormal pair built on ``probe``.

    The pair is ``|p0> = cos(t/2)|0> + e^{i p} sin(t/2)|1>`` and
    ``|p1> = sin(t/2)|0> - e^{i p} cos(t/2)|1>``.  The phases psi0/psi1 are
    the complex arguments of ``<p0|evolved>`` and ``<p1|evolved>``.
    """
    ht, hb = 0.5 * probe.theta, 0.5 * evolved.theta
    dphi = evolved.phi - probe.phi
    cd, sd = math.cos(dphi), math.sin(dphi)

    weight = math.cos(hb - ht) ** 2 + 0.5 * math.sin(evolved.theta) * math.sin(
        probe.theta
    ) * (cd - 1.0)
    delta_theta = _half_angle_from_weight(weight)

    psi0 = math.atan2(
        sd * math.sin(hb) * math.sin(ht),
        math.cos(hb) * math.cos(ht) + cd * math.sin(hb) * math.sin(ht),
    )
    psi1 = math.atan2(
        -sd * math.sin(hb) * math.cos(ht),
        math.cos(hb) * math.sin(ht) - cd * math.sin(hb) * math.cos(ht),
    )
    return OverlapAngles(
        delta_theta=delta_theta, delta_phi=psi1 - psi0, psi0=psi0, psi1=psi1
    )


def born_probabilities(overlap: OverlapAngles) -> tuple[float, float]:
    """Outcome distribution of a two-outcome measurement in the probe pair."""
    p0 = math.cos(0.5 * overlap.delta_theta) ** 2
    return p0, 1.0 - p0
