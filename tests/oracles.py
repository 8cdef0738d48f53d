"""Independent reference implementations used to cross-check the package.

Nothing in here may call into :mod:`eigenrl.linalg`'s diagonalizer or the
closed-form rotation block: these are the second route of every dual-route
test, so they are built only from elementary numpy operations and series
expansions.
"""
from __future__ import annotations

import math

import numpy as np


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


def bloch_vector(theta: float, phi: float) -> np.ndarray:
    """State ``cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>``."""
    return np.array(
        [np.cos(0.5 * theta), np.exp(1j * phi) * np.sin(0.5 * theta)]
    )


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
