"""Dense complex linear algebra for small Hilbert spaces.

Conventions used throughout the package:

* states are complex128 numpy vectors, operators complex128 square matrices;
* eigensystems are returned with eigenvalues ascending and eigenvectors as
  matrix columns, each column phase-fixed so that its first component above
  the phase tolerance is real and positive.  Ties between equal eigenvalues
  are broken by lexicographic comparison of the phase-fixed components, so
  identical input bits always produce identical output bits;
* two states are considered equal when the modulus of their inner product
  is 1, i.e. all comparisons ignore global phase.

Diagonalization uses cyclic Jacobi rotations.  The method is simple and
accurate at the dimensions this package targets (<= 64); it converges
quadratically and in practice needs well under the 100-sweep budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NoConvergence, NotHermitian

#: the Hilbert-space dimensions the package accepts from its inputs
MIN_DIM = 2
MAX_DIM = 64
#: tolerance for accepting a matrix as Hermitian
HERMITICITY_TOL = 1e-10
#: hard cap on cyclic Jacobi sweeps before giving up
JACOBI_SWEEP_BUDGET = 100
#: components smaller than this are ignored when fixing a global phase
PHASE_TOL = 1e-12


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` is a real vector in ascending order and column ``l`` of
    ``eigenvectors`` is the unit eigenvector belonging to ``eigenvalues[l]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return ``sum_l lambda_l |l><l|``."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class RotationAngles:
    """Angles of a two-level rotation, in radians.

    The rotation factors as ``exp(-i phi_y Sy) exp(-i phi_z Sz)
    exp(-i phi_x Sx)`` with the x factor applied first.
    """

    phi_x: float
    phi_y: float
    phi_z: float


def require_square(mat: np.ndarray) -> int:
    """Return the side length of a square 2-d array or raise DimMismatch."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {mat.shape}")
    return int(mat.shape[0])


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest absolute deviation of ``mat`` from its conjugate transpose."""
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def require_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    defect = hermiticity_defect(mat)
    if defect > tol:
        raise NotHermitian(f"max |H - H^dag| = {defect:.3e} exceeds {tol:.1e}")


def normalize_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant component is real > 0."""
    for c in vec:
        if abs(c) > PHASE_TOL:
            return vec * (c.conjugate() / abs(c))
    return vec


def _vector_sort_key(vec: np.ndarray) -> tuple:
    return tuple((float(c.real), float(c.imag)) for c in vec)


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


def eig_hermitian(h: np.ndarray) -> Eigensystem:
    """Diagonalize a Hermitian matrix with cyclic Jacobi rotations.

    Parameters
    ----------
    h : complex Hermitian matrix.

    Returns
    -------
    Eigensystem with ascending eigenvalues and phase-fixed column
    eigenvectors (see module docstring for the tie-break rule).

    Raises
    ------
    NotHermitian if ``h`` is not Hermitian within HERMITICITY_TOL,
    NoConvergence if the sweep budget is exhausted.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = require_square(h)
    require_hermitian(h)

    a = h.copy()
    v = np.eye(n, dtype=np.complex128)
    # absolute threshold below which an off-diagonal entry counts as zero
    stop = 1e-13 * max(1.0, float(np.max(np.abs(a)))) if n else 0.0

    for _ in range(JACOBI_SWEEP_BUDGET):
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
            raise NoConvergence(
                f"off-diagonal {off:.3e} after {JACOBI_SWEEP_BUDGET} sweeps"
            )

    values = a.diagonal().real.copy()
    columns = [normalize_phase(v[:, l].copy()) for l in range(n)]
    order = sorted(
        range(n), key=lambda l: (float(values[l]), _vector_sort_key(columns[l]))
    )
    eigenvalues = np.array([values[l] for l in order])
    eigenvectors = np.column_stack([columns[l] for l in order]) if n else v
    return Eigensystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def unitary_from_hermitian(h: np.ndarray, tau: float) -> np.ndarray:
    """Return ``exp(-i tau H)`` through the spectral decomposition of H."""
    return unitary_from_eigensystem(eig_hermitian(h), tau)


def unitary_from_eigensystem(es: Eigensystem, tau: float) -> np.ndarray:
    """Return ``exp(-i tau H)`` for the H that ``es`` decomposes."""
    phases = np.exp(-1j * tau * es.eigenvalues)
    return (es.eigenvectors * phases) @ es.eigenvectors.conj().T


def rotation_block(angles: RotationAngles) -> np.ndarray:
    """2x2 unitary of a two-level rotation on its ordered subspace basis.

    Closed form of ``exp(-i phi_y Sy) exp(-i phi_z Sz) exp(-i phi_x Sx)``
    where, on the subspace basis {|a>, |b>},
    ``Sx = (|a><b| + |b><a|)/2``, ``Sy = -i(|a><b| - |b><a|)/2`` and
    ``Sz = (|a><a| - |b><b|)/2``.
    """
    cx = math.cos(0.5 * angles.phi_x)
    sx = math.sin(0.5 * angles.phi_x)
    cy = math.cos(0.5 * angles.phi_y)
    sy = math.sin(0.5 * angles.phi_y)
    ez = complex(math.cos(0.5 * angles.phi_z), -math.sin(0.5 * angles.phi_z))
    ezc = ez.conjugate()
    return np.array(
        [
            [cy * cx * ez + 1j * sy * sx * ezc, -1j * cy * sx * ez - sy * cx * ezc],
            [sy * cx * ez - 1j * cy * sx * ezc, -1j * sy * sx * ez + cy * cx * ezc],
        ]
    )


#: rotation_blocks: signs that turn the four pairs of products into sums or
#: differences, and the order and signs that spread the four results over
#: the real and imaginary parts of [[b00, b01], [b10, b11]], row-major
_TERM_SIGN = np.array([[-1.0, 1.0], [1.0, -1.0]])[:, :, None]
_PART_ORDER = np.array([0, 3, 2, 1, 2, 1, 0, 3])
_PART_SIGN = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def rotation_blocks(phi: np.ndarray) -> np.ndarray:
    """Stack of :func:`rotation_block` results, shape (n, 2, 2), bit for bit.

    ``phi`` has shape (3, n): rows ``phi_x``, ``phi_y``, ``phi_z``.
    Written out in real arithmetic, the complex products of
    :func:`rotation_block` reduce to eight real products, combined in the
    same order; the terms they drop are exact zeros, which leave a nonzero
    sum unchanged.  A block with a zero among those products (an angle of
    exactly 0, or an underflow) could differ in the sign of a zero, so it
    is computed by :func:`rotation_block` itself.
    """
    half = 0.5 * phi
    trig = np.array((np.cos(half), np.sin(half)))  # of the half angles x, y, z
    # t[i, j, k] = (cy, sy)[i] * (cx, sx)[j] * (cz, sz)[k], multiplied left to right
    t = (trig[:, 1, None] * trig[None, :, 0])[:, :, None] * trig[None, None, :, 2]
    # [[re0, im1], [re1, im0]] with re0 = cy cx cz - sy sx sz,
    # im1 = cy sx cz + sy cx sz, re1 = sy cx cz + cy sx sz,
    # im0 = sy sx cz - cy cx sz; the block is
    # [[re0 + i im0, -re1 - i im1], [re1 - i im1, re0 - i im0]]
    combined = (t[:, :, 0] + t[::-1, ::-1, 1] * _TERM_SIGN).reshape(4, -1)
    parts = np.multiply(combined[_PART_ORDER].T, _PART_SIGN, order="C")
    blocks = parts.view(np.complex128).reshape(-1, 2, 2)
    if not t.all():
        for i in np.nonzero(~t.all(axis=(0, 1, 2)))[0]:
            x, y, z = (float(v) for v in phi[:, i])
            blocks[i] = rotation_block(RotationAngles(phi_x=x, phi_y=y, phi_z=z))
    return blocks


def gram_schmidt(mat: np.ndarray) -> None:
    """Re-orthonormalize the columns of ``mat`` in place (modified variant).

    Intended for drift control on matrices that are already unitary to within
    round-off, where it perturbs each column by O(machine epsilon) only.
    """
    n = require_square(mat)
    for j in range(n):
        col = mat[:, j]
        for i in range(j):
            col -= np.vdot(mat[:, i], col) * mat[:, i]
        col /= math.sqrt(np.vdot(col, col).real)

