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
``eig_hermitian`` takes one matrix or a stack of them, and a lone matrix is
a stack of one.  The stack is swept pair by pair in the same cyclic order
for every member, and each pair rotates only the members whose entry lies
above their own threshold, so every member gets the bits that rotating it
alone, one scalar step at a time, gives.  Resampled random environments are
diagonalized this way, all in one call.  Keeping those bits fixes two
choices: magnitudes are ``np.hypot(re, im)``, because ``np.abs`` of a
complex array can round differently from the scalar ``abs``, and the
rotation angle is ``math.atan2`` for each rotating member, because
``np.arctan2`` can differ from it in the last bit (both seen with NumPy 2.4
on AVX-512).
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
    The decomposition of a stack carries a leading member axis on both.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def normalize_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each vector along the last axis so that its
    first component above PHASE_TOL is real and positive."""
    mag = np.hypot(vecs.real, vecs.imag)
    significant = mag > PHASE_TOL
    first = significant.argmax(axis=-1)[..., None]
    lead = np.take_along_axis(vecs, first, axis=-1)
    factor = lead.conj() / np.take_along_axis(mag, first, axis=-1)
    return np.where(significant.any(axis=-1)[..., None], vecs * factor, vecs)


def _jacobi_rotate(av: np.ndarray, m: np.ndarray, p: int, q: int, mag: np.ndarray) -> None:
    """One Jacobi step zeroing a[i, p, q] for each member i in ``m``, in place.

    ``av`` stacks each member's A over its V, shape (B, 2n, n); the step is
    A <- J^dag A J and V <- V J, and ``mag`` is |a[m, p, q]|.  Every
    operation is elementwise, one member per row, so each member gets the
    bits of a one-matrix rotation.
    """
    phase = av[m, p, q] / mag
    diff = av[m, p, p].real - av[m, q, q].real
    theta = 0.5 * np.array(
        [math.atan2(y, x) for y, x in zip((2.0 * mag).tolist(), diff.tolist())]
    )
    c = np.cos(theta)[:, None]
    s = np.sin(theta)
    sp = (s * phase)[:, None]
    spc = (s * phase.conj())[:, None]

    col_p = av[m, :, p]
    col_q = av[m, :, q]
    av[m, :, p] = c * col_p + spc * col_q
    av[m, :, q] = -sp * col_p + c * col_q
    row_p = av[m, p, :]
    row_q = av[m, q, :]
    av[m, p, :] = c * row_p + sp * row_q
    av[m, q, :] = -spc * row_p + c * row_q


def eig_hermitian(h: np.ndarray) -> Eigensystem:
    """Diagonalize a Hermitian matrix, or a stack of them, by cyclic Jacobi.

    Parameters
    ----------
    h : complex Hermitian matrix, shape (n, n), or a stack of B of them,
        shape (B, n, n).

    Returns
    -------
    Eigensystem with ascending eigenvalues and phase-fixed column
    eigenvectors (see module docstring for the tie-break rule); for a stack
    its arrays have shapes (B, n) and (B, n, n).  Each member of a stack
    gets the bits it would get alone.

    Raises
    ------
    NotHermitian if a member is not Hermitian within HERMITICITY_TOL,
    NoConvergence if a member exhausts the sweep budget; for a stack the
    message names the member.
    """
    h = np.asarray(h, dtype=np.complex128)
    stacked = h.ndim == 3
    if not stacked:
        require_square(h)
        h = h[None]
    elif h.shape[1] != h.shape[2]:
        raise DimMismatch(f"expected a stack of square matrices, got shape {h.shape}")

    def member(i: int) -> str:  # errors from a stack name the member
        return f"member {i}: " if stacked else ""

    for i, mat in enumerate(h):
        try:
            require_hermitian(mat)
        except NotHermitian as exc:
            raise NotHermitian(f"{member(i)}{exc}") from None

    b, n = h.shape[:2]
    av = np.zeros((b, 2 * n, n), dtype=np.complex128)
    av[:, :n] = h
    av[:, n + np.arange(n), np.arange(n)] = 1.0
    a = av[:, :n]
    # absolute threshold, per member, below which an off-diagonal entry
    # counts as zero
    stop = np.array([1e-13 * max(1.0, float(np.max(np.abs(mat), initial=0.0)))
                     for mat in h])

    for _ in range(JACOBI_SWEEP_BUDGET):
        rotated = np.zeros(b, dtype=bool)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q]
                mag = np.hypot(apq.real, apq.imag)
                live = mag > stop
                if live.any():
                    m = live.nonzero()[0]
                    _jacobi_rotate(av, m, p, q, mag[m])
                    rotated |= live
        if not rotated.any():
            break
    else:
        for i in np.flatnonzero(rotated):
            off = float(np.max(np.abs(a[i] - np.diag(a[i].diagonal()))))
            if off > stop[i]:
                raise NoConvergence(
                    f"{member(i)}off-diagonal {off:.3e} after {JACOBI_SWEEP_BUDGET} sweeps"
                )

    values = np.diagonal(a, axis1=1, axis2=2).real
    rows = normalize_phase(av[:, n:].transpose(0, 2, 1).copy())  # row l is eigenvector l
    # sort by eigenvalue, then by the components (re, im) in turn; lexsort
    # is stable and takes its primary key last
    keys = [values]
    for k in range(n):
        keys += [rows[:, :, k].real, rows[:, :, k].imag]
    order = np.lexsort(keys[::-1], axis=-1)
    eigenvalues = np.take_along_axis(values, order, axis=-1)
    picked = np.take_along_axis(rows, order[:, :, None], axis=1)
    eigenvectors = picked.transpose(0, 2, 1).copy()
    if not stacked:
        return Eigensystem(eigenvalues=eigenvalues[0], eigenvectors=eigenvectors[0])
    return Eigensystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


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

