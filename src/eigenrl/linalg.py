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
``eig_hermitian`` takes a stack of matrices, swept pair by pair in the
same cyclic order for every member, and each pair rotates only the members
whose entry lies above their own threshold, so every member gets the bits
that rotating it alone, one scalar step at a time, gives.  The sweeps hold
the stack with the members on the last, contiguous axis, so a pair's two
columns and two rows are views across all members.  A pair at which every
member rotates works on those views; only a pair at which some members
rotate gathers and scatters them.  The layout cannot move a bit: every
operation of a step is elementwise, one member per column, in the scalar
step's operand order.  Resampled random environments are diagonalized
this way, all in one call.  Keeping those bits fixes two choices:
magnitudes are ``np.hypot(re, im)``, because ``np.abs`` of a complex array
can round differently from the scalar ``abs``, and the rotation angle is
``math.atan2`` for each rotating member, because ``np.arctan2`` can differ
from it in the last bit (both seen with NumPy 2.4 on AVX-512).

``spectral_spread`` runs the same sweeps on A alone, with no eigenvector
rows, no phase fixing and no sort, and returns ``lambda_max - lambda_min``
of each member with the bits that ``eig_hermitian`` gives it whenever the
spread is non-zero: the rotations, and so the diagonal, do not depend on
whether V rides along.  A zero spread may differ from it in the sign of the
zero.

A punish block has one definition, ``rotation_blocks``, which the engine,
``replay_basis`` and the tests' reference agent all call.  A block whose
half-angle products are all non-zero has the bits of the complex closed
form; one with a zero product may differ from it in the sign of a zero.
A punishment is unitary, so no run calls ``gram_schmidt``.

Every matrix product of the package is computed here, by name: the black
box ``apply_unitaries``, the ``born_weights`` of an evolved probe, the
punish update ``rotate_columns``, the fold's and ``verify``'s ``overlaps``,
``diag_residual`` and ``unitarity_defect``.  BLAS picks its kernel, and so
the last bits of a product, by the operands' layout, so each keeps its own:
the transposed views, where the ``conj`` sits, and the (1, d, d) stack that
broadcasts one shared environment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EigenrlError, integer

#: the Hilbert-space dimensions the package accepts from its inputs
MIN_DIM = 2
MAX_DIM = 64
#: tolerance for accepting a matrix as Hermitian, relative to its largest
#: entry magnitude when that exceeds 1: our own rounding scales with it
HERMITICITY_TOL = 1e-10
#: bound on the magnitude of the real and imaginary part of a matrix entry:
#: below it the 2 * MAX_DIM**2 squares a Frobenius norm sums stay finite
MAX_ENTRY = 1e150
#: hard cap on cyclic Jacobi sweeps before giving up
JACOBI_SWEEP_BUDGET = 100
#: components smaller than this are ignored when fixing a global phase
PHASE_TOL = 1e-12


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition of a stack of Hermitian matrices.

    ``eigenvalues`` has shape (B, n), each row in ascending order, and
    column ``l`` of ``eigenvectors[i]``, shape (B, n, n), is the unit
    eigenvector belonging to ``eigenvalues[i, l]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_dim(dim, what: str = "dim") -> int:
    """``dim`` if it is an integer in [MIN_DIM, MAX_DIM]; ConfigError,
    naming ``what``, otherwise."""
    if not MIN_DIM <= integer(dim, what) <= MAX_DIM:
        raise ConfigError(f"{what} must be an integer in [{MIN_DIM}, {MAX_DIM}], got {dim!r}")
    return dim


def require_square(mat: np.ndarray) -> int:
    """Return the side length of a square 2-d array or raise EigenrlError."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise EigenrlError(f"expected a square matrix, got shape {mat.shape}")
    return int(mat.shape[0])


def hermiticity_defect(h: np.ndarray) -> np.ndarray:
    """Largest absolute deviation from its conjugate transpose of a matrix,
    or of each matrix of a stack, in one array pass."""
    return np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def require_hermitian(h: np.ndarray, what: str = "matrix") -> None:
    """ConfigError, naming ``what``, unless every real and imaginary part of
    an entry of the matrix ``h`` lies within MAX_ENTRY and ``h`` is Hermitian
    within HERMITICITY_TOL * max(1, max |h_ij|); for a stack, each member
    within its own bound, and the first member at fault is named.  The
    entries come first: beyond the bound the defect itself can overflow."""
    name = (lambda i: f"{what} member {i}") if h.ndim == 3 else (lambda i: what)
    size = np.maximum(np.abs(h.real), np.abs(h.imag)).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(~(size <= MAX_ENTRY))
    if bad.size:
        raise ConfigError(f"{name(bad[0])} has an entry part of magnitude "
                          f"{size.flat[bad[0]]:.3e}, beyond {MAX_ENTRY:.0e}")
    defect = hermiticity_defect(h)
    bound = HERMITICITY_TOL * np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    bad = np.flatnonzero(defect > bound)
    if bad.size:
        raise ConfigError(f"{name(bad[0])} is not Hermitian: max |H - H^dag| = "
                          f"{defect.flat[bad[0]]:.3e} exceeds {bound.flat[bad[0]]:.1e}")


def normalize_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each vector along the last axis so that its
    first component above PHASE_TOL is real and positive."""
    mag = np.hypot(vecs.real, vecs.imag)
    significant = mag > PHASE_TOL
    first = significant.argmax(axis=-1)[..., None]
    lead = np.take_along_axis(vecs, first, axis=-1)
    factor = lead.conj() / np.take_along_axis(mag, first, axis=-1)
    return np.where(significant.any(axis=-1)[..., None], vecs * factor, vecs)


def _jacobi_rotate(av: np.ndarray, m, p: int, q: int, mag: np.ndarray) -> None:
    """One Jacobi step zeroing a[p, q, i] for each member i in ``m``, in place.

    ``av`` holds each member's A, alone or over its V, with the members on
    the last, contiguous axis, shape (n, n, B) or (2n, n, B); the step is
    A <- J^dag A J and V <- V J, and ``mag`` is |a[p, q, m]|.  ``m`` is the
    slice of every member, under which the pair's columns ``av[:, p]`` and
    rows ``av[p]`` are views, or an index array of some members, which
    gathers and scatters them.  Each new column and row is built in a fresh
    array from the old pair, which is read in full before either is written,
    by the scalar step's expressions in their operand order.  NumPy rounds
    each element of an elementwise product or sum alone, so neither the
    layout nor the fresh arrays can move a bit: each member gets the bits of
    a one-matrix rotation.
    """
    phase = av[p, q, m] / mag
    diff = av[p, p, m].real - av[q, q, m].real
    theta = 0.5 * np.fromiter(map(math.atan2, (2.0 * mag).tolist(), diff.tolist()),
                              np.float64, len(diff))
    # complex, as NumPy casts it for each real x complex product below
    c = np.cos(theta).astype(np.complex128)
    s = np.sin(theta)
    sp = s * phase
    spc = s * phase.conj()

    col_p, col_q = av[:, p, m], av[:, q, m]
    new_p = c * col_p
    new_p += spc * col_q
    new_q = -sp * col_p
    new_q += c * col_q
    av[:, p, m] = new_p
    av[:, q, m] = new_q
    # a row's index and the members' are not adjacent: av[p, :, m] would put
    # the gathered members first, so the members are taken from the row's view
    row_p, row_q = av[p][:, m], av[q][:, m]
    new_p = c * row_p
    new_p += sp * row_q
    new_q = -spc * row_p
    new_q += c * row_q
    av[p][:, m] = new_p
    av[q][:, m] = new_q


def _jacobi(h: np.ndarray, vectors: bool) -> np.ndarray:
    """Cyclic Jacobi sweeps over a stack of Hermitian matrices.

    The sweeps copy ``h``, in whatever memory layout it comes, into one
    array with the members on the last axis, (2n, n, B) with each member's
    V under its A when ``vectors`` and (n, n, B) otherwise; a pair's rows
    and columns are then (n, B) and (2n, B) views whose members lie side by
    side (see ``_jacobi_rotate``).  Returns that array as a members-first
    view, shape (B, 2n, n) or (B, n, n).  The rotations, and so the bits of
    A, are the same with V or without it.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2] or not h.shape[2]:
        raise EigenrlError(f"expected a stack of square matrices of at least one row, "
                           f"got shape {h.shape}")
    require_hermitian(h)
    b, n = h.shape[:2]
    av = np.zeros((2 * n if vectors else n, n, b), dtype=np.complex128)
    av[:n] = h.transpose(1, 2, 0)
    if vectors:
        av[n + np.arange(n), np.arange(n)] = 1.0
    a = av[:n]
    # absolute threshold, per member, below which an off-diagonal entry
    # counts as zero; a max is exact, so one pass over the stack gives each
    # member the threshold it gets alone
    stop = 1e-13 * np.maximum(1.0, np.abs(h).max(axis=(1, 2), initial=0.0))

    for _ in range(JACOBI_SWEEP_BUDGET):
        rotated = np.zeros(b, dtype=bool)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = np.hypot(apq.real, apq.imag)
                live = mag > stop
                count = np.count_nonzero(live)
                if count == b:  # views: no gather, no scatter
                    _jacobi_rotate(av, slice(None), p, q, mag)
                    rotated[:] = True
                elif count:
                    m = live.nonzero()[0]
                    _jacobi_rotate(av, m, p, q, mag[m])
                    rotated |= live
        if not rotated.any():
            break
    else:
        for i in np.flatnonzero(rotated):
            off = float(np.max(np.abs(a[..., i] - np.diag(a[..., i].diagonal()))))
            if off > stop[i]:
                raise EigenrlError(
                    f"member {i}: off-diagonal {off:.3e} after {JACOBI_SWEEP_BUDGET} sweeps")
    return av.transpose(2, 0, 1)


def eig_hermitian(h: np.ndarray) -> Eigensystem:
    """Diagonalize a stack of Hermitian matrices by cyclic Jacobi.

    Parameters
    ----------
    h : complex Hermitian matrices, shape (B, n, n).

    Returns
    -------
    Eigensystem with ascending eigenvalues and phase-fixed column
    eigenvectors (see module docstring for the tie-break rule), shapes
    (B, n) and (B, n, n).  Each member gets the bits it gets in a stack of
    one.

    Raises
    ------
    EigenrlError unless ``h`` is a stack of square matrices of at least one
    row; ConfigError if a member has an entry beyond MAX_ENTRY or is not
    Hermitian within its HERMITICITY_TOL bound, EigenrlError if a member
    exhausts the sweep budget, each message naming the member.
    """
    av = _jacobi(h, vectors=True)
    n = av.shape[2]
    values = np.diagonal(av[:, :n], axis1=1, axis2=2).real
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
    return Eigensystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectral_spread(h: np.ndarray) -> np.ndarray:
    """``lambda_max - lambda_min`` of each Hermitian matrix of a stack, shape
    (B,), with the bits of
    ``eig_hermitian(h).eigenvalues[:, -1] - eigenvalues[:, 0]`` whenever
    that is non-zero.

    The same sweeps rotate A alone: no eigenvectors, no phase fixing and no
    sort.  Eigenvalues that compare equal differ at most in the sign of a
    zero, so only a spread of zero depends on the tie-break order, and it
    may differ from ``eig_hermitian``'s in its sign.  Raises as
    ``eig_hermitian`` does.
    """
    values = np.diagonal(_jacobi(h, vectors=False), axis1=1, axis2=2).real
    return values.max(axis=-1) - values.min(axis=-1)


def unitary_from_eigensystem(es: Eigensystem, tau: float) -> np.ndarray:
    """Return ``exp(-i tau H)`` for each H of the stack that ``es``
    decomposes; each member gets the bits it gets in a stack of one."""
    phases = np.exp(-1j * tau * es.eigenvalues)
    return (es.eigenvectors * phases[..., None, :]) @ es.eigenvectors.conj().swapaxes(-1, -2)


#: rotation_blocks: signs that turn the four pairs of products into sums or
#: differences, and the order and signs that spread the four results over
#: the real and imaginary parts of [[b00, b01], [b10, b11]], row-major
_TERM_SIGN = np.array([[-1.0, 1.0], [1.0, -1.0]])[:, :, None]
_PART_ORDER = np.array([0, 3, 2, 1, 2, 1, 0, 3])
_PART_SIGN = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def rotation_blocks(phi: np.ndarray) -> np.ndarray:
    """2x2 unitaries of two-level rotations, shape (n, 2, 2), the one
    builder of a punish block.

    ``phi`` has shape (3, n): rows ``phi_x``, ``phi_y``, ``phi_z``.  Block
    ``j`` is ``exp(-i phi_y Sy) exp(-i phi_z Sz) exp(-i phi_x Sx)`` of the
    angles ``phi[:, j]`` on the ordered subspace basis {|a>, |b>}, with
    ``Sx = (|a><b| + |b><a|)/2``, ``Sy = -i(|a><b| - |b><a|)/2`` and
    ``Sz = (|a><a| - |b><b|)/2``.  The complex closed form of that product,
    kept in ``tests/oracles.py`` as this builder's oracle, reduces in real
    arithmetic to eight real products of half-angle cosines and sines,
    combined here in the same order; the terms it drops are exact zeros,
    which leave a non-zero sum unchanged.  So a block whose products are
    all non-zero has the closed form's bits, and one with a zero product
    (an angle of exactly 0, or an underflow) may differ from it in the sign
    of a zero.  Every operation is elementwise, so a block has the same
    bits in a stack of any size.
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
    return parts.view(np.complex128).reshape(-1, 2, 2)


def rotate_columns(bases: np.ndarray, who: np.ndarray, t: np.ndarray, m: np.ndarray,
                   angles: np.ndarray) -> None:
    """Rotate columns ``t[j]`` and ``m[j]`` of ``bases[who[j]]`` in place by
    the two-level rotation of ``angles[:, j]`` (rows phi_x, phi_y, phi_z):
    the punish update, live and replayed."""
    blocks = rotation_blocks(angles)
    cols = np.array((t, m)).T[:, None, :]
    at = (who[:, None, None], np.arange(bases.shape[1])[:, None], cols)  # (h, dim, 2)
    bases[at] = bases[at] @ blocks


def gram_schmidt(mat: np.ndarray) -> None:
    """Re-orthonormalize the columns of ``mat`` in place (modified variant),
    moving each column of a matrix unitary to within round-off by O(machine
    epsilon) only.  No run calls it: a punishment is unitary.
    """
    n = require_square(mat)
    for j in range(n):
        col = mat[:, j]
        for i in range(j):
            col -= np.vdot(mat[:, i], col) * mat[:, i]
        col /= math.sqrt(np.vdot(col, col).real)


def _of_members(stack: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The items of ``members`` from a stack over the environments: the
    whole stack, one (1, d, d) item that broadcasts, when one environment
    is shared, else one item each."""
    return stack if len(stack) == 1 else stack[members]


def apply_unitaries(unitaries: np.ndarray, members: np.ndarray,
                    probes: np.ndarray) -> np.ndarray:
    """Row ``j`` of ``probes`` times member ``members[j]``'s unitary, from a
    stack of one shared unitary or of one per member: the black box."""
    return (_of_members(unitaries, members) @ probes[:, :, None])[:, :, 0]


def born_weights(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """(n, d): ``|<b_l|psi_j>|**2``, the Born weights of each state row
    ``psi_j`` on the columns ``b_l`` of its basis ``bases[j]``."""
    amps = (states[:, None, :] @ bases.conj())[:, 0]
    return amps.real**2 + amps.imag**2


def overlaps(vconj: np.ndarray, members: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """(n, d, d): ``|<l_E|D|j>|`` at ``[i, l, j]`` for each basis ``D`` of
    ``bases`` and the eigenvectors ``l_E`` of member ``members[i]``'s
    environment.  ``vconj`` stacks the conjugated eigenvector matrices, one
    shared or one per member, C-contiguous: they enter as transposed views."""
    return np.abs(_of_members(vconj, members).transpose(0, 2, 1) @ bases)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each C-contiguous complex matrix of a stack, with
    its bits: it sums the strided real and imaginary views with BLAS ddot,
    as one (1, m) @ (m, 1) product each.  Contiguous copies of the parts
    would be summed by another ddot kernel, with other last bits."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def diag_residual(bases: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Relative Frobenius weight ``|offdiag(D^H O D)| / |O|`` of what each D
    fails to diagonalize away, for each basis of a complex (N, d, d) stack
    against one shared operator, a (1, d, d) stack, or one operator each."""
    d = bases.shape[-1]
    if not bases.shape[1:] == operators.shape[1:] == (d, d) or len(operators) not in (1, len(bases)):
        raise EigenrlError(f"bases {bases.shape} do not match operators {operators.shape}")
    transformed = bases.conj().transpose(0, 2, 1) @ operators @ bases
    diagonal = np.arange(d)
    transformed[:, diagonal, diagonal] = 0.0
    denom = _frobenius(operators)
    residuals = np.zeros(len(bases))
    np.divide(_frobenius(transformed), denom, out=residuals, where=denom != 0.0)
    return residuals


def unitarity_defect(matrix: np.ndarray) -> float:
    """``|D^H D - I|``, the Frobenius norm, of a square complex matrix D."""
    return float(_frobenius((matrix.conj().T @ matrix - np.eye(len(matrix)))[None])[0])
