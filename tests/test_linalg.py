"""Dense linear-algebra layer: diagonalizer, rotations, propagator."""
import math

import numpy as np
import pytest

import oracles
from eigenrl import linalg
from eigenrl.errors import DimMismatch, NoConvergence, NotHermitian
from eigenrl.linalg import RotationAngles


SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)


def two_level_rotation(a, b, dim, angles):
    """The rotation block embedded on basis states a < b of a dim-level space."""
    u = np.eye(dim, dtype=np.complex128)
    u[np.ix_((a, b), (a, b))] = linalg.rotation_block(angles)
    return u


def test_require_square_rejects_rectangles():
    with pytest.raises(DimMismatch):
        linalg.require_square(np.zeros((2, 3)))
    assert linalg.require_square(np.zeros((4, 4))) == 4


def test_require_hermitian():
    linalg.require_hermitian(SX)
    with pytest.raises(NotHermitian):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_normalize_phase_leading_component_real_positive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = oracles.haar_state(rng, 4)
        out = linalg.normalize_phase(v)
        lead = next(c for c in out if abs(c) > 1e-12)
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0
        # only a phase was applied
        assert abs(np.vdot(out, v)) == pytest.approx(1.0, abs=1e-12)


class TestEigHermitian:
    def test_spin_x_exact(self):
        es = linalg.eig_hermitian(SX)
        np.testing.assert_allclose(es.eigenvalues, [-0.5, 0.5], atol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(es.eigenvectors[:, 0], [s, -s], atol=1e-12)
        np.testing.assert_allclose(es.eigenvectors[:, 1], [s, s], atol=1e-12)

    def test_matches_numpy_on_random_matrices(self):
        """Cross-check eigenvalues/eigenvectors against numpy's eigh."""
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4, 6, 8, 16):
            for _ in range(8):
                h = oracles.random_hermitian(rng, dim)
                es = linalg.eig_hermitian(h)
                ref_vals, ref_vecs = np.linalg.eigh(h)
                np.testing.assert_allclose(es.eigenvalues, ref_vals, atol=1e-10)
                for l in range(dim):
                    # same eigenvector up to global phase
                    assert abs(
                        np.vdot(es.eigenvectors[:, l], ref_vecs[:, l])
                    ) == pytest.approx(1.0, abs=1e-9)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4, 8, 32):
            h = oracles.random_hermitian(rng, dim)
            es = linalg.eig_hermitian(h)
            v = es.eigenvectors
            assert np.max(np.abs((v * es.eigenvalues) @ v.conj().T - h)) < 1e-10

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(5)
        h = oracles.random_hermitian(rng, 12)
        v = linalg.eig_hermitian(h).eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(12), atol=1e-11)

    def test_diagonal_input_is_fixed_point(self):
        es = linalg.eig_hermitian(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 2.0, 3.0])
        perm = np.zeros((3, 3))
        perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
        np.testing.assert_allclose(es.eigenvectors, perm, atol=1e-14)

    def test_degenerate_spectrum_deterministic(self):
        """Equal eigenvalues get a reproducible tie-broken basis."""
        h = np.eye(3, dtype=np.complex128)
        a = linalg.eig_hermitian(h)
        b = linalg.eig_hermitian(h)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        np.testing.assert_allclose(a.eigenvalues, [1.0, 1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def sweeps_needed(h):
    """Fewest sweeps the one-matrix reference needs to converge on ``h``."""
    for budget in range(1, linalg.JACOBI_SWEEP_BUDGET + 1):
        try:
            oracles.eig_hermitian_scalar(h, budget=budget)
            return budget
        except RuntimeError:
            pass
    raise AssertionError("the reference does not converge")


def mixed_stack(rng):
    """GUE draws at d = 16 plus members that rotate never, rarely or at
    another scale, and ones with degenerate eigenvalues."""
    d = 16
    gue = [oracles.random_hermitian(rng, d) for _ in range(40)]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    degenerate = (q * np.repeat([-1.0, 0.5, 2.0, 3.0], 4)) @ q.conj().T
    degenerate = 0.5 * (degenerate + degenerate.conj().T)
    diagonal = np.diag(np.linspace(2.0, -1.0, d)).astype(np.complex128)
    nearly_diagonal = diagonal + 1e-3 * oracles.random_hermitian(rng, d)
    blocks = np.kron(np.eye(2), oracles.random_hermitian(rng, d // 2))
    return np.stack(gue + [
        diagonal, np.eye(d, dtype=np.complex128), degenerate, nearly_diagonal,
        blocks, 1e3 * oracles.random_hermitian(rng, d),
    ])


def assert_members_match_reference(stack):
    es = linalg.eig_hermitian(stack)
    assert es.eigenvalues.shape == stack.shape[:2] and es.eigenvectors.shape == stack.shape
    for i, h in enumerate(stack):
        values, vectors = oracles.eig_hermitian_scalar(h)
        assert es.eigenvalues[i].tobytes() == values.tobytes(), i
        assert es.eigenvectors[i].tobytes() == vectors.tobytes(), i
    return es


def test_stacked_jacobi_matches_the_one_matrix_solver_bit_for_bit():
    rng = np.random.default_rng(61)
    stack = mixed_stack(rng)
    es = assert_members_match_reference(stack)
    # members stop after different numbers of sweeps; the diagonal one is
    # never rotated, and the degenerate ones exercise the tie-break sort
    assert len({sweeps_needed(stack[i]) for i in (0, 40, 43)}) == 3
    assert set(np.abs(es.eigenvectors[40]).ravel()) == {0.0, 1.0}
    assert np.all(es.eigenvalues[41] == 1.0)
    assert np.sum(np.diff(es.eigenvalues[42]) == 0.0) > 0
    assert np.all(es.eigenvalues[44][::2] == es.eigenvalues[44][1::2])
    # a lone matrix is a stack of one
    for i in (0, 42, 43):
        lone = linalg.eig_hermitian(stack[i])
        assert lone.eigenvalues.tobytes() == es.eigenvalues[i].tobytes()
        assert lone.eigenvectors.tobytes() == es.eigenvectors[i].tobytes()
        assert lone.eigenvectors.flags.c_contiguous
    two = [oracles.random_hermitian(rng, 2) for _ in range(6)]
    two += [SX, np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, -0.5j], [0.5j, 0.0]])]
    assert_members_match_reference(np.array(two, dtype=np.complex128))


def test_stacked_jacobi_names_the_member_that_does_not_converge(monkeypatch):
    rng = np.random.default_rng(67)
    diagonal = np.diag([3.0, 1.0, -2.0, 0.5]).astype(np.complex128)
    hard = oracles.random_hermitian(rng, 4)
    monkeypatch.setattr(linalg, "JACOBI_SWEEP_BUDGET", 2)
    with pytest.raises(RuntimeError) as ref:
        oracles.eig_hermitian_scalar(hard, budget=2)
    with pytest.raises(NoConvergence) as exc:
        linalg.eig_hermitian(np.stack([diagonal, diagonal, hard, hard]))
    assert str(exc.value) == f"member 2: {ref.value}"
    with pytest.raises(NoConvergence) as exc:
        linalg.eig_hermitian(hard)
    assert str(exc.value) == str(ref.value)
    linalg.eig_hermitian(np.stack([diagonal, diagonal]))


def unitary_from_hermitian(h, tau):
    """``exp(-i tau H)`` through the package's spectral decomposition of H."""
    return linalg.unitary_from_eigensystem(linalg.eig_hermitian(h), tau)


class TestPropagator:
    def test_spin_x_half_turn(self):
        """exp(-i pi Sx) maps |0> to -i|1> (frozen series value)."""
        u = unitary_from_hermitian(SX, math.pi)
        np.testing.assert_allclose(u @ [1.0, 0.0], [0.0, -1.0j], atol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 5, 8):
            for _ in range(6):
                h = oracles.random_hermitian(rng, dim)
                tau = float(rng.uniform(0.1, 3.0))
                u = unitary_from_hermitian(h, tau)
                np.testing.assert_allclose(
                    u, oracles.propagator(h, tau), atol=1e-11
                )

    def test_unitarity(self):
        rng = np.random.default_rng(29)
        h = oracles.random_hermitian(rng, 6)
        u = unitary_from_hermitian(h, 1.7)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)


class TestTwoLevelRotation:
    def test_pure_x_block(self):
        block = linalg.rotation_block(RotationAngles(math.pi, 0.0, 0.0))
        np.testing.assert_allclose(
            block, [[0.0, -1.0j], [-1.0j, 0.0]], atol=1e-12
        )

    def test_pure_z_block(self):
        block = linalg.rotation_block(RotationAngles(0.0, 0.0, math.pi / 2))
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            block, [[s - s * 1j, 0.0], [0.0, s + s * 1j]], atol=1e-12
        )

    def test_mixed_frozen_value(self):
        """Frozen output of the series oracle at (0.7, -1.3, 2.1)."""
        block = linalg.rotation_block(RotationAngles(0.7, -1.3, 2.1))
        expected = np.array(
            [
                [0.5520984262 - 0.7519304107j, 0.0460817568 + 0.357301633j],
                [-0.0460817568 + 0.357301633j, 0.5520984262 + 0.7519304107j],
            ]
        )
        np.testing.assert_allclose(block, expected, atol=1e-9)

    def test_block_matches_series_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            phi = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
            block = linalg.rotation_block(RotationAngles(*phi))
            ref = oracles.rotation_via_series(0, 1, 2, *phi)
            np.testing.assert_allclose(block, ref, atol=1e-12)

    def test_embedding_matches_series_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            a = int(rng.integers(0, dim - 1))
            b = int(rng.integers(a + 1, dim))
            phi = rng.uniform(-math.pi, math.pi, 3)
            angles = RotationAngles(phi_x=phi[0], phi_y=phi[1], phi_z=phi[2])
            u = two_level_rotation(a, b, dim, angles)
            ref = oracles.rotation_via_series(a, b, dim, *phi)
            np.testing.assert_allclose(u, ref, atol=1e-12)
            # identity outside the subspace
            mask = np.ones(dim, dtype=bool)
            mask[[a, b]] = False
            np.testing.assert_array_equal(u[np.ix_(mask, mask)], np.eye(dim - 2))

    def test_unitary(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            phi = rng.uniform(-6 * math.pi, 6 * math.pi, 3)
            block = linalg.rotation_block(RotationAngles(*phi))
            np.testing.assert_allclose(
                block.conj().T @ block, np.eye(2), atol=1e-13
            )

    def test_zero_angles_identity(self):
        block = linalg.rotation_block(RotationAngles(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(block, np.eye(2))



def test_stacked_rotation_blocks_match_the_scalar_block_bit_for_bit():
    rng = np.random.default_rng(12)
    for scale in (0.0, 1e-320, 1e-150, 1e-20, 1e-3, 1.0, math.pi, 1e3, 1e6 * math.pi):
        phi = rng.uniform(-scale, scale, (3, 400))
        phi[0, :20] = 0.0  # exact zeros go through the scalar fallback
        phi[2, 20:40] = -0.0
        blocks = linalg.rotation_blocks(phi)
        assert blocks.shape == (400, 2, 2) and blocks.flags.c_contiguous
        for i in range(phi.shape[1]):
            angles = linalg.RotationAngles(
                phi_x=float(phi[0, i]), phi_y=float(phi[1, i]), phi_z=float(phi[2, i])
            )
            assert blocks[i].tobytes() == linalg.rotation_block(angles).tobytes()


def test_gram_schmidt_restores_unitarity():
    rng = np.random.default_rng(43)
    h = oracles.random_hermitian(rng, 6)
    u = unitary_from_hermitian(h, 0.9)
    drifted = u + 1e-9 * (
        rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    )
    linalg.gram_schmidt(drifted)
    np.testing.assert_allclose(drifted.conj().T @ drifted, np.eye(6), atol=1e-14)
    # the repaired matrix stays close to the original
    assert np.max(np.abs(drifted - u)) < 1e-8

