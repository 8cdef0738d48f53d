"""Dense linear-algebra layer: diagonalizer, rotations, propagator, and
the named matrix products the rest of the package calls."""
import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from eigenrl import linalg
from eigenrl.errors import ConfigError, EigenrlError


SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)


def lone_block(phi_x, phi_y, phi_z):
    """The package's rotation block of the angles, from a stack of one."""
    return linalg.rotation_blocks(np.array([[phi_x], [phi_y], [phi_z]], dtype=float))[0]


def eig_of_one(h):
    """The eigensystem of the matrix ``h``, diagonalized as a stack of one,
    as its one member's arrays."""
    es = linalg.eig_hermitian(np.asarray(h)[None])
    return linalg.Eigensystem(eigenvalues=es.eigenvalues[0], eigenvectors=es.eigenvectors[0])


def two_level_rotation(a, b, dim, phi):
    """The rotation block of the angles ``phi`` (phi_x, phi_y, phi_z)
    embedded on basis states a < b of a dim-level space."""
    u = np.eye(dim, dtype=np.complex128)
    u[np.ix_((a, b), (a, b))] = lone_block(*phi)
    return u


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)], ids=["lone", "stacked"])
def test_empty_matrices_raise_dim_mismatch(shape):
    with pytest.raises(EigenrlError, match=r"^expected a stack of square matrices of at "
                                           r"least one row, got shape ") as exc:
        linalg.eig_hermitian(np.zeros(shape))
    assert exc.type is EigenrlError  # a runtime failure, not bad input


def test_require_square_rejects_rectangles():
    with pytest.raises(EigenrlError,
                       match=r"^expected a square matrix, got shape \(2, 3\)$") as exc:
        linalg.require_square(np.zeros((2, 3)))
    assert exc.type is EigenrlError
    assert linalg.require_square(np.zeros((4, 4))) == 4
    # the eigensolver takes stacks only: a lone matrix is refused too
    for h in (np.zeros((3, 2, 4)), SX):
        message = ("^expected a stack of square matrices of at least one row, "
                   f"got shape {re.escape(str(h.shape))}$")
        with pytest.raises(EigenrlError, match=message) as exc:
            linalg.eig_hermitian(h)
        assert exc.type is EigenrlError


def test_require_hermitian():
    linalg.require_hermitian(SX)
    with pytest.raises(ConfigError, match="^matrix is not Hermitian: "):
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
        es = eig_of_one(SX)
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
                es = eig_of_one(h)
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
            es = eig_of_one(h)
            v = es.eigenvectors
            assert np.max(np.abs((v * es.eigenvalues) @ v.conj().T - h)) < 1e-10

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(5)
        h = oracles.random_hermitian(rng, 12)
        v = eig_of_one(h).eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(12), atol=1e-11)

    def test_diagonal_input_is_fixed_point(self):
        es = eig_of_one(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 2.0, 3.0])
        perm = np.zeros((3, 3))
        perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
        np.testing.assert_allclose(es.eigenvectors, perm, atol=1e-14)

    def test_degenerate_spectrum_deterministic(self):
        """Equal eigenvalues get a reproducible basis, in the sweeps' order."""
        h = np.eye(3, dtype=np.complex128)
        a = eig_of_one(h)
        b = eig_of_one(h)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        np.testing.assert_allclose(a.eigenvalues, [1.0, 1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError, match="^matrix member 0 is not Hermitian: "):
            linalg.eig_hermitian(np.array([[[0.0, 1.0], [2.0, 0.0]]]))
        stack = np.stack([SX] * 4)
        stack[2, 0, 1] += 1e-9
        stack[3, 1, 0] += 1e-9  # the message names the first member that is not
        with pytest.raises(ConfigError, match=r"member 2 is not Hermitian: .* = 1\.000e-09"):
            linalg.eig_hermitian(stack)
        stack[2:] = SX
        stack[2, 0, 1] += 1e-11  # within HERMITICITY_TOL
        linalg.eig_hermitian(stack)
        stack[2] = 1e7 * SX  # the bound scales with the largest |h_ij|, 5e6
        stack[2, 0, 1] += 1e-4
        linalg.eig_hermitian(stack)
        stack[2, 0, 1] += 1e-3
        with pytest.raises(ConfigError, match=r"member 2 is not Hermitian: .* exceeds 5\.0e-04"):
            linalg.eig_hermitian(stack)


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
    # never rotated, and the degenerate ones keep their tied pairs in the
    # sweeps' order
    assert len({sweeps_needed(stack[i]) for i in (0, 40, 43)}) == 3
    assert set(np.abs(es.eigenvectors[40]).ravel()) == {0.0, 1.0}
    assert np.all(es.eigenvalues[41] == 1.0)
    assert np.sum(np.diff(es.eigenvalues[42]) == 0.0) > 0
    assert np.all(es.eigenvalues[44][::2] == es.eigenvalues[44][1::2])
    # a stack of one gets the bits of its member in the stack
    for i in (0, 42, 43):
        lone = linalg.eig_hermitian(stack[i:i + 1])
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
    with pytest.raises(EigenrlError, match="^member 2: off-diagonal .* after 2 sweeps$") as exc:
        linalg.eig_hermitian(np.stack([diagonal, diagonal, hard, hard]))
    assert exc.type is EigenrlError and str(exc.value) == f"member 2: {ref.value}"
    linalg.eig_hermitian(np.stack([diagonal, diagonal]))


def gue_stack(rng, d, size=40):
    return np.stack([oracles.random_hermitian(rng, d) for _ in range(size)])


def test_stacked_jacobi_on_gue_stacks_takes_both_rotation_branches(monkeypatch):
    """A step at which every member rotates works on views of the pair's
    rows and columns; one at which only some do gathers and scatters them.
    Either way each member keeps the one-matrix bits."""
    branches = []
    real = linalg._jacobi_rotate

    def spy(av, m, p, q, mag):
        branches.append("slice" if isinstance(m, slice) else "some")
        return real(av, m, p, q, mag)

    monkeypatch.setattr(linalg, "_jacobi_rotate", spy)
    rng = np.random.default_rng(71)
    stack = gue_stack(rng, 16)
    assert_members_match_reference(stack)
    # members converge after different numbers of sweeps
    assert branches[0] == "slice" and set(branches) == {"slice", "some"}
    branches.clear()
    assert_members_match_reference(gue_stack(rng, 2))
    assert branches == ["slice"]  # at d = 2 one rotation diagonalizes every member


@pytest.mark.parametrize("d", [3, 5, 33, linalg.MAX_DIM])
def test_lone_matrices_at_odd_and_largest_dims_have_the_one_matrix_bits(d):
    h = oracles.random_hermitian(np.random.default_rng(79 + d), d)
    values, vectors = oracles.eig_hermitian_scalar(h)
    es = linalg.eig_hermitian(h[None])
    assert es.eigenvalues.tobytes() == values.tobytes()
    assert es.eigenvectors.tobytes() == vectors.tobytes()


def test_stacks_in_any_memory_layout_have_the_bits_of_their_contiguous_copy():
    """The sweeps read the input once, into their own members-last array, so
    a strided or transposed stack gives what its C-contiguous copy gives."""
    stack = gue_stack(np.random.default_rng(83), 8, size=12)
    for view in (np.asfortranarray(stack), stack[::2], stack.conj().transpose(0, 2, 1)):
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        es, ref = linalg.eig_hermitian(view), linalg.eig_hermitian(copy)
        assert es.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert es.eigenvectors.tobytes() == ref.eigenvectors.tobytes()


def unitary_from_hermitian(h, tau):
    """``exp(-i tau H)`` through the package's spectral decomposition of H."""
    return linalg.unitary_from_eigensystem(eig_of_one(h), tau)


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
        block = lone_block(math.pi, 0.0, 0.0)
        np.testing.assert_allclose(
            block, [[0.0, -1.0j], [-1.0j, 0.0]], atol=1e-12
        )

    def test_pure_z_block(self):
        block = lone_block(0.0, 0.0, math.pi / 2)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            block, [[s - s * 1j, 0.0], [0.0, s + s * 1j]], atol=1e-12
        )

    def test_mixed_frozen_value(self):
        """Frozen output of the series oracle at (0.7, -1.3, 2.1)."""
        block = lone_block(0.7, -1.3, 2.1)
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
            block = lone_block(*phi)
            ref = oracles.rotation_via_series(0, 1, 2, *phi)
            np.testing.assert_allclose(block, ref, atol=1e-12)

    def test_embedding_matches_series_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            a = int(rng.integers(0, dim - 1))
            b = int(rng.integers(a + 1, dim))
            phi = rng.uniform(-math.pi, math.pi, 3)
            u = two_level_rotation(a, b, dim, phi)
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
            block = lone_block(*phi)
            np.testing.assert_allclose(
                block.conj().T @ block, np.eye(2), atol=1e-13
            )

    def test_zero_angles_identity(self):
        block = lone_block(0.0, 0.0, 0.0)
        np.testing.assert_array_equal(block, np.eye(2))



def test_stacked_rotation_blocks_match_the_scalar_block_bit_for_bit():
    """Each stacked block has the bits of the closed-form oracle unless one
    of its angles is exactly zero, underflowed half-angle products included
    (at the scales 1e-320 and 1e-150 every block has one); at an exact zero
    it has the oracle's values, a zero of either sign, and is unitary."""
    rng = np.random.default_rng(12)
    for scale in (0.0, 1e-320, 1e-150, 1e-20, 1e-3, 1.0, math.pi, 1e3, 1e6 * math.pi):
        phi = rng.uniform(-scale, scale, (3, 400))
        phi[0, :20] = 0.0
        phi[2, 20:40] = -0.0
        # the whole stack, and stacks of one and two with and without zeros
        for cols in (slice(None), [0], [20], [40], [19, 20], [0, 40], [40, 41]):
            stack = phi[:, cols]
            blocks = linalg.rotation_blocks(stack)
            assert blocks.shape == (stack.shape[1], 2, 2) and blocks.flags.c_contiguous
            for i in range(stack.shape[1]):
                oracle = oracles.rotation_block(*stack[:, i].tolist())
                if stack[:, i].all():
                    assert blocks[i].tobytes() == oracle.tobytes()
                else:
                    np.testing.assert_array_equal(blocks[i], oracle)
                    np.testing.assert_allclose(blocks[i].conj().T @ blocks[i], np.eye(2),
                                               rtol=0.0, atol=1e-15)


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



#: functions that compute a matrix product, by name or as an attribute
_PRODUCTS = frozenset({"matmul", "dot", "vdot", "inner", "tensordot", "einsum"})


def _products(path: Path) -> list[str]:
    """``file:line`` of each matrix product written in a source file: an
    ``@``, a product function or anything of ``numpy.linalg``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Attribute):
            hit = node.attr in _PRODUCTS or (
                node.attr == "linalg" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Name):
            hit = node.id in _PRODUCTS
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [f"{module}.{alias.name}" if module else alias.name for alias in node.names]
            hit = any(name.startswith("numpy.linalg") or name.rsplit(".", 1)[-1] in _PRODUCTS
                      for name in names)
        else:
            continue
        if hit:
            found.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_module_but_linalg_computes_a_matrix_product():
    """Every matrix product sits behind a named ``linalg`` function, the one
    place that fixes the operand layout, and so the bits, of each; a
    decorator's ``@`` is no product.  ``np.outer`` is elementwise."""
    package = Path(linalg.__file__).parent
    outside = [hit for path in sorted(package.glob("*.py")) if path.name != "linalg.py"
               for hit in _products(path)]
    assert outside == []
    assert len(_products(package / "linalg.py")) >= 7  # the check sees the named products


def test_unitarity_defect_has_the_bits_of_the_numpy_norm():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4, 8, 16, 64):
        q = eig_of_one(oracles.random_hermitian(rng, d)).eigenvectors
        for matrix in (q, q + 1e-7 * rng.standard_normal((d, d)), np.zeros((d, d), complex)):
            want = np.linalg.norm(matrix.conj().T @ matrix - np.eye(d))
            assert np.float64(linalg.unitarity_defect(matrix)).tobytes() == want.tobytes()


def test_overlaps_on_a_stack_of_one_have_the_bits_of_the_matrix_form():
    """A lone basis against one environment, as ``verify`` asks for it,
    gets the bits of ``|V^H D|`` written for one matrix."""
    rng = np.random.default_rng(9)
    for d in (2, 3, 4, 8):
        vconj = linalg.eig_hermitian(oracles.random_hermitian(rng, d)[None]).eigenvectors.conj()
        basis = linalg.eig_hermitian(oracles.random_hermitian(rng, d)[None]).eigenvectors
        got = linalg.overlaps(vconj, np.arange(1), basis)[0]
        assert got.tobytes() == np.abs(vconj[0].T @ basis[0]).tobytes()
