"""Environment construction, named operators, serialization."""
import json
import math

import numpy as np
import pytest

import oracles
from eigenrl import environment as envm
from eigenrl import linalg
from eigenrl.errors import BadDim, ConfigError, NotHermitian
from reference import lone_black_box


def test_env_from_matrix_caches_propagator():
    h = np.array([[1.0, 0.2], [0.2, -1.0]], dtype=np.complex128)
    env = envm.env_from_matrix(h, tau=0.8)
    np.testing.assert_allclose(env.unitary, oracles.propagator(h, 0.8), atol=1e-11)
    assert env.dim == 2
    assert env.tau == 0.8


def test_oracle_returns_the_decomposition_behind_the_propagator(monkeypatch):
    decompositions = []  # matrices diagonalized, one entry per call
    real = linalg.eig_hermitian

    def counting(h):
        decompositions.append(len(h) if np.ndim(h) == 3 else 1)
        return real(h)

    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    h = np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, -1.0]])
    env = envm.env_from_matrix(h, tau=0.8)
    assert decompositions == [1]
    system = env.eigensystem_oracle()
    assert system is env.eigensystem_oracle() and decompositions == [1]
    fresh = real(env.operator)
    assert system.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
    assert system.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
    assert not system.eigenvectors.flags.writeable
    decompositions.clear()
    envm.env_random(3, 1.0, seed=4).eigensystem_oracle()
    assert decompositions == [1, 1]  # one draw's spread, one for the rescaled operator
    decompositions.clear()
    envm.envs_random(3, 1.0, [4, 5, 6])
    assert decompositions == [3, 3]  # the same two per environment, in two stacked calls
    direct = linalg.unitary_from_eigensystem(linalg.eig_hermitian(h), 0.8)
    assert env.unitary.tobytes() == direct.tobytes()


def test_environments_built_together_equal_lone_ones():
    seeds = [4, 5, 6, 7]
    for env, seed in zip(envm.envs_random(5, 0.7, seeds), seeds):
        lone = envm.env_random(5, 0.7, seed)
        assert env.operator.tobytes() == lone.operator.tobytes()
        assert env.unitary.tobytes() == lone.unitary.tobytes()
        ours, theirs = env.eigensystem_oracle(), lone.eigensystem_oracle()
        assert ours.eigenvalues.tobytes() == theirs.eigenvalues.tobytes()
        assert ours.eigenvectors.tobytes() == theirs.eigenvectors.tobytes()
        assert not ours.eigenvectors.flags.writeable
    with pytest.raises(BadDim):
        envm.envs_random(1, 1.0, seeds)


def test_env_from_matrix_rejections():
    with pytest.raises(NotHermitian):
        envm.env_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), tau=1.0)
    with pytest.raises(BadDim):
        envm.env_from_matrix(np.eye(1), tau=1.0)
    with pytest.raises(BadDim):
        envm.env_from_matrix(np.eye(65), tau=1.0)


def test_interact_applies_propagator_once():
    """The engine's black box sends a state through exp(-i tau O) once."""
    env = envm.env_spin_x(tau=math.pi)
    out = lone_black_box(env)(np.array([1.0, 0.0], dtype=np.complex128))
    np.testing.assert_allclose(out, [0.0, -1.0j], atol=1e-12)


class TestRandomEnv:
    def test_spectral_range_rescaled_to_two(self):
        for dim in (2, 3, 4, 8, 16):
            env = envm.env_random(dim=dim, tau=1.0, seed=dim)
            lam = env.eigensystem_oracle().eigenvalues
            assert lam[-1] - lam[0] == pytest.approx(2.0, abs=1e-12)

    def test_seed_reproducible(self):
        a = envm.env_random(dim=4, tau=1.0, seed=99)
        b = envm.env_random(dim=4, tau=1.0, seed=99)
        np.testing.assert_array_equal(a.operator, b.operator)
        c = envm.env_random(dim=4, tau=1.0, seed=100)
        assert np.max(np.abs(a.operator - c.operator)) > 1e-3

    def test_hermitian(self):
        env = envm.env_random(dim=6, tau=1.0, seed=1)
        assert linalg.hermiticity_defect(env.operator) < 1e-14

    def test_offdiagonal_statistics(self):
        """GUE off-diagonal entries have unit variance before rescaling;
        after rescaling the matrix is only checked for zero-mean symmetry."""
        rng = np.random.default_rng(0)
        samples = [
            envm.env_random(dim=2, tau=1.0, seed=int(s)).operator[0, 1]
            for s in rng.integers(0, 10_000, size=200)
        ]
        mean = np.mean(samples)
        assert abs(mean) < 0.15


class TestSingleQubitSpec:
    def test_angle_validation(self):
        with pytest.raises(ConfigError):
            envm.SingleQubitSpec(alpha=-0.1, beta=0.0, lambda0=0.0, lambda1=1.0)
        with pytest.raises(ConfigError):
            envm.SingleQubitSpec(alpha=0.0, beta=4.0, lambda0=0.0, lambda1=1.0)

    def test_basis_vectors_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            spec = envm.SingleQubitSpec(
                alpha=float(rng.uniform(0, 2 * math.pi)),
                beta=float(rng.uniform(0, math.pi)),
                lambda0=float(rng.normal()),
                lambda1=float(rng.normal()),
            )
            v0, v1 = spec.basis_vectors()
            assert np.linalg.norm(v0) == pytest.approx(1.0)
            assert np.linalg.norm(v1) == pytest.approx(1.0)
            assert abs(np.vdot(v0, v1)) == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_basis_gives_spin_x(self):
        """alpha=pi/2, beta=0 with eigenvalues (+1/2 on v0, -1/2 on v1)
        reproduces the x spin operator; swapping the eigenvalues flips its
        sign."""
        plus = envm.SingleQubitSpec(
            alpha=math.pi / 2, beta=0.0, lambda0=0.5, lambda1=-0.5
        )
        env = envm.env_single_qubit(plus, tau=1.0)
        np.testing.assert_allclose(
            env.operator, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12
        )
        minus = envm.SingleQubitSpec(
            alpha=math.pi / 2, beta=0.0, lambda0=-0.5, lambda1=0.5
        )
        env = envm.env_single_qubit(minus, tau=1.0)
        np.testing.assert_allclose(
            env.operator, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-12
        )

    def test_eigensystem_roundtrip(self):
        spec = envm.SingleQubitSpec(
            alpha=1.1, beta=2.0, lambda0=-0.7, lambda1=0.9
        )
        env = envm.env_single_qubit(spec, tau=1.0)
        es = env.eigensystem_oracle()
        np.testing.assert_allclose(es.eigenvalues, [-0.7, 0.9], atol=1e-12)
        v0, v1 = spec.basis_vectors()
        assert abs(np.vdot(es.eigenvectors[:, 0], v0)) == pytest.approx(1.0)
        assert abs(np.vdot(es.eigenvectors[:, 1], v1)) == pytest.approx(1.0)


class TestBell:
    def test_bell_states_orthonormal(self):
        b = envm.bell_states()
        np.testing.assert_allclose(b.conj().T @ b, np.eye(4), atol=1e-14)

    def test_operator_matrix(self):
        """Frozen computational-basis matrix of the Bell-diagonal operator."""
        env = envm.env_bell(tau=1.0)
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 2.0, 0.0],
                [0.0, 2.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(env.operator, expected, atol=1e-14)

    def test_spectrum_and_eigenvectors(self):
        env = envm.env_bell(tau=1.0)
        es = env.eigensystem_oracle()
        np.testing.assert_allclose(es.eigenvalues, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)
        b = envm.bell_states()
        # ascending order pairs with (psi-, phi-, phi+, psi+)
        for l, col in enumerate((3, 1, 0, 2)):
            assert abs(
                np.vdot(es.eigenvectors[:, l], b[:, col])
            ) == pytest.approx(1.0, abs=1e-12)


class TestOperatorFiles:
    def test_roundtrip(self, tmp_path):
        env = envm.env_random(dim=3, tau=0.7, seed=5)
        path = tmp_path / "op.json"
        envm.save_operator(str(path), env.operator, env.tau)
        loaded, tau = envm.load_operator(str(path))
        np.testing.assert_allclose(loaded, env.operator, atol=1e-15)
        assert tau == 0.7
        env2 = envm.env_from_matrix(*envm.load_operator(str(path)))
        np.testing.assert_allclose(env2.unitary, env.unitary, atol=1e-12)

    def test_rejects_malformed(self, tmp_path):
        cases = [
            "not json at all",
            json.dumps([1, 2, 3]),
            json.dumps({"dim": 2}),
            json.dumps(
                {"dim": 2, "tau": 1.0, "entries_re": [[0, 0]], "entries_im": []}
            ),
            json.dumps(
                {
                    "dim": "two",
                    "tau": 1.0,
                    "entries_re": [[0, 0], [0, 0]],
                    "entries_im": [[0, 0], [0, 0]],
                }
            ),
            json.dumps(
                {
                    "dim": 2,
                    "tau": 1.0,
                    "entries_re": [[0, 0], [0, 0]],
                    "entries_im": [[0, 0], [0, 0]],
                    "extra": 1,
                }
            ),
        ]
        path = tmp_path / "op.json"
        for text in cases:
            path.write_text(text)
            with pytest.raises(ConfigError):
                envm.load_operator(str(path))

    def test_loaded_operator_must_be_hermitian(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "tau": 1.0,
                    "entries_re": [[0.0, 1.0], [0.0, 0.0]],
                    "entries_im": [[0.0, 0.0], [0.0, 0.0]],
                }
            )
        )
        with pytest.raises(ConfigError, match="not Hermitian"):
            envm.load_operator(str(path))
