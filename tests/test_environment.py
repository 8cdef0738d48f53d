"""Environment construction, named operators, serialization."""
import json
import math

import numpy as np
import pytest

import oracles
from eigenrl import environment as envm
from eigenrl import linalg
from eigenrl.errors import ConfigError
from reference import lone_black_box


def test_env_from_matrix_caches_propagator():
    h = np.array([[1.0, 0.2], [0.2, -1.0]], dtype=np.complex128)
    env = envm.env_from_matrix(h, tau=0.8)
    np.testing.assert_allclose(env.unitaries[0], oracles.propagator(h, 0.8), atol=1e-11)
    assert env.dim == 2
    h[0, 0] = 5.0  # the environment holds its own copy
    assert env.operators.shape == (1, 2, 2) and env.operators[0, 0, 0] == 1.0


def test_oracle_returns_the_decomposition_behind_the_propagator(monkeypatch):
    decompositions = []  # (entry, matrices diagonalized), one item per call
    real, real_spread = linalg.eig_hermitian, linalg.spectral_spread

    def counting(solver, entry):
        def call(h):
            decompositions.append((entry, len(h) if np.ndim(h) == 3 else 1))
            return solver(h)
        return call

    monkeypatch.setattr(linalg, "eig_hermitian", counting(real, "eig"))
    monkeypatch.setattr(linalg, "spectral_spread", counting(real_spread, "spread"))
    h = np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, -1.0]])
    env = envm.env_from_matrix(h, tau=0.8)
    assert decompositions == [("eig", 1)]
    system = env.eigensystem
    fresh = real(env.operators[0])
    assert system.eigenvalues[0].tobytes() == fresh.eigenvalues.tobytes()
    assert system.eigenvectors[0].tobytes() == fresh.eigenvectors.tobytes()
    for array in (env.operators, env.unitaries, system.eigenvalues, system.eigenvectors):
        assert not array.flags.writeable
    decompositions.clear()
    envm.env_random(3, 1.0, [4])
    # one eigenvalue-only pass for the draw's spread, one eigensystem of the
    # rescaled operator
    assert decompositions == [("spread", 1), ("eig", 1)]
    decompositions.clear()
    envm.env_random(3, 1.0, [4, 5, 6])
    assert decompositions == [("spread", 3), ("eig", 3)]  # the same two, each stacked
    direct = linalg.unitary_from_eigensystem(linalg.eig_hermitian(h), 0.8)
    assert env.unitaries[0].tobytes() == direct.tobytes()


def test_environments_built_together_equal_lone_ones():
    seeds = [4, 5, 6, 7]
    env = envm.env_random(5, 0.7, seeds)
    assert env.operators.shape == env.unitaries.shape == (4, 5, 5)
    ours = env.eigensystem
    for i, seed in enumerate(seeds):
        lone = envm.env_random(5, 0.7, [seed])
        assert env.operators[i].tobytes() == lone.operators[0].tobytes()
        assert env.unitaries[i].tobytes() == lone.unitaries[0].tobytes()
        theirs = lone.eigensystem
        assert ours.eigenvalues[i].tobytes() == theirs.eigenvalues[0].tobytes()
        assert ours.eigenvectors[i].tobytes() == theirs.eigenvectors[0].tobytes()
    with pytest.raises(ConfigError, match=r"^dim must be an integer in \[2, 64\], got 1$"):
        envm.env_random(1, 1.0, seeds)


def test_env_from_matrix_rejections():
    with pytest.raises(ConfigError, match="^matrix member 0 is not Hermitian: "):
        envm.env_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), tau=1.0)
    with pytest.raises(ConfigError, match=r"^dim must be an integer in \[2, 64\], got 1$"):
        envm.env_from_matrix(np.eye(1), tau=1.0)
    with pytest.raises(ConfigError, match=r"^dim must be an integer in \[2, 64\], got 65$"):
        envm.env_from_matrix(np.eye(65), tau=1.0)


def test_interact_applies_propagator_once():
    """The engine's black box sends a state through exp(-i tau O) once."""
    env = envm.env_spin_x(tau=math.pi)
    out = lone_black_box(env)(np.array([1.0, 0.0], dtype=np.complex128))
    np.testing.assert_allclose(out, [0.0, -1.0j], atol=1e-12)


class TestRandomEnv:
    def test_spectral_range_rescaled_to_two(self):
        for dim in (2, 3, 4, 8, 16):
            env = envm.env_random(dim=dim, tau=1.0, seeds=[dim])
            lam = env.eigensystem.eigenvalues[0]
            assert lam[-1] - lam[0] == pytest.approx(2.0, abs=1e-12)

    def test_seed_reproducible(self):
        a = envm.env_random(dim=4, tau=1.0, seeds=[99])
        b = envm.env_random(dim=4, tau=1.0, seeds=[99])
        np.testing.assert_array_equal(a.operators[0], b.operators[0])
        c = envm.env_random(dim=4, tau=1.0, seeds=[100])
        assert np.max(np.abs(a.operators[0] - c.operators[0])) > 1e-3

    def test_a_degenerate_draw_is_redrawn_from_its_generator(self, monkeypatch):
        """A draw whose spread is reported as zero gives way to its
        generator's next draw, and the other members keep their bits."""
        real, sizes = linalg.spectral_spread, []

        def degenerate_once(h):
            spread = real(h)
            if not sizes:
                spread[1] = 0.0
            sizes.append(len(h))
            return spread

        monkeypatch.setattr(linalg, "spectral_spread", degenerate_once)
        seeds = [4, 5, 6]
        env = envm.env_random(3, 1.0, seeds)
        assert sizes == [3, 1]  # the stack, then the one redraw
        monkeypatch.undo()
        rng = np.random.default_rng(seeds[1])
        envm._draw_gue(rng, 3)  # the draw reported degenerate
        redrawn = envm._draw_gue(rng, 3)[None]
        expected = redrawn * (2.0 / linalg.spectral_spread(redrawn))[:, None, None]
        assert env.operators[1].tobytes() == expected[0].tobytes()
        for i in (0, 2):
            lone = envm.env_random(3, 1.0, [seeds[i]])
            assert env.operators[i].tobytes() == lone.operators[0].tobytes()

    def test_hermitian(self):
        env = envm.env_random(dim=6, tau=1.0, seeds=[1])
        assert linalg.hermiticity_defect(env.operators[0]) < 1e-14

    def test_offdiagonal_statistics(self):
        """GUE off-diagonal entries have unit variance before rescaling;
        after rescaling the matrix is only checked for zero-mean symmetry."""
        rng = np.random.default_rng(0)
        samples = [
            envm.env_random(dim=2, tau=1.0, seeds=[int(s)]).operators[0, 0, 1]
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
            env.operators[0], [[0.0, 0.5], [0.5, 0.0]], atol=1e-12
        )
        minus = envm.SingleQubitSpec(
            alpha=math.pi / 2, beta=0.0, lambda0=-0.5, lambda1=0.5
        )
        env = envm.env_single_qubit(minus, tau=1.0)
        np.testing.assert_allclose(
            env.operators[0], [[0.0, -0.5], [-0.5, 0.0]], atol=1e-12
        )

    def test_eigensystem_roundtrip(self):
        spec = envm.SingleQubitSpec(
            alpha=1.1, beta=2.0, lambda0=-0.7, lambda1=0.9
        )
        env = envm.env_single_qubit(spec, tau=1.0)
        values, vectors = env.eigensystem.eigenvalues[0], env.eigensystem.eigenvectors[0]
        np.testing.assert_allclose(values, [-0.7, 0.9], atol=1e-12)
        v0, v1 = spec.basis_vectors()
        assert abs(np.vdot(vectors[:, 0], v0)) == pytest.approx(1.0)
        assert abs(np.vdot(vectors[:, 1], v1)) == pytest.approx(1.0)

    def test_large_eigenvalues_pass_the_relative_hermiticity_check(self):
        """Rounding in the outer products leaves a defect that scales with
        the eigenvalues: 4.7e-10 at 1e7, well within the relative bound."""
        spec = envm.SingleQubitSpec(alpha=1.0, beta=0.5, lambda0=1e7, lambda1=-1e7)
        env = envm.env_single_qubit(spec, tau=1.0)
        assert linalg.hermiticity_defect(env.operators[0]) > linalg.HERMITICITY_TOL
        np.testing.assert_allclose(env.eigensystem.eigenvalues[0], [-1e7, 1e7], rtol=1e-12)


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
        np.testing.assert_allclose(env.operators[0], expected, atol=1e-14)

    def test_spectrum_and_eigenvectors(self):
        env = envm.env_bell(tau=1.0)
        values, vectors = env.eigensystem.eigenvalues[0], env.eigensystem.eigenvectors[0]
        np.testing.assert_allclose(values, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)
        b = envm.bell_states()
        # ascending order pairs with (psi-, phi-, phi+, psi+)
        for l, col in enumerate((3, 1, 0, 2)):
            assert abs(np.vdot(vectors[:, l], b[:, col])) == pytest.approx(1.0, abs=1e-12)


class TestOperatorFiles:
    def test_roundtrip(self, tmp_path):
        env = envm.env_random(dim=3, tau=0.7, seeds=[5])
        path = tmp_path / "op.json"
        envm.save_operator(str(path), env.operators[0], 0.7)
        loaded, tau = envm.load_operator(str(path))
        np.testing.assert_allclose(loaded, env.operators[0], atol=1e-15)
        assert tau == 0.7
        env2 = envm.env_from_matrix(*envm.load_operator(str(path)))
        np.testing.assert_allclose(env2.unitaries[0], env.unitaries[0], atol=1e-12)

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
